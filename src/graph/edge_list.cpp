#include "atlc/graph/edge_list.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "atlc/util/check.hpp"

namespace atlc::graph {

namespace {

bool strictly_increasing(const std::vector<Edge>& edges) {
  return std::adjacent_find(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return !(a < b);
                            }) == edges.end();
}

}  // namespace

void EdgeList::sort_and_dedup() {
  if (strictly_increasing(edges_)) return;
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  ATLC_DCHECK(strictly_increasing(edges_), "sort_and_dedup output unsorted");
}

void EdgeList::remove_self_loops() {
  std::erase_if(edges_, [](const Edge& e) { return e.u == e.v; });
}

void EdgeList::symmetrize() {
  if (dir_ == Directedness::Directed || edges_.empty()) return;

  // One counting pass keyed by source. An edge goes to bucket u >> shift,
  // with the smallest shift that keeps the bucket count at or below the
  // 2m entries, so sparse ids (up to 2^32 - 2) cost no per-id memory;
  // dense ids get shift 0, one bucket per source.
  const std::size_t entries = edges_.size() * 2;
  VertexId max_id = 0;
  for (const Edge& e : edges_) max_id = std::max({max_id, e.u, e.v});
  unsigned shift = 0;
  while ((std::uint64_t{max_id} >> shift) + 1 > entries) ++shift;
  const auto bucket = [shift](VertexId u) -> std::size_t { return u >> shift; };

  // One array serves as counts, then bucket starts, then (after the
  // scatter has advanced each start) bucket ends: bucket b is
  // [bucket_end[b - 1], bucket_end[b]), starting at 0.
  std::vector<std::size_t> bucket_end(bucket(max_id) + 1, 0);
  for (const Edge& e : edges_) {
    ++bucket_end[bucket(e.u)];
    ++bucket_end[bucket(e.v)];
  }
  std::exclusive_scan(bucket_end.begin(), bucket_end.end(), bucket_end.begin(),
                      std::size_t{0});

  // Both orientations go straight to their source's bucket of the one
  // output array; the input is freed before the rows are sorted.
  std::vector<Edge> out(entries);
  for (const Edge& e : edges_) {
    out[bucket_end[bucket(e.u)]++] = e;
    out[bucket_end[bucket(e.v)]++] = {e.v, e.u};
  }
  edges_ = std::move(out);

  // Buckets partition the sources in increasing order, so sorted buckets
  // make a sorted list. The packed (u, v) key orders like Edge's operator<
  // in one compare.
  auto row = edges_.begin();
  for (const std::size_t b_end : bucket_end) {
    const auto row_end = edges_.begin() + static_cast<std::ptrdiff_t>(b_end);
    std::sort(row, row_end, [](const Edge& x, const Edge& y) {
      return (std::uint64_t{x.u} << 32 | x.v) <
             (std::uint64_t{y.u} << 32 | y.v);
    });
    row = row_end;
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  ATLC_DCHECK(strictly_increasing(edges_), "symmetrize output unsorted");
}

bool EdgeList::is_symmetric() const {
  for (const Edge& e : edges_) {
    if (!std::binary_search(edges_.begin(), edges_.end(), Edge{e.v, e.u}))
      return false;
  }
  return true;
}

}  // namespace atlc::graph
