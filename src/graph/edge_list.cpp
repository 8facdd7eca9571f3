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

  const std::size_t entries = edges_.size() * 2;
  VertexId max_id = 0;
  for (const Edge& e : edges_) max_id = std::max({max_id, e.u, e.v});

  // Sparse ids (more ids than entries) take the reference definition, so
  // no per-id array ever outgrows the 2m entries.
  if (std::uint64_t{max_id} + 1 > entries) {
    const std::size_t m = edges_.size();
    edges_.reserve(entries);
    for (std::size_t i = 0; i < m; ++i)
      edges_.push_back({edges_[i].v, edges_[i].u});
    std::sort(edges_.begin(), edges_.end());
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
    return;
  }

  // Dense ids: an LSD radix sort of both orientations, by target, then by
  // source. The entries form a symmetric multiset, so vertex x has as many
  // entries with source x as with target x: one count gives both passes
  // their bucket starts, and target bucket x spans the range row x will.
  const std::size_t n = std::size_t{max_id} + 1;
  std::vector<std::size_t> row_start(n, 0);
  for (const Edge& e : edges_) {
    ++row_start[e.u];
    ++row_start[e.v];
  }
  std::exclusive_scan(row_start.begin(), row_start.end(), row_start.begin(),
                      std::size_t{0});

  // Pass 1: each entry's source goes to its target's bucket; the cursors
  // end as the bucket ends.
  std::vector<std::size_t> bucket_end = row_start;
  std::vector<VertexId> source(entries);
  for (const Edge& e : edges_) {
    source[bucket_end[e.v]++] = e.u;
    source[bucket_end[e.u]++] = e.v;
  }
  edges_ = std::vector<Edge>();  // freed before the output is allocated

  // Pass 2: walking the targets in increasing order appends each row's
  // targets in increasing order, so every row comes out sorted.
  edges_.resize(entries);
  std::size_t i = 0;
  for (std::size_t t = 0; t < n; ++t)
    for (; i < bucket_end[t]; ++i) {
      const VertexId s = source[i];
      edges_[row_start[s]++] = {s, static_cast<VertexId>(t)};
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
