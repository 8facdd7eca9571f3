#include "atlc/graph/csr.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "atlc/util/check.hpp"

#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
#define ATLC_CSR_OMP 1
#endif

namespace atlc::graph {

CSRGraph CSRGraph::from_edges(const EdgeList& edges) {
  CSRGraph g;
  const VertexId n = edges.num_vertices();
  g.dir_ = edges.directedness();
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);

  for (const Edge& e : edges.edges()) {
    ATLC_CHECK(e.u < n && e.v < n, "edge endpoint out of range");
    ++g.offsets_[e.u + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i)
    g.offsets_[i] += g.offsets_[i - 1];

  g.adjacencies_.resize(g.offsets_.back());
  std::vector<EdgeIndex> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges.edges()) g.adjacencies_[cursor[e.u]++] = e.v;

  // The scatter keeps each row in input order, so a list already sorted by
  // target within each source (clean()'s output without relabelling, a
  // snapshot's edges) leaves every row sorted: one O(m) scan then skips
  // the sort and its parallel region.
  const auto row = [&g](VertexId v) {
    return std::span<const VertexId>(g.adjacencies_)
        .subspan(g.offsets_[v], g.offsets_[v + 1] - g.offsets_[v]);
  };
  bool rows_sorted = true;
  for (VertexId v = 0; v < n && rows_sorted; ++v)
    rows_sorted = std::ranges::is_sorted(row(v));
  if (rows_sorted) return g;

  // Rows are independent, so the per-row sort parallelises trivially; the
  // result is identical to the serial loop (each row is sorted in place).
  // Dynamic scheduling in blocks of rows absorbs the skew of hub rows.
#ifdef ATLC_CSR_OMP
#pragma omp parallel for schedule(dynamic, 1024)
#endif
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v)
    std::sort(g.adjacencies_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v]),
              g.adjacencies_.begin() +
                  static_cast<std::ptrdiff_t>(g.offsets_[v + 1]));
  return g;
}

CSRGraph CSRGraph::from_raw(VertexId num_vertices,
                            std::vector<EdgeIndex> offsets,
                            std::vector<VertexId> adjacencies,
                            Directedness directedness) {
  ATLC_CHECK(offsets.size() == static_cast<std::size_t>(num_vertices) + 1,
             "offsets must have n+1 entries");
  ATLC_CHECK(offsets.back() == adjacencies.size(),
             "last offset must equal adjacency count");
  CSRGraph g;
  g.offsets_ = std::move(offsets);
  g.adjacencies_ = std::move(adjacencies);
  g.dir_ = directedness;
  return g;
}

bool CSRGraph::has_edge(VertexId u, VertexId v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

bool CSRGraph::adjacency_sorted_unique() const {
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const auto nbrs = neighbors(v);
    for (std::size_t i = 1; i < nbrs.size(); ++i)
      if (nbrs[i - 1] >= nbrs[i]) return false;
  }
  return true;
}

}  // namespace atlc::graph
