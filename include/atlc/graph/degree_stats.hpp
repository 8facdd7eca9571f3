#pragma once

#include <cstdint>
#include <vector>

#include "atlc/graph/csr.hpp"
#include "atlc/graph/partition.hpp"

namespace atlc::graph {

/// Degree-distribution statistics used by Table II, Figures 1, 4 and 5 and
/// the cache sizing heuristic of Section III-B1.
struct DegreeStats {
  VertexId min = 0;
  VertexId max = 0;
  double mean = 0.0;
  /// Maximum-likelihood power-law exponent alpha (Clauset-style MLE over
  /// degrees >= xmin). Meaningful only for heavy-tailed graphs.
  double power_law_alpha = 0.0;
  /// Gini coefficient of the degree distribution; ~0 for uniform graphs,
  /// high (>0.5) for scale-free ones. Used by benches to label graphs.
  double gini = 0.0;
};

[[nodiscard]] DegreeStats degree_stats(const CSRGraph& g, VertexId xmin = 2);

/// Vertex ids sorted by descending out-degree (ties by id).
[[nodiscard]] std::vector<VertexId> vertices_by_degree_desc(const CSRGraph& g);

/// Fraction of `weights` mass attributable to the top `fraction` of vertices
/// when vertices are ranked by descending degree. This is exactly the
/// quantity highlighted in paper Fig. 4 ("fraction of remote reads that
/// target the top 10% of the highest degree vertices").
[[nodiscard]] double top_degree_share(const CSRGraph& g,
                                      const std::vector<std::uint64_t>& weights,
                                      double fraction);

/// Remote reads per target vertex under a 1D `partition` (Figs. 1, 4, 5):
/// each edge (v, j) with owner(j) != owner(v) is one read of j, exactly
/// the engine's fetches at hub_fraction = 0, cached or not.
[[nodiscard]] std::vector<std::uint64_t> remote_reads(
    const CSRGraph& g, const Partition& partition);

}  // namespace atlc::graph
