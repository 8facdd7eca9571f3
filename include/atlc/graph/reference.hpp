#pragma once

#include <cstdint>
#include <vector>

#include "atlc/graph/csr.hpp"

namespace atlc::graph {

/// Single-node reference results used to validate the distributed engines.
struct LccResult {
  /// Per-vertex edge-centric triangle count t(v) = sum over out-neighbors j
  /// of |adj(v) ∩ adj(j)| (paper Section II-C). For undirected graphs this
  /// equals 2x the number of distinct triangles at v.
  std::vector<std::uint64_t> triangles;
  /// Per-vertex LCC score, paper Eq. (1) for directed / Eq. (2) for
  /// undirected inputs. Vertices with deg < 2 score 0.
  std::vector<double> lcc;
  /// Global count of distinct triangles (undirected: each {i,j,k} once;
  /// directed: number of directed 3-cycles of the "transitive" form counted
  /// by the edge-centric method divided per-edge — see reference.cpp).
  std::uint64_t global_triangles = 0;
};

/// Edge-centric reference via sorted adjacency intersection (the same math
/// the distributed engine computes, minus distribution), counted through
/// intersect::for_each_common's scalar walk rather than the count kernels
/// the engine runs. O(sum over edges (v, j) of deg(v) + deg(j)).
[[nodiscard]] LccResult reference_lcc(const CSRGraph& g);

/// Independent naive check: for each vertex enumerate neighbor pairs and
/// probe edges with binary search — O(sum_v deg(v)^2 log). Used only on
/// small test graphs to validate reference_lcc itself.
[[nodiscard]] LccResult naive_lcc(const CSRGraph& g);

/// LCC normalisation shared by every engine in the project:
/// undirected (Eq. 2): C = t / (d(d-1)); directed (Eq. 1): C = t / (d+(d+-1)),
/// where t is the edge-centric triangle count above.
[[nodiscard]] double lcc_score(std::uint64_t t, VertexId out_degree);

}  // namespace atlc::graph
