#pragma once

#include <span>
#include <vector>

#include "atlc/graph/edge_list.hpp"

namespace atlc::graph {

/// Options for the cleaning pipeline of paper Section II-B. Self loops and
/// multi-edges are always removed.
struct CleanOptions {
  /// Remove vertices of degree < 2 (they cannot participate in a triangle)
  /// in one pass, as the paper does. Off only to mirror
  /// `atlc_ingest --keep-low-degree`.
  bool remove_degree_lt2 = true;
  /// Randomly relabel vertices (paper: applied when the input is
  /// degree-ordered, to avoid assigning all high-degree vertices to the
  /// same 1D partition). 0 disables; any other value seeds the permutation.
  std::uint64_t relabel_seed = 0;
};

/// Statistics of a cleaning run, reported by examples and benches.
struct CleanReport {
  std::size_t self_loops_removed = 0;
  std::size_t multi_edges_removed = 0;
  VertexId vertices_removed = 0;
};

/// clean_ids' id for a vertex the degree<2 pass removes.
inline constexpr VertexId kRemovedVertex = static_cast<VertexId>(-1);

/// The vertex half of the Section II-B policy, the one decision behind
/// both clean() and the out-of-core ingest (ingest/pipeline.hpp).
/// `degree[v]` is v's degree over the deduplicated, loop-free edges:
/// out-degree on an undirected list (it stores both orientations), in + out
/// on a directed one. Returns every vertex's final id, or kRemovedVertex:
/// the one degree<2 pass numbers the n' survivors 0..n'-1 in id order, then
/// a nonzero `relabel_seed` maps them through random_permutation(n', seed).
[[nodiscard]] std::vector<VertexId> clean_ids(
    std::span<const VertexId> degree, const CleanOptions& options);

/// Run the Section II-B pipeline on `edges` in place: drop self loops and
/// duplicates, then map every edge through clean_ids (dropping those with
/// a removed endpoint). Edges keep their sorted pre-relabel order; the id
/// space is compacted to the n' survivors.
CleanReport clean(EdgeList& edges, const CleanOptions& options = {});

}  // namespace atlc::graph
