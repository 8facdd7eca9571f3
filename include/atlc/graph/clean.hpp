#pragma once

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

/// Run the Section II-B pipeline on `edges` in place. Degree<2 removal
/// compacts the vertex id space (survivors are renumbered 0..n'-1).
/// For undirected inputs, "degree" is the symmetric degree; for directed
/// inputs a vertex is kept if deg+(v) + deg-(v) >= 2.
CleanReport clean(EdgeList& edges, const CleanOptions& options = {});

}  // namespace atlc::graph
