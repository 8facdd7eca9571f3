#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "atlc/graph/edge_list.hpp"
#include "atlc/graph/types.hpp"

namespace atlc::graph {

/// Compressed Sparse Row graph (paper Fig. 2): `offsets[i]` is the index in
/// `adjacencies` where the adjacency list of vertex i starts; the list ends
/// at `offsets[i+1]`. Adjacency lists are kept sorted ascending — both
/// intersection kernels (paper Algorithms 1 and 2) require it.
class CSRGraph {
 public:
  CSRGraph() = default;

  /// Build from an edge list. The input does not have to be sorted; the
  /// builder counts, prefix-sums, fills, and sorts each adjacency list.
  static CSRGraph from_edges(const EdgeList& edges);

  /// Assemble from raw arrays (used by the distributed partitioner, which
  /// constructs per-rank local CSRs directly).
  static CSRGraph from_raw(VertexId num_vertices,
                           std::vector<EdgeIndex> offsets,
                           std::vector<VertexId> adjacencies,
                           Directedness directedness);

  [[nodiscard]] VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  [[nodiscard]] EdgeIndex num_edges() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }
  [[nodiscard]] Directedness directedness() const { return dir_; }

  /// Out-degree of v (paper: deg+). For undirected graphs this equals the
  /// degree since both orientations are stored.
  [[nodiscard]] VertexId degree(VertexId v) const {
    return static_cast<VertexId>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted out-neighbors of v.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacencies_.data() + offsets_[v],
            adjacencies_.data() + offsets_[v + 1]};
  }

  /// True iff the edge u->v exists (binary search over sorted adjacency).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  [[nodiscard]] std::span<const EdgeIndex> offsets() const { return offsets_; }
  [[nodiscard]] std::span<const VertexId> adjacencies() const {
    return adjacencies_;
  }

  /// Size of the CSR representation in bytes (paper Table II column).
  [[nodiscard]] std::size_t csr_bytes() const {
    return offsets_.size() * sizeof(EdgeIndex) +
           adjacencies_.size() * sizeof(VertexId);
  }

  /// Every adjacency list sorted strictly ascending (no duplicate edges)?
  [[nodiscard]] bool adjacency_sorted_unique() const;

 private:
  std::vector<EdgeIndex> offsets_;      // size n+1
  std::vector<VertexId> adjacencies_;   // size m
  Directedness dir_ = Directedness::Undirected;
};

}  // namespace atlc::graph
