#pragma once

#include <cstddef>
#include <vector>

#include "atlc/graph/types.hpp"

namespace atlc::graph {

/// Mutable edge-list representation used during graph construction and
/// cleaning. The CSR build (csr.hpp) consumes a cleaned EdgeList.
class EdgeList {
 public:
  EdgeList() = default;
  EdgeList(VertexId num_vertices, std::vector<Edge> edges,
           Directedness directedness)
      : n_(num_vertices), edges_(std::move(edges)), dir_(directedness) {}

  [[nodiscard]] VertexId num_vertices() const { return n_; }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  [[nodiscard]] Directedness directedness() const { return dir_; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] std::vector<Edge>& edges() { return edges_; }

  void set_num_vertices(VertexId n) { n_ = n; }
  void add_edge(VertexId u, VertexId v) { edges_.push_back({u, v}); }

  /// Sort edges lexicographically and drop exact duplicates (multi-edges).
  /// A strictly increasing list returns at once after one scan, so
  /// re-sorting a loader's output is free; any other list takes
  /// std::sort + std::unique, in place.
  void sort_and_dedup();

  /// Remove self loops (u == u).
  void remove_self_loops();

  /// For an undirected graph, ensure both orientations of every edge are
  /// present (idempotent; dedups afterwards). No-op for directed graphs.
  /// The result equals appending every reversed edge, then std::sort +
  /// std::unique. Dense ids (largest id + 1 at most the 2m entries, as in
  /// every list load_text_edges returns) take two stable counting passes,
  /// by target and then by source, which leave every row sorted: linear
  /// time, no comparison sort, and a peak of the larger of 8m + 8m and
  /// 8m + 16m bytes plus two n-entry offset arrays. Sparse ids take the
  /// reference definition itself, so no per-id array outgrows the entries.
  void symmetrize();

  /// True if for every (u,v) the reverse (v,u) is also present.
  /// Precondition: sorted.
  [[nodiscard]] bool is_symmetric() const;

 private:
  VertexId n_ = 0;
  std::vector<Edge> edges_;
  Directedness dir_ = Directedness::Undirected;
};

}  // namespace atlc::graph
