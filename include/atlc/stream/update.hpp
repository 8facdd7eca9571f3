#pragma once

// Batched dynamic-graph update primitives (the `atlc::stream` subsystem's
// vocabulary types). A Batch is an ordered list of edge insertions and
// deletions applied atomically between two read epochs; normalize()
// collapses it to its net per-edge effect so the distributed appliers and
// the single-node reference agree on sequential semantics. See DESIGN.md §7.

#include <compare>
#include <cstdint>
#include <vector>

#include "atlc/graph/csr.hpp"
#include "atlc/graph/edge_list.hpp"
#include "atlc/graph/types.hpp"

namespace atlc::stream {

using graph::VertexId;

enum class Op : std::uint8_t { Insert, Delete };

/// One requested update against the undirected graph. Endpoint order is
/// irrelevant (the update applies to both stored orientations).
struct EdgeUpdate {
  VertexId u = 0;
  VertexId v = 0;
  Op op = Op::Insert;

  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

/// An ordered batch of updates with sequential (in-order) semantics.
using Batch = std::vector<EdgeUpdate>;

/// A batch entry after normalization: canonical endpoints (a < b) and the
/// NET operation for that edge within the batch. Ordered by (a, b, op): on
/// a list holding each edge once that is canonical_key order.
struct CanonicalUpdate {
  VertexId a = 0;
  VertexId b = 0;
  Op op = Op::Insert;

  friend auto operator<=>(const CanonicalUpdate&,
                          const CanonicalUpdate&) = default;
};

/// Canonical-edge hash key: both endpoints packed into one word. Valid for
/// a < b (canonical form).
[[nodiscard]] constexpr std::uint64_t canonical_key(VertexId a, VertexId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Collapse a batch to its net per-edge effect: canonicalize endpoints,
/// drop self loops, and keep only the LAST op targeting each edge (the
/// sequential outcome — e.g. insert-then-delete of an absent edge nets to
/// a delete, which presence adjudication later turns into a no-op).
/// Output is sorted by (a, b) and contains each edge at most once; every
/// rank computes the identical normalization deterministically.
[[nodiscard]] std::vector<CanonicalUpdate> normalize(const Batch& batch);

/// Reference application with the same sequential semantics, used to
/// validate the incremental engine: updates both stored orientations of an
/// undirected edge list (insert skips present edges, delete skips absent
/// ones) and leaves the vertex count unchanged.
void apply_to_edge_list(graph::EdgeList& edges, const Batch& batch);

/// Deterministic synthetic update workload for benches, tools and tests.
struct WorkloadConfig {
  std::size_t num_batches = 4;
  std::size_t batch_size = 256;
  /// Fraction of updates that are insertions; the rest delete a currently
  /// present edge (tracked across batches, so deletions are almost always
  /// effective). A small tail of duplicate/no-op updates is injected on
  /// purpose to keep the dedup paths honest.
  double insert_fraction = 0.7;
  std::uint64_t seed = 1;
};

/// Generate `num_batches` batches against (the evolving state of) `g`.
[[nodiscard]] std::vector<Batch> generate_batches(const graph::CSRGraph& g,
                                                  const WorkloadConfig& cfg);

}  // namespace atlc::stream
