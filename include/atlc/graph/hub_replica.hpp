#pragma once

// Hub-adjacency replication (DESIGN.md §8, docs/partitioning.md).
//
// On power-law graphs a handful of hub rows dominate remote-fetch traffic:
// every rank re-reads the same top-degree adjacency lists once per incident
// edge (paper Figs. 1/4/5 — the reuse that makes CLaMPI caching pay).
// Replicating just those rows on every rank removes the traffic entirely
// instead of caching it: the fetcher serves hub rows from local memory
// (zero RMA, counted as CommStats::hub_local_hits) and the CLaMPI cache
// stops churning on entries that are both the largest and the most reused.
//
// A HubReplica is built once from the global CSR (deterministic top-⌈δn⌉
// selection by descending degree, ties by id) and copied into every rank's
// DistGraph at build time — the copy is the simulation's stand-in for the
// replication broadcast, which build_dist_graph prices on the virtual
// clock. Rows are stored per-hub so the streaming engine can maintain them
// in place when a batch touches a hub (BatchApplier applies the already
// replicated effective ops to the rank's own copy).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "atlc/graph/types.hpp"

namespace atlc::graph {

class CSRGraph;

/// The replicated adjacency rows of the top-δ highest-degree vertices.
/// Value type: the engine builds one prototype and copies it per rank.
class HubReplica {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  HubReplica() = default;

  /// Select the ⌈fraction * |V|⌉ highest-degree vertices of `g` (ties
  /// broken by ascending id, so the pick is deterministic) and copy their
  /// adjacency rows. fraction <= 0 (or an empty graph) yields an empty
  /// replica with zero overhead anywhere; a fraction above 1 or NaN
  /// aborts.
  [[nodiscard]] static HubReplica build(const CSRGraph& g, double fraction);

  [[nodiscard]] bool empty() const { return ids_.empty(); }

  /// Hub vertex ids, sorted ascending.
  [[nodiscard]] std::span<const VertexId> hub_ids() const { return ids_; }

  /// Index of `v` among the hubs, or npos. O(log hubs).
  [[nodiscard]] std::size_t find(VertexId v) const;

  /// Replicated adjacency row by hub slot (from find()). The span stays
  /// valid until the row is next mutated by apply().
  [[nodiscard]] std::span<const VertexId> neighbors_at(std::size_t slot) const {
    return rows_[slot];
  }

  /// Streaming maintenance: merge one effective op into v's replica row.
  /// No-op (returns 0) when v is not a hub; otherwise returns the row
  /// bytes rewritten so the caller can price the merge. The op must be
  /// effective against the replica's current state (same contract as
  /// BatchApplier's row rebuild).
  std::uint64_t apply(VertexId v, VertexId nbr, bool insert);

 private:
  std::vector<VertexId> ids_;                 ///< sorted ascending
  std::vector<std::vector<VertexId>> rows_;   ///< rows_[i] = adj(ids_[i])
};

}  // namespace atlc::graph
