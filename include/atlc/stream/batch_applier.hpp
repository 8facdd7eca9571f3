#pragma once

// Distributed batch application: adjudicate a batch's net ops against the
// live partition, replicate the effective sets over the TriC all_to_all
// substrate, and rebuild only the touched CSR rows before republishing the
// partition's windows (collective refresh_window → epoch bump → CLaMPI
// epoch invalidation). DESIGN.md §7 documents the protocol.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "atlc/core/dist_graph.hpp"
#include "atlc/core/engine_config.hpp"
#include "atlc/stream/update.hpp"

namespace atlc::stream {

/// The presence-adjudicated ops of one batch, identical on every rank
/// after the exchange. `ops` is sorted by canonical key and contains each
/// edge at most once, so one binary search answers whether an edge is in
/// the batch (the intra-batch triangle attribution's probe).
struct EffectiveBatch {
  std::vector<CanonicalUpdate> ops;

  [[nodiscard]] bool empty() const { return ops.empty(); }
  [[nodiscard]] std::uint64_t insertions() const { return count(Op::Insert); }
  [[nodiscard]] std::uint64_t deletions() const { return count(Op::Delete); }
  [[nodiscard]] std::uint64_t count(Op op) const {
    return std::ranges::count(ops, op, &CanonicalUpdate::op);
  }
};

/// The sorted, deduplicated set of vertices whose CSR rows an effective
/// batch rebuilds (both endpoints of every effective op) — the epoch
/// interleaving hook consumers key invalidation on: apply_to_rows touches
/// exactly these rows, and the serving layer's HotVertexCache combines
/// this set with a pre-batch neighborhood test (DESIGN.md §13). Identical
/// on every rank, since the effective sets are replicated.
[[nodiscard]] std::vector<graph::VertexId> touched_vertices(
    const EffectiveBatch& eff);

/// Per-rank batch applier. Owns no graph state; mutates the rank's
/// DistGraph rows in place and republishes its windows.
class BatchApplier {
 public:
  BatchApplier(rma::RankCtx& ctx, core::DistGraph& dg,
               const core::EngineConfig& config)
      : ctx_(&ctx), dg_(&dg), config_(&config) {}

  /// Collective step 1: normalize the batch, adjudicate each op whose
  /// canonical first endpoint this rank owns (insert is effective iff the
  /// edge is absent, delete iff present — one sorted-row binary search per
  /// op, charged to the virtual clock), and exchange verdicts so every
  /// rank returns the identical effective sets.
  [[nodiscard]] EffectiveBatch adjudicate(const Batch& batch);

  /// Collective step 2: rebuild the local CSR rows touched by `eff` (both
  /// endpoints of every effective edge), fold the ops touching replicated
  /// hubs into this rank's HubReplica copy (the effective sets are already
  /// replicated, so no extra traffic — DESIGN.md §8), and republish
  /// w_offsets / w_adj via refresh_window, advancing both window epochs by
  /// one. Callers must have synchronised (barrier) after the last read of
  /// the pre-batch state. Returns the number of local rows rebuilt.
  std::uint64_t apply_to_rows(const EffectiveBatch& eff);

 private:
  rma::RankCtx* ctx_;
  core::DistGraph* dg_;
  const core::EngineConfig* config_;
};

}  // namespace atlc::stream
