#pragma once

// Incremental triangle maintenance over update batches: the streaming
// formulation ΔT = Σ |N(u) ∩ N(v)| over the batch's effective edges
// (Tangwongsan et al.), evaluated through the same depth-k EdgePipeline
// the static analytics use — each update edge costs one (cached) remote
// adjacency fetch plus one intersection instead of a full recount.
// DESIGN.md §7 covers the two-phase (deletions-before, insertions-after)
// discipline and the intra-batch min-edge attribution that keeps triangles
// with several in-batch edges from being double-counted.

#include <cstdint>
#include <map>
#include <vector>

#include "atlc/core/edge_pipeline.hpp"
#include "atlc/stream/batch_applier.hpp"

namespace atlc::stream {

/// Triangle deltas attributed by one rank while processing one batch.
/// `per_vertex` holds EDGE-CENTRIC t(v) deltas (±2 per distinct triangle
/// per corner, the convention of core's `triangles` arrays) keyed by
/// GLOBAL vertex id; `distinct_triangles` is this rank's share of ΔT.
struct DeltaSet {
  std::map<VertexId, std::int64_t> per_vertex;
  std::int64_t distinct_triangles = 0;
};

/// Deltas after owner routing: the (local vertex, delta) pairs this rank
/// must fold into its t(v) array, plus the globally reduced ΔT.
struct RoutedDeltas {
  std::vector<std::pair<VertexId, std::int64_t>> local;  ///< (lv, delta)
  std::int64_t global_delta = 0;
};

/// Per-rank incremental counting kernel. Stateless between batches (its
/// Intersector walk keeps no row state, so rows may change in between); the
/// pipeline it drives persists so the CLaMPI caches keep their (epoch-
/// checked) contents across batches.
class IncrementalCounter {
 public:
  IncrementalCounter(rma::RankCtx& ctx, const core::DistGraph& dg,
                     core::EdgePipeline& pipeline,
                     const core::EngineConfig& config)
      : ctx_(&ctx),
        dg_(&dg),
        pipeline_(&pipeline),
        isect_(core::make_intersector(config)) {}

  /// Count the triangles destroyed by `eff`'s deletions against the
  /// CURRENT graph state — must run BEFORE the batch is applied, while
  /// every destroyed triangle is still observable. Accumulates into `out`.
  void count_deletions(const EffectiveBatch& eff, DeltaSet& out) {
    count(eff, Op::Delete, out);
  }

  /// Count the triangles created by `eff`'s insertions against the CURRENT
  /// graph state — must run AFTER the batch is applied (and the windows
  /// refreshed), when every created triangle is observable.
  void count_insertions(const EffectiveBatch& eff, DeltaSet& out) {
    count(eff, Op::Insert, out);
  }

  /// Collective: route `deltas` to the owner rank of each vertex over the
  /// all_to_all substrate and reduce ΔT globally.
  [[nodiscard]] RoutedDeltas route(const DeltaSet& deltas);

 private:
  void count(const EffectiveBatch& eff, Op which, DeltaSet& out);

  rma::RankCtx* ctx_;
  const core::DistGraph* dg_;
  core::EdgePipeline* pipeline_;
  intersect::Intersector isect_;
};

}  // namespace atlc::stream
