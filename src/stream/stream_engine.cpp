#include "atlc/stream/stream_engine.hpp"

#include "atlc/core/lcc.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/stream/batch_applier.hpp"
#include "atlc/stream/incremental.hpp"
#include "atlc/util/check.hpp"

namespace atlc::stream {

StreamResult run_streaming_lcc(const graph::CSRGraph& g,
                               std::span<const Batch> batches,
                               std::uint32_t ranks,
                               const StreamOptions& options) {
  ATLC_CHECK(g.directedness() == graph::Directedness::Undirected,
             "stream: undirected graphs only (the incremental edge-centric "
             "formulation counts distinct triangles)");
  ATLC_CHECK(options.partition != graph::PartitionKind::Grid2D,
             "stream: the incremental counter routes per-vertex deltas to "
             "unique vertex owners; Grid2D's segment ownership is not "
             "plumbed through it yet (BatchApplier itself is segment-aware)");
  const core::EngineConfig& cfg = options.engine;

  StreamResult out;
  out.triangles.assign(g.num_vertices(), 0);
  out.lcc.assign(g.num_vertices(), 0.0);
  out.batches.resize(batches.size());
  if (options.record_snapshots) {
    for (auto& b : out.batches) {
      b.triangles.assign(g.num_vertices(), 0);
      b.lcc.assign(g.num_vertices(), 0.0);
    }
  }

  const auto body = [&](rma::RankCtx& ctx, core::DistGraph& dg,
                        core::EdgePipeline& pipeline) {
    const graph::Partition& partition = dg.partition;
    ctx.tracer().begin("cold_count");
    // Cold start: the standard static pass seeds per-vertex t(v)/LCC and
    // warms the CLaMPI caches the batches will (epoch-permitting) reuse.
    core::RankResult rr = core::compute_lcc_rank(ctx, dg, cfg, pipeline);
    std::vector<std::uint64_t> tri = std::move(rr.triangles);
    std::vector<double> lcc = std::move(rr.lcc);

    std::uint64_t local_sum = 0;
    for (const std::uint64_t t : tri) local_sum += t;
    // Σ t(v) counts each distinct triangle 6 times (both orientations of
    // all three corners) on undirected graphs.
    std::uint64_t global_triangles = ctx.allreduce_sum(local_sum) / 6;

    ctx.barrier();  // align clocks: everything before here is the cold cost
    ctx.tracer().end("cold_count");
    double mark = ctx.now();
    if (ctx.rank() == 0) out.initial_makespan = mark;

    BatchApplier applier(ctx, dg, cfg);
    IncrementalCounter counter(ctx, dg, pipeline, cfg);

    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
      ctx.tracer().begin("batch");
      ctx.tracer().begin("adjudicate");
      const EffectiveBatch eff = applier.adjudicate(batches[bi]);
      ctx.tracer().end("adjudicate");
      DeltaSet deltas;
      std::uint64_t local_rows = 0;
      if (!eff.empty()) {  // replicated sets: all ranks agree on the skip
        // Destroyed triangles are only observable before the apply ...
        ctx.tracer().begin("count_del");
        counter.count_deletions(eff, deltas);
        // ... and no rank may swap rows while a peer still reads them.
        ctx.barrier();
        ctx.tracer().end("count_del");
        ctx.tracer().begin("apply");
        local_rows = applier.apply_to_rows(eff);  // refreshes both windows
        ctx.tracer().end("apply");
        // Created triangles are only observable after the apply.
        ctx.tracer().begin("count_ins");
        counter.count_insertions(eff, deltas);
        ctx.tracer().end("count_ins");
      }
      ctx.tracer().begin("route");
      const RoutedDeltas routed =
          eff.empty() ? RoutedDeltas{} : counter.route(deltas);
      ctx.tracer().end("route");
      for (const auto& [lv, d] : routed.local) {
        const auto cur = static_cast<std::int64_t>(tri[lv]);
        ATLC_DCHECK(cur + d >= 0, "stream: negative triangle count");
        tri[lv] = static_cast<std::uint64_t>(cur + d);
        lcc[lv] = graph::lcc_score(tri[lv], dg.local_degree(lv));
      }
      // Degrees of touched rows changed even where t(v) did not.
      for (const CanonicalUpdate& op : eff.ops) {
        for (const VertexId v : {op.a, op.b}) {
          if (partition.owner(v) != ctx.rank()) continue;
          const VertexId lv = partition.local_index(v);
          lcc[lv] = graph::lcc_score(tri[lv], dg.local_degree(lv));
        }
      }
      global_triangles = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(global_triangles) + routed.global_delta);
      const std::uint64_t rows_total =
          eff.empty() ? 0 : ctx.allreduce_sum(local_rows);
      ctx.barrier();  // commit point: batch done on every rank

      BatchOutcome& bo = out.batches[bi];
      if (ctx.rank() == 0) {
        bo.raw_updates = batches[bi].size();
        bo.effective_insertions = eff.insertions();
        bo.effective_deletions = eff.deletions();
        bo.rows_rebuilt = rows_total;
        bo.triangles_delta = routed.global_delta;
        bo.global_triangles = global_triangles;
        bo.makespan = ctx.now() - mark;
      }
      mark = ctx.now();  // barrier aligned all ranks to the same value
      if (options.record_snapshots) {
        for (VertexId lv = 0; lv < dg.num_local(); ++lv) {
          const VertexId v = partition.global_id(ctx.rank(), lv);
          bo.triangles[v] = tri[lv];
          bo.lcc[v] = lcc[lv];
        }
      }
      ctx.tracer().end("batch");
    }

    // Final scatter (disjoint slots per rank; no synchronisation needed).
    for (VertexId lv = 0; lv < dg.num_local(); ++lv) {
      const VertexId v = partition.global_id(ctx.rank(), lv);
      out.triangles[v] = tri[lv];
      out.lcc[v] = lcc[lv];
    }
    if (ctx.rank() == 0) {
      out.global_triangles = global_triangles;
      out.stream_makespan = mark - out.initial_makespan;
    }
  };
  static_cast<core::EdgeAnalyticStats&>(out) = core::run_edge_analytic(
      g, graph::make_partition(g, options.partition, ranks), cfg, options.net,
      body);
  return out;
}

}  // namespace atlc::stream
