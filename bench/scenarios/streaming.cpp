// Streaming scenario: incremental TC/LCC maintenance vs full recount.
//
// A dynamic-graph service sees batches of edge insertions/deletions; the
// strawman reprocesses the whole graph per batch, the atlc::stream engine
// intersects only the update edges through the (epoch-checked) cached
// pipeline. This scenario sweeps batch size x cache on/off and reports
// the virtual-clock makespan of both strategies plus the epoch-
// invalidation traffic (stale evictions) that dynamic graphs introduce —
// the cost of relaxing the paper's always-cache assumption (DESIGN.md §7).
// Expect incremental to win by orders of magnitude at small batches and
// the gap to narrow as the batch approaches the edge count.
#include <cstdio>

#include "atlc/stream/stream_engine.hpp"
#include "scenario.hpp"

namespace {

using namespace atlc;

void add_flags(util::Cli& cli) {
  cli.add_int("ranks", "simulated ranks", 8);
  cli.add_int("stream-batches", "update batches per configuration", 4);
}

graph::EdgeList edge_list_of(const graph::CSRGraph& g) {
  graph::EdgeList e(g.num_vertices(), {}, graph::Directedness::Undirected);
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u)
    for (graph::VertexId v : g.neighbors(u)) e.add_edge(u, v);
  return e;
}

void run(bench::ScenarioContext& ctx) {
  const auto ranks = static_cast<std::uint32_t>(
      ctx.smoke ? 4 : ctx.cli.get_int("ranks"));
  const auto num_batches = static_cast<std::size_t>(
      ctx.smoke ? 3 : ctx.cli.get_int("stream-batches"));

  const auto& g = ctx.graph("R-MAT-S21-EF16");
  std::printf("graph: %s, ranks=%u, %zu batches per config\n",
              bench::describe(g).c_str(), ranks, num_batches);

  const std::vector<std::size_t> sizes =
      ctx.smoke ? std::vector<std::size_t>{16, 64}
                : std::vector<std::size_t>{64, 512, 4096};

  for (const bool cached : {false, true}) {
    util::Table t({"Batch size", "incremental (s)", "recount (s)", "speedup",
                   "stale evict", "adj hit %"});
    for (const std::size_t bs : sizes) {
      core::EngineConfig cfg;
      cfg.cost = ctx.cost();
      if (cached) {
        cfg.use_cache = true;
        cfg.cache_sizing = core::CacheSizing::paper_default(
            g.num_vertices(), g.csr_bytes() / 2);
      }

      stream::WorkloadConfig wl;
      wl.num_batches = num_batches;
      wl.batch_size = bs;
      wl.seed = 1 + ctx.seed;
      const auto batches = stream::generate_batches(g, wl);

      char metric[64];
      std::snprintf(metric, sizeof(metric), "makespan/stream%s/bs%zu",
                    cached ? "_cached" : "", bs);
      ctx.rec.declare_metric(metric, {.unit = "s"});
      char rmetric[64];
      std::snprintf(rmetric, sizeof(rmetric), "makespan/recount%s/bs%zu",
                    cached ? "_cached" : "", bs);
      ctx.rec.declare_metric(rmetric, {.unit = "s"});

      stream::StreamResult last;
      double recount_total = 0.0;
      for (std::size_t trial = 0; trial < std::max<std::size_t>(1, ctx.repeats);
           ++trial) {
        // Incremental arm: one cold count (not part of the per-batch
        // metric; a recount strawman pays it identically), then the
        // batches through the streaming engine.
        stream::StreamOptions sopts;
        sopts.engine = cfg;
        auto r = stream::run_streaming_lcc(g, batches, ranks, sopts);

        util::Json detail = util::Json::object();
        detail["initial_makespan"] = r.initial_makespan;
        detail["global_triangles"] = r.global_triangles;
        detail["comm"] = util::to_json(r.run.total());
        if (cached) {
          detail["offsets_cache"] = util::to_json(r.offsets_cache_total);
          detail["adj_cache"] = util::to_json(r.adj_cache_total);
        }
        ctx.rec.add_trial(metric, r.stream_makespan, std::move(detail));

        // Recount arm: the strawman recomputes LCC from scratch on the
        // evolved graph after every batch.
        recount_total = 0.0;
        graph::EdgeList evolved = edge_list_of(g);
        for (const stream::Batch& batch : batches) {
          stream::apply_to_edge_list(evolved, batch);
          const auto snap = graph::CSRGraph::from_edges(evolved);
          recount_total +=
              core::run_distributed_lcc(snap, ranks, cfg).run.makespan;
        }
        ctx.rec.add_trial(rmetric, recount_total);
        last = std::move(r);
      }

      char bsbuf[16];
      std::snprintf(bsbuf, sizeof(bsbuf), "%zu", bs);
      t.add_row({bsbuf, util::Table::fmt(last.stream_makespan, 5),
                 util::Table::fmt(recount_total, 5),
                 util::Table::fmt(recount_total / last.stream_makespan, 1),
                 util::Table::fmt(static_cast<double>(
                                      last.adj_cache_total.stale_evictions +
                                      last.offsets_cache_total.stale_evictions),
                                  0),
                 util::Table::fmt(100.0 * last.adj_cache_total.hit_rate(), 1)});
    }
    const char* title = cached ? "streaming vs recount (CLaMPI cache on)"
                               : "streaming vs recount (uncached)";
    t.print(title);
    ctx.rec.add_table(title, t);
  }
  ctx.rec.add_note(
      "incremental maintenance intersects only the update edges through the "
      "cached pipeline; every mutating batch bumps the window epochs, so "
      "cached runs show stale_evictions instead of coherence violations");
}

}  // namespace

ATLC_REGISTER_SCENARIO(streaming, "streaming", "DESIGN.md §7",
                       "dynamic-graph batches: incremental TC/LCC vs full "
                       "recount, batch size x cache sweep",
                       add_flags, run)
