// Serve scenario: the resident query layer under a Zipf-skewed point-query
// stream interleaved with update batches (DESIGN.md §13).
//
// A "millions of users" service answers lcc(v) / top-k recommendation
// queries against a graph that keeps changing underneath it. This scenario
// sweeps query traffic skew x HotVertexCache budget x update rate and
// reports the virtual p50/p99 query latency plus the hit/stale/eviction
// accounting of the answer cache — the serving-layer analogue of the
// CLaMPI window sweeps in fig7. All metrics are virtual-time deterministic
// and gated. Expect the cache to pay off only when traffic is skewed
// (uniform traffic thrashes it) and the payoff to shrink as the update
// rate grows (every batch invalidates the touched neighborhoods).
#include <cstdio>
#include <vector>

#include "atlc/serve/query_engine.hpp"
#include "atlc/serve/workload.hpp"
#include "scenario.hpp"

namespace {

using namespace atlc;

void add_flags(util::Cli& cli) {
  cli.add_int("ranks", "simulated ranks", 8);
  cli.add_int("serve-epochs", "serving epochs per configuration", 6);
  cli.add_int("serve-queries", "point queries per epoch", 1024);
}

void run(bench::ScenarioContext& ctx) {
  const auto ranks = static_cast<std::uint32_t>(
      ctx.smoke ? 4 : ctx.cli.get_int("ranks"));
  const auto num_epochs = static_cast<std::size_t>(
      ctx.smoke ? 3 : ctx.cli.get_int("serve-epochs"));
  const auto queries_per_epoch = static_cast<std::size_t>(
      ctx.smoke ? 256 : ctx.cli.get_int("serve-queries"));

  const auto& g = ctx.graph("R-MAT-S21-EF16");
  std::printf("graph: %s, ranks=%u, %zu epochs x %zu queries\n",
              bench::describe(g).c_str(), ranks, num_epochs,
              queries_per_epoch);

  const std::vector<double> skews =
      ctx.smoke ? std::vector<double>{0.0, 1.2}
                : std::vector<double>{0.0, 0.8, 1.2};
  const std::vector<std::size_t> budgets =
      ctx.smoke ? std::vector<std::size_t>{0, 512}
                : std::vector<std::size_t>{0, 1024, 8192};
  const std::vector<std::size_t> batch_sizes =
      ctx.smoke ? std::vector<std::size_t>{0, 32}
                : std::vector<std::size_t>{0, 256};

  for (const double skew : skews) {
    util::Table t({"hot entries", "batch size", "p50 (s)", "p99 (s)",
                   "hit %", "stale", "evict", "update (s)"});
    for (const std::size_t bs : batch_sizes) {
      // One query/update stream per (skew, batch size): every cache budget
      // serves the exact same virtual traffic, so the sweep isolates the
      // HotVertexCache effect.
      serve::QueryWorkloadConfig wc;
      wc.num_epochs = num_epochs;
      wc.queries_per_epoch = queries_per_epoch;
      wc.zipf_skew = skew;
      wc.batch_size = bs;
      wc.seed = 1 + ctx.seed;
      const auto epochs = serve::generate_query_stream(g, wc);

      for (const std::size_t budget : budgets) {
        serve::ServeOptions opts;
        opts.engine.cost = ctx.cost();
        opts.admission_capacity = queries_per_epoch;  // no rejections here
        opts.hot_cache.entries = budget;

        char cell[64];
        std::snprintf(cell, sizeof(cell), "z%.1f/hot%zu/bs%zu", skew, budget,
                      bs);
        char p50m[96], p99m[96], hitm[96];
        std::snprintf(p50m, sizeof(p50m), "latency_p50/%s", cell);
        std::snprintf(p99m, sizeof(p99m), "latency_p99/%s", cell);
        std::snprintf(hitm, sizeof(hitm), "hot_hits/%s", cell);
        ctx.rec.declare_metric(p50m, {.unit = "s"});
        ctx.rec.declare_metric(p99m, {.unit = "s"});
        ctx.rec.declare_metric(hitm, {.unit = "count"});

        serve::ServeResult last;
        for (std::size_t trial = 0;
             trial < std::max<std::size_t>(1, ctx.repeats); ++trial) {
          auto r = serve::QueryEngine(g, opts).run(epochs, ranks);

          util::Json detail = util::Json::object();
          detail["serve_makespan"] = r.serve_makespan;
          detail["answered"] = r.stats.answered;
          detail["edges_processed"] = r.stats.edges_processed;
          detail["remote_edges"] = r.stats.remote_edges;
          detail["comm"] = util::to_json(r.stats.run.total());
          detail["hot_cache"] = util::to_json(r.hot_cache_total);
          ctx.rec.add_trial(p50m, r.stats.latency_percentile(50),
                            std::move(detail));
          ctx.rec.add_trial(p99m, r.stats.latency_percentile(99));
          ctx.rec.add_trial(
              hitm, static_cast<double>(r.hot_cache_total.hits));
          last = std::move(r);
        }

        double update_makespan = 0.0;
        for (const serve::EpochOutcome& e : last.epochs)
          update_makespan += e.update_makespan;
        t.add_row({util::Table::fmt_int(budget), util::Table::fmt_int(bs),
                   util::Table::fmt(last.stats.latency_percentile(50), 5),
                   util::Table::fmt(last.stats.latency_percentile(99), 5),
                   util::Table::fmt(100.0 * last.hot_cache_total.hit_rate(),
                                    1),
                   util::Table::fmt_int(last.hot_cache_total.stale_misses),
                   util::Table::fmt_int(last.hot_cache_total.evictions),
                   util::Table::fmt(update_makespan, 5)});
      }
    }
    char title[96];
    std::snprintf(title, sizeof(title),
                  "query serving, Zipf skew %.1f (ranks=%u)", skew, ranks);
    t.print(title);
    ctx.rec.add_table(title, t);
  }
  ctx.rec.add_note(
      "HotVertexCache memoizes finished answers keyed (vertex, kind); "
      "every update batch invalidates the touched "
      "neighborhoods (stale misses), so the hit rate tracks traffic skew, "
      "cache budget, and update rate together");
}

}  // namespace

ATLC_REGISTER_SCENARIO(serve, "serve", "DESIGN.md §13",
                       "resident query serving: Zipf traffic x "
                       "HotVertexCache budget x update rate, virtual "
                       "p50/p99 latency + hit rates",
                       add_flags, run)
