// Pipeline-depth sweep: where does deeper prefetch overlap saturate?
//
// The core::EdgePipeline engine keeps k-1 adjacency transfers in flight
// under each intersection. Under the NIC-serialisation model (DESIGN.md
// §2), consecutive gets issued by one rank pipeline their latencies but
// serialise their byte times, so added depth hides latency only until the
// injection port is busy end-to-end. The paper's double buffering (Section
// III-A) is the k=2 point of this sweep and k=1 is no overlap: the uncached
// k=2 vs k=1 pair is design ablation D6 (DESIGN.md §4). Expect most of the
// win at k=2 and diminishing returns after — communication dominates
// computation at scale (Section IV-D2), so there is little compute left to
// hide deeper transfers under.
#include <cstdio>

#include "scenario.hpp"

namespace {

using namespace atlc;

void add_flags(util::Cli& cli) {
  cli.add_int("ranks", "simulated ranks", 16);
}

void run(bench::ScenarioContext& ctx) {
  const auto ranks = static_cast<std::uint32_t>(
      ctx.smoke ? 4 : ctx.cli.get_int("ranks"));

  const auto& g = ctx.graph("R-MAT-S21-EF16");
  std::printf("graph: %s, ranks=%u\n", bench::describe(g).c_str(), ranks);

  const std::size_t depths[] = {1, 2, 4, 8};
  for (const bool cached : {false, true}) {
    util::Table t({"Depth k", "makespan (s)", "vs k=1", "comm wait (s)"});
    double t_k1 = 0.0;
    double best = 0.0;
    std::size_t best_k = 1;
    for (const std::size_t k : depths) {
      core::EngineConfig cfg;
      cfg.pipeline_depth = k;
      if (cached) {
        cfg.use_cache = true;
        cfg.cache_sizing = core::CacheSizing::paper_default(
            g.num_vertices(), g.csr_bytes() / 2);
      }
      char metric[64];
      std::snprintf(metric, sizeof(metric), "makespan/depth%s/k%zu",
                    cached ? "_cached" : "", k);
      const auto r = ctx.run_lcc_trials(metric, g, ranks, cfg);
      if (k == 1) t_k1 = r.run.makespan;
      if (k == 1 || r.run.makespan < best) {
        best = r.run.makespan;
        best_k = k;
      }
      char kbuf[8];
      std::snprintf(kbuf, sizeof(kbuf), "%zu", k);
      t.add_row({kbuf, util::Table::fmt(r.run.makespan, 4),
                 util::Table::fmt(100.0 * (1.0 - r.run.makespan / t_k1), 1),
                 util::Table::fmt(r.run.total().comm_seconds, 3)});
    }
    const char* title = cached ? "pipeline depth (CLaMPI cache on)"
                               : "pipeline depth (uncached)";
    t.print(title);
    ctx.rec.add_table(title, t);
    char note[112];
    std::snprintf(note, sizeof(note),
                  "%s: overlap saturates at k=%zu (%.1f%% vs k=1; paper's "
                  "double buffering is the k=2 point)",
                  cached ? "cached" : "uncached", best_k,
                  100.0 * (1.0 - best / t_k1));
    ctx.rec.add_note(note);
  }
}

}  // namespace

ATLC_REGISTER_SCENARIO(pipeline_depth, "pipeline_depth", "DESIGN.md §6",
                       "EdgePipeline depth sweep k=1,2,4,8 (double buffering "
                       "is k=2)",
                       add_flags, run)
