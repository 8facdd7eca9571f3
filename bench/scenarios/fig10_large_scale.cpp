// Paper Fig. 10: large-scale strong scaling (128..512 nodes) of LCC
// non-cached vs cached vs TriC on R-MAT S30, uk-2005 and wiki-en proxies.
//
// Expected shape (paper): flatter speedups than Fig. 9 (1.4x-1.8x per 4x
// nodes, load-imbalance bound); caching still saves up to 73% on R-MAT S30
// with a cache of only ~12% of the graph's CSR size. The paper reports
// missing TriC points where runs exceeded the 9h wall-time — the S30 proxy
// TriC run is skipped here for the same (by-design) reason.
#include <cstdio>

#include "scenario.hpp"

namespace {

using namespace atlc;

void add_flags(util::Cli& cli) {
  cli.add_flag("skip-tric", "skip TriC baselines entirely", false);
  cli.add_flag("tric-on-s30",
               "run TriC on the R-MAT S30 proxy too (slow by design — the "
               "paper's own runs exceeded the 9h wall-time)", false);
}

void run(bench::ScenarioContext& ctx) {
  const bool skip_tric = ctx.cli.get_flag("skip-tric");
  const bool tric_on_s30 = ctx.cli.get_flag("tric-on-s30");

  std::vector<std::string> graphs = {"R-MAT-S30-EF16", "uk-2005", "wiki-en"};
  std::vector<std::uint32_t> nodes = {128, 256, 512};
  if (ctx.smoke) {
    graphs = {"R-MAT-S30-EF16"};
    nodes = {32, 64};
  }

  for (const auto& name : graphs) {
    const auto& g = ctx.graph(name);
    std::printf("\n### %s — %s\n", name.c_str(), bench::describe(g).c_str());

    // Paper note: the S30 result used a cache of only 12% of the CSR size;
    // the web graphs get the same generous budget rule as Fig. 9.
    const double budget_frac = (name == "R-MAT-S30-EF16") ? 0.12 : 0.5;

    util::Table table({"Nodes", "LCC non-cached (s)", "LCC cached (s)",
                       "TriC (s)", "cached vs plain", "remote edges",
                       "comm share"});
    double first_plain = 0, last_plain = 0;
    for (std::uint32_t p : nodes) {
      char metric[96];
      std::snprintf(metric, sizeof(metric), "makespan/plain/%s/p%u",
                    name.c_str(), p);
      const auto plain = ctx.run_lcc_trials(metric, g, p, {});

      core::EngineConfig cached_cfg;
      cached_cfg.use_cache = true;
      cached_cfg.victim_policy = clampi::VictimPolicy::UserScore;
      cached_cfg.cache_sizing = core::CacheSizing::paper_default(
          g.num_vertices(),
          static_cast<std::uint64_t>(budget_frac *
                                     static_cast<double>(g.csr_bytes())));
      std::snprintf(metric, sizeof(metric), "makespan/cached/%s/p%u",
                    name.c_str(), p);
      const auto cached = ctx.run_lcc_trials(metric, g, p, cached_cfg);

      std::string tric_s = "- (exceeds wall-time, as in paper)";
      if (!skip_tric && (name != "R-MAT-S30-EF16" || tric_on_s30)) {
        std::snprintf(metric, sizeof(metric), "makespan/tric/%s/p%u",
                      name.c_str(), p);
        tric_s = util::Table::fmt(
            ctx.run_tric_trials(metric, g, p, {}).run.makespan, 3);
      } else if (skip_tric) {
        tric_s = "-";
      }

      if (p == nodes.front()) first_plain = plain.run.makespan;
      last_plain = plain.run.makespan;
      table.add_row(
          {util::Table::fmt_int(p), util::Table::fmt(plain.run.makespan, 3),
           util::Table::fmt(cached.run.makespan, 3), tric_s,
           util::Table::fmt_percent(1.0 -
                                    cached.run.makespan / plain.run.makespan),
           util::Table::fmt_percent(plain.remote_edge_fraction()),
           util::Table::fmt_percent(bench::comm_share(plain.run))});
    }
    table.print("Fig. 10 strong scaling: " + name);
    ctx.rec.add_table("Fig. 10 strong scaling: " + name, table);
    std::printf("async speedup %u -> %u nodes: %.1fx (paper: 1.4x-1.8x, "
                "imbalance bound)\n",
                nodes.front(), nodes.back(), first_plain / last_plain);
  }

  ctx.rec.add_note(
      "scale-bound deviation: container proxies (max_deg ~ 6e3) are "
      "compulsory-miss bound at p >= 128 — the paper's own over-partitioned "
      "regime (LiveJournal at 64 nodes); use --scale-boost to approach the "
      "paper's regime");
  std::printf(
      "\npaper shape checks: flatter scaling than Fig. 9 (paper: "
      "1.4x-1.8x); TriC slower where it completes at all; communication "
      "dominates.\n"
      "Scale-bound deviation: per-rank data reuse is governed by "
      "max_degree/p. The paper's graphs keep hub degrees in the millions, "
      "so caching still saves up to 73%% at 512 nodes; the container-scale "
      "proxies (max_deg ~ 6e3) are compulsory-miss bound at p >= 128, which "
      "is the same over-partitioned regime the paper itself reports for "
      "LiveJournal at 64 nodes (and fig9 reproduces, crossover included). "
      "Use --scale-boost to push the proxies toward the paper's regime.\n");
}

}  // namespace

ATLC_REGISTER_SCENARIO(fig10, "fig10", "Fig. 10",
                       "strong scaling 128..512 nodes", add_flags, run)
