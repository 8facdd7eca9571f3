// Paper Figs. 9 and 10: strong scaling of LCC non-cached vs LCC cached vs
// TriC, plus the Section IV-D2 text metrics (remote-read fraction and
// communication share of total time). One sweep, two figure specs.
//
// Fig. 9 (4..64 nodes, six graphs, TriC and TriC-Buffered), expected shape:
//  - async LCC scales ~9-14x from 4 to 64 nodes on scale-free graphs;
//  - caching wins in the mid-range (up to 67% on R-MAT S21), loses when
//    over-partitioned (compulsory misses, e.g. LiveJournal at 64 nodes);
//  - TriC is 1-2 orders of magnitude slower on scale-free graphs;
//  - remote-read fraction grows toward ~98% and communication dominates.
//
// Fig. 10 (128..512 nodes, R-MAT S30, uk-2005 and wiki-en), expected shape:
// flatter speedups (1.4x-1.8x per 4x nodes, load-imbalance bound); caching
// still saves up to 73% on R-MAT S30 with a cache of only ~12% of the
// graph's CSR size, because the paper's hub degrees stay in the millions.
// The paper reports missing TriC points where runs exceeded the 9h
// wall-time; the S30 proxy's TriC run is skipped here for the same reason.
#include <cstdio>

#include "scenario.hpp"

namespace {

using namespace atlc;

struct StrongScaling {
  const char* figure;  ///< table title prefix
  std::vector<std::string> graphs, smoke_graphs;
  std::vector<std::uint32_t> nodes, smoke_nodes;
  /// Cache budget as a fraction of the graph's CSR bytes.
  double (*budget_frac)(const util::Cli&, const std::string& graph);
  /// Also run TriC with bounded per-peer buffers (TriC-Buffered).
  bool tric_buffered;
  /// A graph whose TriC runs only under --tric-on-s30 (nullptr: none).
  const char* slow_tric_graph;
  const char* paper_speedup;  ///< the paper's speedup range, per graph
  bool note_speedup;          ///< record each graph's speedup as a note
  const char* shape_checks;   ///< printed after the sweep
  const char* note;           ///< recorded after the sweep (nullptr: none)
};

const StrongScaling kFig9{
    "Fig. 9",
    {"R-MAT-S21-EF16", "R-MAT-S23-EF16", "Orkut", "LiveJournal", "Skitter",
     "LiveJournal1"},
    {"R-MAT-S21-EF16", "LiveJournal"},
    {4, 8, 16, 32, 64},
    {4, 8},
    [](const util::Cli& cli, const std::string&) {
      return cli.get_double("cache-budget-frac");
    },
    true,
    nullptr,
    "9.2x-14x at full scale",
    true,
    "paper shape checks: (1) async scales ~10x from 4 to 64 nodes; (2) "
    "caching helps mid-range, hurts when over-partitioned; (3) TriC is 1-2 "
    "orders of magnitude slower on scale-free graphs; (4) the remote-edge "
    "fraction and comm share climb with the node count (Section IV-D2: "
    "66%->98% and 78.9%->97.7%).",
    nullptr,
};

const StrongScaling kFig10{
    "Fig. 10",
    {"R-MAT-S30-EF16", "uk-2005", "wiki-en"},
    {"R-MAT-S30-EF16"},
    {128, 256, 512},
    {32, 64},
    // The paper's S30 run used a cache of only 12% of the CSR size; the web
    // graphs get Fig. 9's default budget.
    [](const util::Cli&, const std::string& graph) {
      return graph == "R-MAT-S30-EF16" ? 0.12 : 0.5;
    },
    false,
    "R-MAT-S30-EF16",
    "1.4x-1.8x, imbalance bound",
    false,
    "paper shape checks: flatter scaling than Fig. 9 (paper: 1.4x-1.8x); "
    "TriC slower where it completes at all; communication dominates.",
    "scale-bound deviation: container proxies (max_deg ~ 6e3) are "
    "compulsory-miss bound at p >= 128 — the paper's own over-partitioned "
    "regime (LiveJournal at 64 nodes); use --scale-boost to approach the "
    "paper's regime",
};

void run_sweep(bench::ScenarioContext& ctx, const StrongScaling& spec) {
  const bool skip_tric = ctx.cli.get_flag("skip-tric");
  const auto& graphs = ctx.smoke ? spec.smoke_graphs : spec.graphs;
  const auto& nodes = ctx.smoke ? spec.smoke_nodes : spec.nodes;

  for (const auto& name : graphs) {
    const auto& g = ctx.graph(name);
    std::printf("\n### %s — %s\n", name.c_str(), bench::describe(g).c_str());
    const double budget_frac = spec.budget_frac(ctx.cli, name);
    const bool tric_too_slow = spec.slow_tric_graph &&
                               name == spec.slow_tric_graph &&
                               !ctx.cli.get_flag("tric-on-s30");

    std::vector<std::string> header = {"Nodes", "LCC non-cached (s)",
                                       "LCC cached (s)", "TriC (s)"};
    if (spec.tric_buffered) header.push_back("TriC-Buffered (s)");
    header.insert(header.end(),
                  {"cached vs plain", "remote edges", "comm share"});
    util::Table table(header);
    double first_plain = 0, last_plain = 0;
    for (std::uint32_t p : nodes) {
      const auto metric = [&](const char* arm) {
        return bench::strprintf("makespan/%s/%s/p%u", arm, name.c_str(), p);
      };
      const auto plain = ctx.run_lcc_trials(metric("plain"), g, p, {});

      core::EngineConfig cached_cfg;
      cached_cfg.use_cache = true;
      cached_cfg.victim_policy = clampi::VictimPolicy::UserScore;
      cached_cfg.cache_sizing = core::CacheSizing::paper_default(
          g.num_vertices(),
          static_cast<std::uint64_t>(budget_frac *
                                     static_cast<double>(g.csr_bytes())));
      const auto cached =
          ctx.run_lcc_trials(metric("cached"), g, p, cached_cfg);

      std::vector<std::string> row = {
          util::Table::fmt_int(p), util::Table::fmt(plain.run.makespan, 3),
          util::Table::fmt(cached.run.makespan, 3)};
      if (skip_tric) {
        row.insert(row.end(), spec.tric_buffered ? 2 : 1, "-");
      } else if (tric_too_slow) {
        row.push_back("- (exceeds wall-time, as in paper)");
      } else {
        row.push_back(util::Table::fmt(
            ctx.run_tric_trials(metric("tric"), g, p, {}).run.makespan, 3));
        if (spec.tric_buffered) {
          // Paper: 16 MiB per-peer buffers at paper-scale graphs; scaled
          // proportionally to the proxy size so the buffered variant's
          // extra rounds actually trigger.
          tric::TricConfig tb;
          tb.buffer_entries = 64u << 10;
          row.push_back(util::Table::fmt(
              ctx.run_tric_trials(metric("tric_buf"), g, p, tb).run.makespan,
              3));
        }
      }
      row.insert(
          row.end(),
          {util::Table::fmt_percent(1.0 -
                                    cached.run.makespan / plain.run.makespan),
           util::Table::fmt_percent(plain.remote_edge_fraction()),
           util::Table::fmt_percent(bench::comm_share(plain.run))});
      table.add_row(std::move(row));

      if (p == nodes.front()) first_plain = plain.run.makespan;
      last_plain = plain.run.makespan;
    }
    const std::string title =
        std::string(spec.figure) + " strong scaling: " + name;
    table.print(title);
    ctx.rec.add_table(title, table);
    const std::string speedup = bench::strprintf(
        "%s: async speedup %u -> %u nodes = %.1fx (paper: %s)", name.c_str(),
        nodes.front(), nodes.back(), first_plain / last_plain,
        spec.paper_speedup);
    if (spec.note_speedup)
      ctx.note(speedup);
    else
      std::printf("%s\n", speedup.c_str());
  }

  std::printf("\n%s\n", spec.shape_checks);
  if (spec.note) ctx.note(spec.note);
}

void run_fig9(bench::ScenarioContext& ctx) { run_sweep(ctx, kFig9); }
void run_fig10(bench::ScenarioContext& ctx) { run_sweep(ctx, kFig10); }

void add_fig9_flags(util::Cli& cli) {
  cli.add_flag("skip-tric", "skip the TriC baselines (they dominate runtime "
               "by design — that is the paper's point)", false);
  cli.add_double("cache-budget-frac",
                 "cache budget as a fraction of the graph's CSR size "
                 "(paper: 16 GiB/node at paper-scale graphs)", 0.5);
}

void add_fig10_flags(util::Cli& cli) {
  cli.add_flag("skip-tric", "skip TriC baselines entirely", false);
  cli.add_flag("tric-on-s30",
               "run TriC on the R-MAT S30 proxy too (slow by design — the "
               "paper's own runs exceeded the 9h wall-time)", false);
}

}  // namespace

ATLC_REGISTER_SCENARIO(fig9, "fig9", "Fig. 9",
                       "strong scaling 4..64 nodes, all systems",
                       add_fig9_flags, run_fig9)
ATLC_REGISTER_SCENARIO(fig10, "fig10", "Fig. 10",
                       "strong scaling 128..512 nodes", add_fig10_flags,
                       run_fig10)
