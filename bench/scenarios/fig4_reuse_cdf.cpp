// Paper Fig. 4: how the highest-degree vertices concentrate the remote
// reads issued under 1D partitioning with 8 processes. The paper highlights
// the share of remote reads targeting the top 10% of vertices: ~11.7% for a
// uniform graph vs 42-92% for power-law graphs.
#include <cstdio>

#include "atlc/graph/degree_stats.hpp"
#include "scenario.hpp"

namespace {

using namespace atlc;

void add_flags(util::Cli& cli) {
  cli.add_int("ranks", "number of simulated processes", 8);
}

void run(bench::ScenarioContext& ctx) {
  const auto ranks = static_cast<std::uint32_t>(ctx.cli.get_int("ranks"));

  std::vector<std::string> graphs = {"Uniform", "R-MAT-S21-EF16", "Orkut",
                                     "LiveJournal"};
  if (ctx.smoke) graphs = {"Uniform", "R-MAT-S21-EF16"};
  const double fractions[] = {0.001, 0.01, 0.05, 0.10, 0.25, 0.50, 1.0};

  util::Table table({"Graph", "top 0.1%", "top 1%", "top 5%", "top 10%",
                     "top 25%", "top 50%", "top 100%"});
  double uniform_top10 = 0, rmat_top10 = 0;
  for (const auto& name : graphs) {
    const auto& g = ctx.graph(name);
    core::EngineConfig cfg;
    cfg.track_remote_reads = true;
    const auto result =
        ctx.run_lcc_trials("makespan/" + name, g, ranks, cfg);

    std::vector<std::string> row = {name};
    for (double f : fractions) {
      const double share = graph::top_degree_share(g, result.remote_reads, f);
      row.push_back(util::Table::fmt_percent(share));
      if (f == 0.10 && name == "Uniform") uniform_top10 = share;
      if (f == 0.10 && name == "R-MAT-S21-EF16") rmat_top10 = share;
      ctx.rec.declare_metric("top_share/" + name, {.unit = "fraction"});
      if (f == 0.10) ctx.rec.add_trial("top_share/" + name, share);
    }
    table.add_row(std::move(row));
  }
  table.print(
      "Fig. 4: share of remote reads targeting the top-k% highest-degree "
      "vertices (1D partitioning)");
  ctx.rec.add_table("Fig. 4: remote-read share on top-k% degree vertices",
                    table);

  const bool holds = rmat_top10 > 3 * uniform_top10;
  std::printf(
      "\npaper shape check: uniform graph top-10%% share (~11.7%% in paper) "
      "= %.1f%%; R-MAT top-10%% share (~91.9%% in paper) = %.1f%% -> %s\n",
      100 * uniform_top10, 100 * rmat_top10, holds ? "HOLDS" : "VIOLATED");
  ctx.rec.add_note(std::string("shape check (R-MAT top-10% share > 3x "
                               "uniform): ") +
                   (holds ? "HOLDS" : "VIOLATED"));
}

}  // namespace

ATLC_REGISTER_SCENARIO(fig4, "fig4", "Fig. 4",
                       "remote-read concentration on hubs, 8 procs",
                       add_flags, run)
