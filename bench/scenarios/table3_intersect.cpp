// Paper Table III: edges processed per microsecond for the hybrid, SSI,
// and binary-search intersection methods on R-MAT and social-graph proxies,
// using OpenMP-parallel intersections (Section III-C).
//
// Expected shape (paper): hybrid >= SSI >= binary on every graph. Absolute
// edges/us differ from the paper's 16-core Xeon Gold; ordering should not.
// Wall-clock metrics: host-dependent, never gated.
#include <cstdio>

#include "scenario.hpp"

namespace {

using namespace atlc;

void add_flags(util::Cli& cli) {
  cli.add_int("threads", "OpenMP threads (paper uses 16)", 16);
}

void run(bench::ScenarioContext& ctx) {
  const int threads =
      ctx.smoke ? 2 : static_cast<int>(ctx.cli.get_int("threads"));
  // Smoke runs take the recorder's default stopping rule: with fewer
  // samples a single noisy repetition can flip the verdict below.
  const util::Recorder::Options reps =
      ctx.smoke ? util::Recorder::Options{}
                : util::Recorder::Options{.min_reps = 2, .max_reps = 5,
                                          .ci_fraction = 0.15};

  // Paper Table III graphs: R-MAT S20 EF8/16/32 + LiveJournal + Orkut.
  // EF sweep shows the density effect; proxies stand in for the SNAP sets.
  struct Row {
    const char* label;
    bench::ProxySpec spec;
  };
  std::vector<Row> rows = {
      {"R-MAT S20 EF8",
       {"rmat-ef8", "", 12, 8, graph::Directedness::Undirected, 20,
        bench::ProxySpec::Kind::Rmat}},
      {"R-MAT S20 EF16",
       {"rmat-ef16", "", 12, 16, graph::Directedness::Undirected, 20,
        bench::ProxySpec::Kind::Rmat}},
      {"R-MAT S20 EF32",
       {"rmat-ef32", "", 12, 32, graph::Directedness::Undirected, 20,
        bench::ProxySpec::Kind::Rmat}},
      {"LiveJournal", bench::find_proxy("LiveJournal")},
      {"Orkut", bench::find_proxy("Orkut")},
  };
  if (ctx.smoke) rows.resize(2);

  std::printf("threads: %d (host has %d cores — above that the sweep "
              "oversubscribes)\n",
              threads, bench::num_procs());

  util::Table table(
      {"Name", "Hybrid", "SSI", "Binary search", "hybrid competitive?"});
  bool shape_holds = true;
  for (const auto& row : rows) {
    const auto& g = ctx.graph(row.spec);
    const auto measure = [&](intersect::Method m) {
      return bench::edges_per_us(g, m, threads, reps);
    };
    const double hybrid = measure(intersect::Method::Hybrid);
    const double ssi = measure(intersect::Method::SSI);
    const double binary = measure(intersect::Method::Binary);
    for (const auto& [label, perf] :
         {std::pair<const char*, double>{"hybrid", hybrid},
          {"ssi", ssi},
          {"binary", binary}}) {
      const std::string metric =
          std::string("edges_per_us/") + row.label + "/" + label;
      ctx.rec.declare_metric(metric, {.unit = "edges/us", .wall = true});
      ctx.rec.add_trial(metric, perf);
    }
    // Robust part of the paper's claim: hybrid clearly beats pure binary
    // search and stays within a whisker of the best method. Whether hybrid
    // edges out SSI by the paper's <=8% is hardware-sensitive (the Eq. 3
    // constant assumes the paper's cache hierarchy). 0.80 threshold:
    // run-to-run wall-clock noise on a small host reaches ~15% for the
    // denser graphs; the robust claim is hybrid >> binary.
    const bool ok = hybrid > binary && hybrid >= 0.80 * std::max(ssi, binary);
    shape_holds &= ok;
    table.add_row({row.label, util::Table::fmt(hybrid, 3),
                   util::Table::fmt(ssi, 3), util::Table::fmt(binary, 3),
                   ok ? "yes" : "NO"});
  }
  table.print("Table III: edges processed per microsecond");
  ctx.rec.add_table("Table III: intersection methods, edges/us", table);
  // The paper reports hybrid strictly best by <=8% on a 16-core Xeon Gold;
  // the Eq. 3 crossover constant is cache-hierarchy dependent.
  ctx.verdict("hybrid_competitive",
              "hybrid > binary everywhere and within 20% of the best method",
              shape_holds, /*wall=*/true);
}

}  // namespace

ATLC_REGISTER_SCENARIO(table3, "table3", "Table III",
                       "intersection methods, edges/us", add_flags, run)
