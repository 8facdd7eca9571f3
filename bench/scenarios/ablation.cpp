// Ablations for the design decisions called out in DESIGN.md §4:
//   D5: hybrid vs pure SSI vs pure binary inside the distributed engine;
//   D7: Block1D vs Cyclic1D partitioning (paper cites [26] as the
//       balance-improving alternative/future work; the Block1D row is
//       D5's hybrid run).
// D6 (double buffering vs no overlap) is the k=2 vs k=1 pair of the
// pipeline_depth scenario.
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

  // D5: intersection method inside the distributed engine. The hybrid arm
  // is the default configuration on Block1D, so it is D7's Block 1D row too.
  core::RunResult hybrid;
  {
    util::Table t({"Method", "makespan (s)"});
    for (auto m : {intersect::Method::Hybrid, intersect::Method::SSI,
                   intersect::Method::Binary}) {
      core::EngineConfig cfg;
      cfg.method = m;
      const auto r = ctx.run_lcc_trials(
          std::string("makespan/method/") + intersect::method_name(m), g,
          ranks, cfg);
      if (m == intersect::Method::Hybrid) hybrid = r;
      t.add_row({intersect::method_name(m),
                 util::Table::fmt(r.run.makespan, 4)});
    }
    t.print("D5: intersection method (distributed engine)");
    ctx.rec.add_table("D5: intersection method", t);
  }

  // D7: partitioning.
  {
    util::Table t({"Partitioning", "makespan (s)", "imbalance (max/mean)"});
    for (auto kind :
         {graph::PartitionKind::Block1D, graph::PartitionKind::Cyclic1D}) {
      const bool block = kind == graph::PartitionKind::Block1D;
      const core::RunResult r =
          block ? hybrid
                : ctx.run_lcc_trials("makespan/partition/cyclic1d", g, ranks,
                                     {}, kind);
      t.add_row({block ? "Block 1D (paper)" : "Cyclic 1D [26]",
                 util::Table::fmt(r.run.makespan, 4),
                 util::Table::fmt(r.imbalance(), 3)});
    }
    t.print("D7: 1D partitioning scheme");
    ctx.rec.add_table("D7: 1D partitioning scheme", t);
  }
}

}  // namespace

ATLC_REGISTER_SCENARIO(ablation, "ablation", "DESIGN.md §4",
                       "design-decision ablations (D5/D7)",
                       add_flags, run)
