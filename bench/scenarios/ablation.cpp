// Ablations for the design decisions called out in DESIGN.md §4:
//   D5: hybrid vs pure SSI vs pure binary inside the distributed engine;
//   D6: double buffering (pipeline depth 2) vs no overlap (depth 1) — the
//       paper notes comm dominance limits the benefit (Section IV-D2);
//   D7: Block1D vs Cyclic1D partitioning (paper cites [26] as the
//       balance-improving alternative/future work);
//   plus: CLaMPI adaptive hash resizing on vs off.
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

  // D5: intersection method inside the distributed engine.
  {
    util::Table t({"Method", "makespan (s)"});
    for (auto m : {intersect::Method::Hybrid, intersect::Method::SSI,
                   intersect::Method::Binary}) {
      core::EngineConfig cfg;
      cfg.method = m;
      const auto r = ctx.run_lcc_trials(
          std::string("makespan/method/") + intersect::method_name(m), g,
          ranks, cfg);
      t.add_row({intersect::method_name(m),
                 util::Table::fmt(r.run.makespan, 4)});
    }
    t.print("D5: intersection method (distributed engine)");
    ctx.rec.add_table("D5: intersection method", t);
  }

  // D6: double buffering.
  {
    util::Table t({"Pipeline", "makespan (s)"});
    core::EngineConfig on, off;  // on: the default depth 2
    off.pipeline_depth = 1;
    const double t_on =
        ctx.run_lcc_trials("makespan/overlap/on", g, ranks, on)
            .run.makespan;
    const double t_off =
        ctx.run_lcc_trials("makespan/overlap/off", g, ranks, off)
            .run.makespan;
    t.add_row({"double-buffered (overlap)", util::Table::fmt(t_on, 4)});
    t.add_row({"no overlap", util::Table::fmt(t_off, 4)});
    t.print("D6: double buffering");
    ctx.rec.add_table("D6: double buffering", t);
    std::printf("overlap saves %.1f%% — paper Section IV-D2 predicts a "
                "small gain because communication dominates.\n",
                100.0 * (1.0 - t_on / t_off));
    char note[96];
    std::snprintf(note, sizeof(note),
                  "D6: overlap saves %.1f%% (paper predicts a small gain)",
                  100.0 * (1.0 - t_on / t_off));
    ctx.rec.add_note(note);
  }

  // D7: partitioning.
  {
    util::Table t({"Partitioning", "makespan (s)", "imbalance (max/mean)"});
    for (auto kind :
         {graph::PartitionKind::Block1D, graph::PartitionKind::Cyclic1D}) {
      const bool block = kind == graph::PartitionKind::Block1D;
      const auto r = ctx.run_lcc_trials(
          std::string("makespan/partition/") + (block ? "block1d" : "cyclic1d"),
          g, ranks, {}, kind);
      t.add_row({block ? "Block 1D (paper)" : "Cyclic 1D [26]",
                 util::Table::fmt(r.run.makespan, 4),
                 util::Table::fmt(r.imbalance(), 3)});
    }
    t.print("D7: 1D partitioning scheme");
    ctx.rec.add_table("D7: 1D partitioning scheme", t);
  }

  // Adaptive cache resizing.
  {
    util::Table t({"Cache tuning", "makespan (s)"});
    for (bool adaptive : {false, true}) {
      core::EngineConfig cfg;
      cfg.use_cache = true;
      cfg.cache_adaptive = adaptive;
      // Deliberately undersized hash table: adaptivity has something to fix.
      cfg.cache_sizing = core::CacheSizing::paper_default(
          g.num_vertices(), g.csr_bytes() / 4);
      cfg.cache_sizing.adj_slots = 64;
      const auto r = ctx.run_lcc_trials(
          std::string("makespan/adaptive/") + (adaptive ? "on" : "off"), g,
          ranks, cfg);
      t.add_row({adaptive ? "adaptive resize (CLaMPI)" : "static hash table",
                 util::Table::fmt(r.run.makespan, 4)});
    }
    t.print("CLaMPI adaptive hash resizing (undersized initial table)");
    ctx.rec.add_table("CLaMPI adaptive hash resizing", t);
  }
}

}  // namespace

ATLC_REGISTER_SCENARIO(ablation, "ablation", "DESIGN.md §4",
                       "design-decision ablations (D5/D6/D7, adaptivity)",
                       add_flags, run)
