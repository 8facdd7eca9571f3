// DODG scenario: degree-ordered orientation + tiered intersection kernels
// for global triangle counting (ROADMAP item 1, DESIGN.md §9).
//
// Three arms on the skewed R-MAT proxy and the uniform control:
//   paper        — undirected stream + upper-triangle floor trick, Paper
//                  tier hybrid dispatch (the engine's default TC path);
//   dodg         — graph::orient_dodg preprocessing, Paper tier: half
//                  the edge stream, no per-edge suffix trimming, every row
//                  capped at O(sqrt(m));
//   dodg+tiered  — the DODG stream served by the Tiered dispatch, which
//                  picks by list shape only (galloping on skewed pairs,
//                  the block merge on the rest) under the per-tier cost
//                  model.
//
// All metrics are deterministic virtual times under the default cost model
// and are gated. Every arm must report the same triangle count (shape
// check); the expected shape is dodg < paper on makespan for skewed inputs
// (smaller stream AND bounded rows), with dodg+tiered cutting compute
// further. Wall-clock proof of the raw kernel speedups lives in
// `micro_intersect --wall` (REPRODUCING.md).
#include <cstdio>
#include <string>

#include "atlc/graph/dodg.hpp"
#include "scenario.hpp"

namespace {

using namespace atlc;

void add_flags(util::Cli& cli) {
  cli.add_int("ranks", "simulated ranks", 16);
}

struct Arm {
  const char* tag;
  bool orient;
  intersect::Tier tier;
};

void run(bench::ScenarioContext& ctx) {
  const auto ranks = static_cast<std::uint32_t>(
      ctx.smoke ? 8 : ctx.cli.get_int("ranks"));

  constexpr Arm arms[] = {
      {"paper", false, intersect::Tier::Paper},
      {"dodg", true, intersect::Tier::Paper},
      {"dodg_tiered", true, intersect::Tier::Tiered},
  };

  bool counts_agree = true;
  double rmat_paper_makespan = 0.0, rmat_dodg_makespan = 0.0;

  for (const bool skewed : {true, false}) {
    const auto& g = ctx.graph(skewed ? "R-MAT-S21-EF16" : "Uniform");
    const char* gtag = skewed ? "rmat" : "uniform";
    std::printf("graph %s: %s, ranks=%u\n", gtag, bench::describe(g).c_str(),
                ranks);
    const auto oriented = graph::orient_dodg(g);
    std::printf("  dodg: |E|=%llu (undirected stream %llu), max out-deg %u\n",
                static_cast<unsigned long long>(oriented.num_edges()),
                static_cast<unsigned long long>(g.num_edges()),
                graph::degree_stats(oriented).max);

    util::Table t({"Arm", "makespan (s)", "edges", "remote frac",
                   "triangles"});
    std::uint64_t first_count = 0;
    for (const auto& arm : arms) {
      core::EngineConfig cfg;
      cfg.intersect_tier = arm.tier;
      cfg.cost = ctx.cost();

      const std::string metric =
          std::string("makespan/") + gtag + "/" + arm.tag;
      ctx.rec.declare_metric(metric, {.unit = "s"});
      core::RunResult r;
      for (std::size_t trial = 0; trial < std::max<std::size_t>(1, ctx.repeats);
           ++trial) {
        r = core::run_distributed_tc_result(
            g, ranks, cfg, {}, graph::PartitionKind::Block1D, arm.orient);
        util::Json detail = util::Json::object();
        detail["global_triangles"] = r.global_triangles;
        detail["edges_processed"] = r.edges_processed;
        detail["remote_edge_fraction"] = r.remote_edge_fraction();
        detail["comm"] = util::to_json(r.run.total());
        ctx.rec.add_trial(metric, r.run.makespan, std::move(detail));
      }

      // The stream-volume claim (DODG halves the enumerated edges) is a
      // deterministic count — gate it alongside the makespan.
      const std::string edges_metric =
          std::string("edges_processed/") + gtag + "/" + arm.tag;
      ctx.rec.declare_metric(edges_metric, {.unit = "edges"});
      ctx.rec.add_trial(edges_metric,
                        static_cast<double>(r.edges_processed));

      if (&arm == &arms[0])
        first_count = r.global_triangles;
      else if (r.global_triangles != first_count)
        counts_agree = false;
      if (skewed && !arm.orient) rmat_paper_makespan = r.run.makespan;
      if (skewed && arm.orient && arm.tier == intersect::Tier::Paper)
        rmat_dodg_makespan = r.run.makespan;

      t.add_row({arm.tag, util::Table::fmt(r.run.makespan, 4),
                 util::Table::fmt_int(r.edges_processed),
                 util::Table::fmt(r.remote_edge_fraction(), 3),
                 util::Table::fmt_int(r.global_triangles)});
    }
    const std::string title =
        std::string("TC paths (") + (skewed ? "skewed R-MAT" : "uniform") +
        ")";
    t.print(title.c_str());
    ctx.rec.add_table(title, t);
  }

  ctx.verdict("counts_agree",
              "every TC arm counts the same triangles on both graphs",
              counts_agree);
  ctx.verdict("dodg_faster",
              bench::strprintf("on R-MAT, dodg's makespan beats the paper "
                               "path's (%.4f vs %.4f s)",
                               rmat_dodg_makespan, rmat_paper_makespan),
              rmat_dodg_makespan < rmat_paper_makespan);
}

}  // namespace

ATLC_REGISTER_SCENARIO(dodg, "dodg", "DESIGN.md §9",
                       "degree-ordered orientation + tiered intersection "
                       "kernels vs the paper TC path",
                       add_flags, run)
