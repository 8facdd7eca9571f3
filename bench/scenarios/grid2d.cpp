// Grid2D scenario: strong-scaling crossover of the partition strategies
// (DESIGN.md §10, docs/partitioning.md).
//
// Sweeps ranks 8..64 on the skewed R-MAT proxy with the paper's CLaMPI
// cache enabled, comparing block1d (the paper default), degree1d + 1% hub
// replication (the PR-5 skew toolkit), and grid2d (2D edge blocks with
// segment-granular fetching). Expectation: at low rank counts the 1D
// strategies win — grid2d pays one segment fetch per (edge, block) item,
// pc per edge where a 1D arm pays one whole row (plus one v-side fetch per
// (row, block), DESIGN.md §10), and its per-item payloads are smaller, so
// fixed get latency dominates.
// As p grows, 1D remote rows are fetched whole by every consumer while
// grid2d moves only the O(row/√p)-sized slices a rank actually intersects,
// and the pc-way column split caps any one rank's share of a hub row — so
// grid2d's imbalance stays flat and its byte volume is a fraction of the 1D
// arms' while their straggler gap widens. The note reports whether the
// makespan curves cross in the swept range (at proxy scales the fixed
// per-get latency usually keeps the 1D arms ahead on makespan; the 2D win
// is the balance/bytes trend, see docs/partitioning.md).
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "scenario.hpp"

namespace {

using namespace atlc;

void add_flags(util::Cli& cli) {
  cli.add_int("max-ranks", "largest simulated rank count in the sweep", 64);
}

struct Arm {
  const char* label;
  graph::PartitionKind kind;
  double hub_fraction;
};

void run(bench::ScenarioContext& ctx) {
  // Smoke keeps the 8/16 pair: one square grid (4x4) and one rectangular
  // (2x4), so both Grid2D shapes stay covered by the gated baseline while
  // the 32/64-rank points remain full-run-only.
  const std::vector<std::uint32_t> rank_counts =
      ctx.smoke ? std::vector<std::uint32_t>{8, 16}
                : [&] {
                    std::vector<std::uint32_t> r;
                    const auto max_ranks = static_cast<std::uint32_t>(
                        ctx.cli.get_int("max-ranks"));
                    for (std::uint32_t p = 8; p <= max_ranks; p *= 2)
                      r.push_back(p);
                    return r;
                  }();

  const Arm arms[] = {
      {"block1d", graph::PartitionKind::Block1D, 0.0},
      {"degree1d+hubs", graph::PartitionKind::DegreeBalanced1D, 0.01},
      {"grid2d", graph::PartitionKind::Grid2D, 0.0},
  };

  const auto& g = ctx.graph("R-MAT-S21-EF16");
  std::printf("graph rmat: %s\n", bench::describe(g).c_str());

  // makespan[arm][rank point], for the crossover scan below.
  std::vector<std::vector<double>> makespans(std::size(arms));

  util::Table t({"Partition", "ranks", "makespan (s)", "imbalance (max/mean)",
                 "remote gets", "segment gets", "remote MiB", "adj hit %"});
  for (std::size_t a = 0; a < std::size(arms); ++a) {
    const Arm& arm = arms[a];
    for (const std::uint32_t ranks : rank_counts) {
      core::EngineConfig cfg;
      cfg.use_cache = true;
      cfg.cache_sizing = core::CacheSizing::paper_default(g.num_vertices(),
                                                          g.csr_bytes() / 2);
      cfg.hub_fraction = arm.hub_fraction;

      const std::string metric = std::string("makespan/rmat/") + arm.label +
                                 "/r" + std::to_string(ranks);
      const auto r =
          ctx.run_lcc_trials(metric, g, ranks, cfg, arm.kind);

      const auto total = r.run.total();
      makespans[a].push_back(r.run.makespan);
      t.add_row({arm.label, std::to_string(ranks),
                 util::Table::fmt(r.run.makespan, 4),
                 util::Table::fmt(r.imbalance(), 3),
                 util::Table::fmt(static_cast<double>(total.remote_gets), 0),
                 util::Table::fmt(static_cast<double>(total.segment_gets), 0),
                 util::Table::fmt(static_cast<double>(total.remote_bytes) /
                                      (1024.0 * 1024.0),
                                  2),
                 util::Table::fmt(100.0 * r.adj_cache_total.hit_rate(), 1)});
    }
  }
  t.print("strong scaling: block1d vs degree1d+hubs vs grid2d (skewed R-MAT)");
  ctx.rec.add_table("grid2d strong-scaling crossover", t);

  // Crossover: the first rank count where grid2d beats the stronger 1D arm.
  const auto& grid = makespans[2];
  std::uint32_t crossover = 0;
  for (std::size_t i = 0; i < rank_counts.size(); ++i) {
    const double best_1d = std::min(makespans[0][i], makespans[1][i]);
    if (grid[i] < best_1d) {
      crossover = rank_counts[i];
      break;
    }
  }
  ctx.verdict("crossover",
              bench::strprintf("grid2d beats the best 1D arm on makespan at "
                               "some rank count up to %u",
                               rank_counts.back()),
              crossover != 0);
  ctx.note(crossover != 0
               ? bench::strprintf("crossover: grid2d first beats the best 1D "
                                  "arm at %u ranks",
                                  crossover)
               : std::string("crossover: none — fixed per-get latency "
                             "dominates grid2d's per-block fetch count at "
                             "this proxy scale; grid2d still wins imbalance "
                             "growth and bytes moved"));
}

}  // namespace

ATLC_REGISTER_SCENARIO(grid2d, "grid2d", "DESIGN.md §10",
                       "2D grid partitioning strong-scaling crossover: "
                       "block1d vs degree1d+hubs vs grid2d on skewed R-MAT",
                       add_flags, run)
