// Paper Fig. 7: cache behaviour as a function of cache size, for each
// window in isolation (the other window's budget is zero, so it issues
// uncached reads). R-MAT graph on 2 nodes.
//
// Paper shape: C_adj's miss rate falls steeply (power-law) with size and
// gives most of the communication-time saving (51.6% alone); C_offsets'
// falls ~linearly and saves little; compulsory misses floor both.
//
// Measured here, adj_saves_most DEVIATES: C_offsets saves more than C_adj
// at the paper's double buffering (pipeline_depth 2). The cause is the
// overlap. Comm time counts exposed waits only (RankCtx::flush charges
// complete_at - now). The depth-2 pipeline hides C_adj misses under the
// previous item's intersection, so a C_adj hit saves little exposed time,
// while the offsets get is always waited on (the adjacency get needs its
// result), so a C_offsets hit saves the whole round trip. The
// adj_saves_most_without_overlap verdict repeats the full-size pair at
// pipeline_depth 1, against an uncached run at depth 1, where a C_adj miss
// is exposed too. Whether the paper's Fig. 7 counts exposed waits or all
// time spent inside MPI calls is not known here.
#include <cstdio>

#include "scenario.hpp"

namespace {

using namespace atlc;

struct SweepPoint {
  double fraction;
  std::uint64_t cache_bytes;
  double miss_rate;
  double compulsory_rate;
  double comm_seconds;  // mean over ranks
};

double mean_comm(const core::RunResult& r) {
  double total = 0;
  for (const auto& s : r.run.stats) total += s.comm_seconds;
  return total / static_cast<double>(r.run.stats.size());
}

void add_flags(util::Cli& cli) {
  cli.add_int("ranks", "number of simulated nodes", 2);
  cli.add_int("steps", "sweep points per cache (paper used 100)", 12);
}

void run(bench::ScenarioContext& ctx) {
  const auto ranks = static_cast<std::uint32_t>(ctx.cli.get_int("ranks"));
  const int steps =
      ctx.smoke ? 4 : static_cast<int>(ctx.cli.get_int("steps"));

  // Paper: R-MAT with 2^20 vertices, 2^24 edges. Proxy: 2^14 / 2^18.
  const bench::ProxySpec spec{"rmat-fig7", "", 14, 16,
                              graph::Directedness::Undirected, 7,
                              bench::ProxySpec::Kind::Rmat};
  const auto& g = ctx.graph(spec);
  std::printf("graph: %s, ranks=%u\n", bench::describe(g).c_str(), ranks);

  // Remote footprints per rank (what "relative cache size" is relative to).
  const std::uint64_t offsets_total =
      static_cast<std::uint64_t>(g.num_vertices()) * 2 * sizeof(std::uint64_t);
  const std::uint64_t adj_total = g.num_edges() * sizeof(graph::VertexId);

  // Baseline without any cache.
  const auto baseline = ctx.run_lcc_trials("makespan/uncached", g, ranks, {});
  const double comm_base = mean_comm(baseline);
  std::printf("non-cached communication time (mean/rank): %.3f s\n\n",
              comm_base);

  // One window cached with `bytes`: a zero budget leaves the other window
  // uncached.
  const auto one_window = [](bool adj, std::uint64_t bytes,
                             std::size_t depth) {
    core::EngineConfig cfg;
    cfg.use_cache = true;
    cfg.cache_sizing.offsets_bytes = adj ? 0 : bytes;
    cfg.cache_sizing.adj_bytes = adj ? bytes : 0;
    cfg.pipeline_depth = depth;
    return cfg;
  };
  const auto budget = [](double fraction, std::uint64_t footprint) {
    return std::max<std::uint64_t>(
        1024,
        static_cast<std::uint64_t>(fraction * static_cast<double>(footprint)));
  };
  const std::size_t depth = core::EngineConfig{}.pipeline_depth;

  double max_save[2] = {0, 0};  // C_offsets only, C_adj only
  for (const bool sweep_adj : {false, true}) {
    const char* window = sweep_adj ? "adj" : "offsets";
    const std::uint64_t footprint = sweep_adj ? adj_total : offsets_total;
    std::vector<SweepPoint> points;
    for (int s = 1; s <= steps; ++s) {
      const double fraction = static_cast<double>(s) / steps;
      const std::uint64_t bytes = budget(fraction, footprint);
      const core::EngineConfig cfg = one_window(sweep_adj, bytes, depth);
      const auto r = ctx.run_lcc_trials(
          bench::strprintf("makespan/%s/frac=%.2f", window, fraction), g,
          ranks, cfg);
      const auto& cs = sweep_adj ? r.adj_cache_total : r.offsets_cache_total;
      points.push_back(
          {fraction, bytes, cs.miss_rate(),
           cs.accesses() ? static_cast<double>(cs.compulsory_misses) /
                               static_cast<double>(cs.accesses())
                         : 0.0,
           mean_comm(r)});
    }

    util::Table table({"Relative size", "Cache bytes", "Miss rate",
                       "Compulsory (floor)", "Comm time (s)",
                       "vs non-cached"});
    for (const auto& p : points)
      table.add_row({util::Table::fmt(p.fraction, 2),
                     util::Table::fmt_bytes(p.cache_bytes),
                     util::Table::fmt_percent(p.miss_rate),
                     util::Table::fmt_percent(p.compulsory_rate),
                     util::Table::fmt(p.comm_seconds, 4),
                     util::Table::fmt_percent(p.comm_seconds / comm_base)});
    const std::string title =
        sweep_adj ? "Fig. 7 (right pair): adjacencies cache (C_adj) only"
                  : "Fig. 7 (left pair): offsets cache (C_offsets) only";
    table.print(title);
    ctx.rec.add_table(title, table);

    const double save = 1.0 - points.back().comm_seconds / comm_base;
    max_save[sweep_adj ? 1 : 0] = save;
    ctx.note(bench::strprintf("max comm-time saving with %s only: %.1f%% "
                              "(paper: C_adj alone saved 51.6%%)",
                              sweep_adj ? "C_adj" : "C_offsets", 100 * save));
  }

  ctx.verdict("adj_saves_most",
              bench::strprintf("C_adj alone saves more comm time than "
                               "C_offsets alone (C_offsets only %.1f%%, C_adj "
                               "only %.1f%%)",
                               100 * max_save[0], 100 * max_save[1]),
              max_save[1] > max_save[0]);

  // The same full-size pair without overlap: at pipeline_depth 1 every
  // adjacency get is waited on, as the offsets get always is.
  core::EngineConfig serial;
  serial.pipeline_depth = 1;
  const double comm_serial = mean_comm(
      ctx.run_lcc_trials("makespan/uncached/depth=1", g, ranks, serial));
  double serial_save[2] = {0, 0};
  for (const bool adj : {false, true}) {
    const auto r = ctx.run_lcc_trials(
        bench::strprintf("makespan/%s/frac=1.00/depth=1",
                         adj ? "adj" : "offsets"),
        g, ranks,
        one_window(adj, budget(1.0, adj ? adj_total : offsets_total), 1));
    serial_save[adj ? 1 : 0] = 1.0 - mean_comm(r) / comm_serial;
  }
  ctx.verdict("adj_saves_most_without_overlap",
              bench::strprintf("at pipeline_depth 1, C_adj alone saves more "
                               "comm time than C_offsets alone (C_offsets "
                               "only %.1f%%, C_adj only %.1f%%)",
                               100 * serial_save[0], 100 * serial_save[1]),
              serial_save[1] > serial_save[0]);
}

}  // namespace

ATLC_REGISTER_SCENARIO(fig7, "fig7", "Fig. 7",
                       "per-window cache-size sweep, 2 nodes", add_flags, run)
