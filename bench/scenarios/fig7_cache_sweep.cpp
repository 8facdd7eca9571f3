// Paper Fig. 7: cache behaviour as a function of cache size, for each
// window in isolation (caching enabled only on C_offsets or only on C_adj,
// the other window issuing uncached reads). R-MAT graph on 2 nodes.
//
// Expected shape (paper):
//  - C_adj: miss rate falls steeply (power-law) with size; most of the
//    communication time reduction comes from this cache (51.6% in paper).
//  - C_offsets: miss rate falls ~linearly with size; small time savings.
//  - Both floored by compulsory misses (grey area in the paper's plot).
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

  for (const bool sweep_adj : {false, true}) {
    const char* window = sweep_adj ? "adj" : "offsets";
    const std::uint64_t footprint = sweep_adj ? adj_total : offsets_total;
    std::vector<SweepPoint> points;
    for (int s = 1; s <= steps; ++s) {
      const double fraction = static_cast<double>(s) / steps;
      core::EngineConfig cfg;
      cfg.use_cache = true;
      cfg.cache_offsets = !sweep_adj;
      cfg.cache_adj = sweep_adj;
      const auto bytes = std::max<std::uint64_t>(
          1024, static_cast<std::uint64_t>(fraction *
                                           static_cast<double>(footprint)));
      cfg.cache_sizing.offsets_bytes = bytes;
      cfg.cache_sizing.adj_bytes = bytes;
      char metric[64];
      std::snprintf(metric, sizeof(metric), "makespan/%s/frac=%.2f", window,
                    fraction);
      const auto r = ctx.run_lcc_trials(metric, g, ranks, cfg);
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
    std::printf("\nmax communication-time saving with %s only: %.1f%% "
                "(paper: C_adj alone saved 51.6%%)\n\n",
                sweep_adj ? "C_adj" : "C_offsets", 100 * save);
    char note[128];
    std::snprintf(note, sizeof(note),
                  "max comm-time saving with %s only: %.1f%% (paper: C_adj "
                  "alone saved 51.6%%)",
                  sweep_adj ? "C_adj" : "C_offsets", 100 * save);
    ctx.rec.add_note(note);
  }

  std::printf(
      "paper shape check: C_adj miss rate falls steeply and saves most of "
      "the time; C_offsets falls ~linearly and saves little; compulsory "
      "misses floor both curves.\n");
}

}  // namespace

ATLC_REGISTER_SCENARIO(fig7, "fig7", "Fig. 7",
                       "per-window cache-size sweep, 2 nodes", add_flags, run)
