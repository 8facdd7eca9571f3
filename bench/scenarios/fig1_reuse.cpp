// Paper Fig. 1 (right): LCC data reuse on a social-circles graph
// partitioned over two compute nodes — how many remote reads (RMA gets) are
// repeated y times. The heavy tail of repetitions is what makes RMA caching
// profitable (Section III-B).
#include <algorithm>
#include <cstdio>
#include <map>

#include "scenario.hpp"

namespace {

using namespace atlc;

void add_flags(util::Cli& cli) {
  cli.add_int("ranks", "number of simulated compute nodes", 2);
}

void run(bench::ScenarioContext& ctx) {
  const auto& g = ctx.graph_or_file("Facebook-circles");
  std::printf("graph: %s\n", bench::describe(g).c_str());

  core::EngineConfig cfg;
  cfg.track_remote_reads = true;
  const auto result = ctx.run_lcc_trials(
      "makespan/plain", g,
      static_cast<std::uint32_t>(ctx.cli.get_int("ranks")), cfg);

  // Bucket repetition counts like the paper's y-axis: 1, 4, 16, 64, 256.
  std::map<std::uint64_t, std::uint64_t> buckets;  // repetitions -> #targets
  std::uint64_t repeated_reads = 0, total_reads = 0, targets = 0;
  for (auto reps : result.remote_reads) {
    if (reps == 0) continue;
    ++targets;
    total_reads += reps;
    if (reps > 1) repeated_reads += reps - 1;
    std::uint64_t bucket = 1;
    while (bucket * 4 <= reps) bucket *= 4;
    ++buckets[bucket];
  }

  util::Table table({"Repetitions (>=)", "Number of repeated reads (RMA gets)"});
  for (const auto& [reps, count] : buckets)
    table.add_row({util::Table::fmt_int(reps), util::Table::fmt_int(count)});
  table.print("Fig. 1 (right): LCC data reuse");
  ctx.rec.add_table("Fig. 1 (right): LCC data reuse", table);

  const double avoidable =
      static_cast<double>(repeated_reads) /
      static_cast<double>(std::max<std::uint64_t>(1, total_reads));
  ctx.rec.declare_metric("avoidable_read_fraction", {.unit = "fraction"});
  ctx.rec.add_trial("avoidable_read_fraction", avoidable);

  std::printf(
      "\nremote reads: %llu, distinct targets: %llu, avoidable (repeat) "
      "reads: %llu (%.1f%% of all remote reads)\n",
      static_cast<unsigned long long>(total_reads),
      static_cast<unsigned long long>(targets),
      static_cast<unsigned long long>(repeated_reads), 100.0 * avoidable);
  ctx.rec.add_note(
      "paper shape check: most targets are read once, a heavy tail of hubs "
      "is read tens-to-hundreds of times");
  std::printf(
      "paper shape check: most targets are read once, a heavy tail of hubs "
      "is read tens-to-hundreds of times.\n");
}

}  // namespace

ATLC_REGISTER_SCENARIO(fig1, "fig1", "Fig. 1",
                       "remote-read reuse distribution, 2 nodes", add_flags,
                       run)
