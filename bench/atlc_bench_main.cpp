// atlc_bench — the unified experiment harness.
//
//   atlc_bench --list
//   atlc_bench --scenario fig7 --ranks 2 --steps 12 --json out.json
//   atlc_bench --all --smoke --json-dir bench-json
//
// One self-registering Scenario per paper figure/table (bench/scenarios/).
// Every run can emit a structured JSON document (schema: DESIGN.md §5)
// that tools/bench_compare gates on; REPRODUCING.md maps each paper
// anchor to its copy-pasteable invocation.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "atlc/util/table.hpp"
#include "scenario.hpp"

namespace {

using namespace atlc;

void add_harness_flags(util::Cli& cli) {
  cli.add_string("scenario", "scenario to run (see --list)", "");
  cli.add_flag("list", "list registered scenarios and exit", false);
  cli.add_flag("all", "run every registered scenario", false);
  cli.add_flag("smoke",
               "CI-sized run: shrink proxies by 3 R-MAT scale steps and "
               "clip every sweep to a few points",
               false);
  cli.add_int("seed",
              "offset applied to every proxy generator seed; same seed => "
              "bit-identical virtual-time results",
              0);
  cli.add_int("repeats",
              "trials per measurement; JSON records every trial and the "
              "median",
              1);
  cli.add_flag("calibrate",
               "calibrate the intersection cost model on this host instead "
               "of the paper-calibrated constants (more faithful locally, "
               "but virtual times stop being bit-deterministic)",
               false);
  cli.add_flag("phase-breakdown",
               "trace every engine trial (atlc::obs) and attach a per-phase "
               "virtual-time breakdown block to each trial record",
               false);
  cli.add_string("json", "write the scenario's JSON document to this path",
                 "");
  cli.add_string("json-dir",
                 "write BENCH_<scenario>.json into this directory "
                 "(useful with --all)",
                 "");
  bench::add_common_flags(cli);
}

void list_scenarios() {
  util::Table table({"Scenario", "Paper anchor", "Summary"});
  for (const auto& s : bench::scenarios())
    table.add_row({s.name, s.anchor, s.summary});
  table.print("atlc_bench: registered scenarios");
  std::printf(
      "\nrun one:  atlc_bench --scenario <name> [--smoke] [--json out.json]\n"
      "run all:  atlc_bench --all --smoke --json-dir <dir>\n"
      "details:  atlc_bench --scenario <name> --help   (scenario flags)\n"
      "mapping:  see REPRODUCING.md for the paper figure/table commands\n");
}

/// Run one scenario with a Cli built from harness + scenario flags.
int run_scenario(const bench::Scenario& s, int argc, char** argv) {
  util::Cli cli("atlc_bench", s.anchor + " — " + s.summary);
  add_harness_flags(cli);
  if (s.add_flags) s.add_flags(cli);
  if (!cli.parse(argc, argv)) return 1;

  util::BenchRecorder rec(s.name, s.anchor, s.summary);
  util::Json argv_json = util::Json::array();
  for (int i = 1; i < argc; ++i) argv_json.push_back(std::string(argv[i]));
  rec.meta()["argv"] = std::move(argv_json);
  rec.meta()["seed"] = cli.get_int("seed");
  rec.meta()["repeats"] = cli.get_int("repeats");
  rec.meta()["smoke"] = cli.get_flag("smoke");
  rec.meta()["calibrated_cost"] = cli.get_flag("calibrate");
  rec.meta()["scale_boost"] = cli.get_int("scale-boost");

  bench::ScenarioContext ctx{
      .cli = cli,
      .rec = rec,
      .smoke = cli.get_flag("smoke"),
      .seed = static_cast<std::uint64_t>(cli.get_int("seed")),
      .repeats = static_cast<std::size_t>(
          std::max<std::int64_t>(1, cli.get_int("repeats"))),
      .calibrate = cli.get_flag("calibrate"),
      .phase_breakdown = cli.get_flag("phase-breakdown"),
  };

  std::printf("=== %s (%s): %s%s ===\n", s.name.c_str(), s.anchor.c_str(),
              s.summary.c_str(), ctx.smoke ? " [smoke]" : "");
  try {
    s.run(ctx);
  } catch (const std::exception& e) {
    // A refused input (e.g. --graph-file naming a snapshot) ends the run.
    std::fprintf(stderr, "atlc_bench: %s\n", e.what());
    return 1;
  }

  std::string out = cli.get_string("json");
  const std::string& dir = cli.get_string("json-dir");
  if (out.empty() && !dir.empty()) out = dir + "/BENCH_" + s.name + ".json";
  if (!out.empty()) {
    if (!rec.write_file(out)) {
      std::fprintf(stderr, "atlc_bench: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("\nJSON written: %s\n", out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pre-scan: the full flag surface depends on the selected scenario, so
  // --list/--all/--scenario are resolved before building the real Cli.
  std::string selected;
  bool list = false, all = false, single_json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list") list = true;
    else if (arg == "--all") all = true;
    else if (arg == "--json" || arg.rfind("--json=", 0) == 0)
      single_json = true;
    else if (arg == "--scenario" && i + 1 < argc) selected = argv[i + 1];
    else if (arg.rfind("--scenario=", 0) == 0) selected = arg.substr(11);
  }
  if (all && single_json) {
    std::fprintf(stderr,
                 "atlc_bench: --all would overwrite one --json path per "
                 "scenario; use --json-dir instead\n");
    return 1;
  }

  if (list) {
    list_scenarios();
    return 0;
  }
  if (all) {
    int failures = 0;
    for (const auto& s : bench::scenarios()) {
      if (run_scenario(s, argc, argv) != 0) {
        std::fprintf(stderr, "atlc_bench: scenario %s failed\n",
                     s.name.c_str());
        ++failures;
      }
      std::printf("\n");
    }
    std::printf("atlc_bench --all: %zu scenarios, %d failed\n",
                bench::scenarios().size(), failures);
    return failures == 0 ? 0 : 1;
  }
  if (selected.empty()) {
    list_scenarios();
    return 0;
  }
  const bench::Scenario* s = bench::find_scenario(selected);
  if (!s) {
    std::fprintf(stderr, "atlc_bench: unknown scenario '%s'\n\n",
                 selected.c_str());
    list_scenarios();
    return 1;
  }
  return run_scenario(*s, argc, argv);
}
