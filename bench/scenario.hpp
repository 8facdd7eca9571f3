#pragma once

// Scenario registry for the unified `atlc_bench` harness.
//
// Each paper figure/table is one self-registering Scenario: a name
// (`--scenario fig7`), the paper anchor it reproduces, optional extra CLI
// flags, and a run function. The single atlc_bench binary lists, selects,
// and drives scenarios, and every run emits a structured JSON document
// through util::BenchRecorder (schema: DESIGN.md §5) that
// tools/bench_compare gates on. REPRODUCING.md maps every paper
// figure/table to its scenario and invocation.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "atlc/core/lcc.hpp"
#include "atlc/tric/tric.hpp"
#include "atlc/util/cli.hpp"
#include "atlc/util/recorder.hpp"
#include "common.hpp"

namespace atlc::bench {

/// Per-run state handed to a scenario's run function.
struct ScenarioContext {
  util::Cli& cli;
  util::BenchRecorder& rec;
  /// CI-sized grids: scenarios shrink sweeps/graph lists and the harness
  /// shrinks every proxy by `kSmokeBoost` R-MAT scale steps.
  bool smoke = false;
  /// `--seed`: offsets every proxy generator seed, yielding a different
  /// (but equally structured) graph instance per seed.
  std::uint64_t seed = 0;
  /// `--repeats`: trials per measurement; JSON keeps every trial and the
  /// median. Virtual-time metrics must repeat identically (DESIGN.md §2).
  std::size_t repeats = 1;
  /// `--calibrate`: measure the intersection cost model on this host
  /// instead of using the paper-calibrated constants. Calibrated runs are
  /// more faithful to the host but no longer bit-deterministic.
  bool calibrate = false;
  /// `--phase-breakdown`: trace each engine trial through atlc::obs and
  /// attach the per-cause virtual-time breakdown ({cause: {seconds,
  /// per_rank[]}}) to the trial record. Off by default so baseline
  /// documents are unchanged.
  bool phase_breakdown = false;

  static constexpr int kSmokeBoost = -3;

  /// Effective R-MAT scale adjustment: --scale-boost plus the smoke shrink.
  [[nodiscard]] int boost() const;

  /// Cost model per --calibrate (calibrated once per process).
  [[nodiscard]] const intersect::CostModel& cost() const;

  /// Registry proxy (common.hpp) with boost() and the --seed offset applied.
  [[nodiscard]] const graph::CSRGraph& graph(const std::string& proxy_name) const;
  /// Ad-hoc proxy spec, same adjustments.
  [[nodiscard]] const graph::CSRGraph& graph(ProxySpec spec) const;
  /// --graph-file override, else the named proxy.
  [[nodiscard]] const graph::CSRGraph& graph_or_file(
      const std::string& proxy_name) const;

  /// Record `text` as a note and print it.
  void note(const std::string& text) const;

  /// State a paper-shape check (BenchRecorder::add_verdict) and print its
  /// note. `wall` only when `holds` was computed from wall-clock numbers.
  void verdict(const std::string& name, const std::string& claim, bool holds,
               bool wall = false) const;

  /// Run the distributed LCC engine `repeats` times and record one trial
  /// per run under `metric` (virtual seconds): makespan as the value, plus
  /// aggregated CommStats, per-window CacheStats (when caching), triangle
  /// totals and the remote-edge fraction as detail. Returns the last run's
  /// result for scenario-specific analysis. `cfg.cost` is overwritten with
  /// cost().
  core::RunResult run_lcc_trials(
      const std::string& metric, const graph::CSRGraph& g,
      std::uint32_t ranks, core::EngineConfig cfg,
      graph::PartitionKind partition = graph::PartitionKind::Block1D) const;

  /// Same for the TriC baseline.
  tric::TricResult run_tric_trials(const std::string& metric,
                                   const graph::CSRGraph& g,
                                   std::uint32_t ranks,
                                   tric::TricConfig cfg) const;
};

struct Scenario {
  std::string name;     ///< CLI handle, e.g. "fig7"
  std::string anchor;   ///< paper anchor, e.g. "Fig. 7"
  std::string summary;  ///< one-liner for --list
  void (*add_flags)(util::Cli&);  ///< scenario-specific flags (may be null)
  void (*run)(ScenarioContext&);
};

void register_scenario(Scenario s);
[[nodiscard]] const std::vector<Scenario>& scenarios();
[[nodiscard]] const Scenario* find_scenario(std::string_view name);

struct ScenarioRegistrar {
  explicit ScenarioRegistrar(Scenario s) { register_scenario(std::move(s)); }
};

/// Place at namespace scope in a scenario translation unit.
#define ATLC_REGISTER_SCENARIO(ident, ...)                       \
  static const ::atlc::bench::ScenarioRegistrar ident##_registrar{ \
      ::atlc::bench::Scenario{__VA_ARGS__}};

}  // namespace atlc::bench
