#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "atlc/util/counters.hpp"
#include "atlc/util/json.hpp"
#include "atlc/util/stats.hpp"

namespace atlc::util {

class Table;

/// LibLSB-style benchmark recorder (Hoefler & Belli, "Scientific Benchmarking
/// of Parallel Computing Systems", SC'15).
///
/// The paper's methodology (Section IV-A): "we report the median and repeated
/// every experiment until the 5% of the median was within the 95% CI".
/// `run_until_ci` implements exactly that stopping rule with configurable
/// bounds so the argless bench binaries stay fast.
class Recorder {
 public:
  struct Options {
    std::size_t min_reps = 5;      ///< always take at least this many samples
    std::size_t max_reps = 100;    ///< hard cap to bound bench runtime
    double ci_fraction = 0.05;     ///< stop when CI within +/- 5% of median
    std::size_t warmup_reps = 1;   ///< discarded leading runs
  };

  Recorder() : Recorder(Options{}) {}
  explicit Recorder(Options opts) : opts_(opts) {}

  /// Run `fn` repeatedly, timing each invocation, until the 95% CI of the
  /// median is within `ci_fraction` of the median (or `max_reps` is hit).
  /// Returns summary statistics of the retained samples in seconds.
  Summary run_until_ci(const std::function<void()>& fn);

  /// Record an externally-measured sample (seconds). Useful when the
  /// measured quantity is produced by a simulation rather than wall clock.
  void add_sample(double seconds) { samples_.push_back(seconds); }

  /// Stopping rule applied to the externally-recorded samples.
  [[nodiscard]] bool converged() const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }
  [[nodiscard]] Summary summary() const { return summarize(samples_); }
  void clear() { samples_.clear(); }

 private:
  Options opts_;
  std::vector<double> samples_;
};

/// JSON record of a counter struct (CommStats, CacheStats, HotCacheStats):
/// its counters under their listed names, in list order, followed by the
/// derived rates the struct defines.
template <typename S>
  requires requires { S::counters(); }
[[nodiscard]] Json to_json(const S& s) {
  Json j = Json::object();
  for_each_counter<S>([&](std::string_view name, auto member) {
    j[std::string(name)] = s.*member;
  });
  if constexpr (requires { s.hit_rate(); }) j["hit_rate"] = s.hit_rate();
  if constexpr (requires { s.miss_rate(); }) j["miss_rate"] = s.miss_rate();
  return j;
}
[[nodiscard]] Json to_json(const Summary& s);

/// Peak resident set size of this process in bytes (getrusage's
/// ru_maxrss, the kernel's VmHWM); 0 if unavailable. Recorded in
/// every bench document's env block — machine-dependent, never gated.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Structured JSON emitter behind `atlc_bench --json` (see DESIGN.md §5 for
/// the schema). One BenchRecorder per scenario run: environment/git metadata
/// is captured at construction, scenarios then declare named metrics and
/// append per-trial records (value + CommStats/CacheStats detail), mirror
/// their human-readable tables, and `finalize()` folds summary statistics
/// (median, CI) into the document for human readers.
///
/// `tools/bench_compare` consumes these files: every metric not declared
/// `wall` is gated exactly, trial by trial.
class BenchRecorder {
 public:
  struct MetricOptions {
    /// Required: "s", "count", "bytes", ... (declare_metric rejects "").
    std::string unit;
    /// Host wall-clock metrics (timings, throughputs, speedups, RSS) differ
    /// from run to run; bench_compare reports them and never fails on them.
    /// Every other metric is deterministic per seed and gated exactly.
    bool wall = false;
  };

  BenchRecorder(std::string scenario, std::string paper_anchor,
                std::string title);

  /// Mutable metadata object (`seed`, `repeats`, `smoke`, `argv`, ...).
  Json& meta() { return root_["meta"]; }

  /// Declare `name` before adding trials; re-declaring is a no-op so sweep
  /// loops can declare inside the loop body. An empty unit is a
  /// programming error (ATLC_CHECK).
  void declare_metric(const std::string& name, const MetricOptions& opts);

  /// Append one trial to a declared metric. `detail` (optional object) is
  /// merged into the trial record next to "value" — callers attach
  /// to_json(CommStats) etc. here.
  void add_trial(const std::string& metric, double value,
                 Json detail = Json());

  /// Free-form commentary: deviations, scale remarks, ... Paper-shape
  /// checks go through add_verdict.
  void add_note(std::string note);

  /// State a paper-shape check: record `verdict/<name>` as a 1/0 metric
  /// (unit "bool"; `wall` when the check reads wall-clock numbers, so only
  /// then is it ungated) and the note "<claim>: HOLDS" or
  /// "<claim>: DEVIATES". Returns that note.
  std::string add_verdict(const std::string& name, const std::string& claim,
                          bool holds, bool wall = false);

  /// Mirror a human-readable results table into the document.
  void add_table(const std::string& title, const Table& table);

  /// Compute per-metric summaries, then return the completed document.
  /// Idempotent.
  const Json& finalize();

  /// finalize() + write to `path` (pretty-printed). False on I/O failure.
  bool write_file(const std::string& path);

  [[nodiscard]] const Json& doc() const { return root_; }

  /// Current JSON schema version emitted in every document.
  static constexpr int kSchemaVersion = 2;

 private:
  Json root_;
  bool finalized_ = false;
};

}  // namespace atlc::util
