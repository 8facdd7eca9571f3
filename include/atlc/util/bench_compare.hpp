#pragma once

#include <string>
#include <vector>

#include "atlc/util/json.hpp"

namespace atlc::util {

/// Regression gate over two BenchRecorder documents (same scenario, two
/// builds). Used by `tools/bench_compare` and the CI bench-smoke job.
struct CompareOptions {
  /// Allowed fractional slowdown on gated metrics: a "lower is better"
  /// metric regresses when current > baseline * (1 + tolerance). Metrics
  /// with direction "exact" ignore it: any change regresses.
  double tolerance = 0.25;
  /// Metrics whose baseline median is below this (in the metric's unit) are
  /// reported but never gate — they sit in the noise floor.
  double min_value = 1e-6;
  /// When false, un-gated metrics are compared (and reported) too, but
  /// still never fail the gate.
  bool gated_only = true;
};

struct MetricComparison {
  std::string name;
  std::string unit;
  std::string direction;  ///< "lower", "higher" or "exact"
  bool gated = false;
  double baseline = 0.0;  ///< baseline median
  double current = 0.0;   ///< current median
  double ratio = 0.0;     ///< current / baseline
  bool regressed = false;
};

struct CompareReport {
  std::string scenario;
  std::vector<MetricComparison> metrics;
  std::vector<std::string> notes;  ///< mismatches, skipped metrics, errors
  bool ok = true;                  ///< false iff any gated metric regressed
                                   ///< or the documents are incomparable
};

/// Compare `current` against `baseline`. Both must be BenchRecorder
/// documents for the same scenario; a scenario or schema mismatch makes the
/// report not-ok. Metrics present in only one document are noted and
/// skipped (new metrics must not fail old baselines).
[[nodiscard]] CompareReport compare_bench_runs(const Json& baseline,
                                               const Json& current,
                                               const CompareOptions& options = {});

}  // namespace atlc::util
