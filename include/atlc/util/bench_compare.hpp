#pragma once

#include <string>
#include <vector>

#include "atlc/util/json.hpp"

namespace atlc::util {

/// Regression gate over two BenchRecorder documents (same scenario, two
/// builds). Used by `tools/bench_compare`, ctest and the CI bench-smoke job.
struct MetricComparison {
  std::string name;
  std::string unit;
  bool wall = false;      ///< reported, never fails
  double baseline = 0.0;  ///< baseline median
  double current = 0.0;   ///< current median
  bool regressed = false;
};

struct CompareReport {
  std::string scenario;
  std::vector<MetricComparison> metrics;
  std::vector<std::string> notes;  ///< why a metric failed, new metrics
  bool ok = true;                  ///< false iff any metric regressed
};

/// Compare `current` against `baseline` under the one gate rule (DESIGN.md
/// §5). A metric not declared `wall` regresses unless every trial of both
/// documents equals the baseline's first trial key for key (`value` and
/// every detail scalar and counter block), or when it is missing from
/// `current`. Trial counts may differ. Wall metrics (as the baseline
/// declares them) are reported and never regress; metrics new in `current`
/// are noted and pass.
///
/// Throws std::runtime_error ("atlc: ...") when the documents are not
/// comparable: different scenarios or schema versions, a missing metrics
/// object, or a document priced with a host-calibrated cost model
/// (`meta.calibrated_cost`).
[[nodiscard]] CompareReport compare_bench_runs(const Json& baseline,
                                               const Json& current);

}  // namespace atlc::util
