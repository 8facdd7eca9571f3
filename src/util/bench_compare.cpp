#include "atlc/util/bench_compare.hpp"

#include <algorithm>

namespace atlc::util {

namespace {

std::string str_field(const Json& doc, const char* key,
                      const std::string& fallback = "") {
  const Json* v = doc.find(key);
  return v && v->is_string() ? v->as_string() : fallback;
}

double metric_median(const Json& metric) {
  if (const Json* m = metric.find("median"); m && m->is_number())
    return m->as_number();
  // Fall back to recomputing from trials for hand-written baselines.
  const Json* trials = metric.find("trials");
  if (!trials || trials->size() == 0) return 0.0;
  std::vector<double> values;
  for (std::size_t i = 0; i < trials->size(); ++i)
    if (const Json* v = trials->at(i).find("value"); v && v->is_number())
      values.push_back(v->as_number());
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

CompareReport compare_bench_runs(const Json& baseline, const Json& current,
                                 const CompareOptions& options) {
  CompareReport report;
  report.scenario = str_field(current, "scenario", "<unknown>");

  const std::string base_scenario = str_field(baseline, "scenario");
  if (base_scenario != report.scenario) {
    report.notes.push_back("scenario mismatch: baseline is for '" +
                           base_scenario + "', current is for '" +
                           report.scenario + "'");
    report.ok = false;
    return report;
  }

  const Json* base_metrics = baseline.find("metrics");
  const Json* cur_metrics = current.find("metrics");
  if (!base_metrics || !base_metrics->is_object() || !cur_metrics ||
      !cur_metrics->is_object()) {
    report.notes.push_back("missing metrics object in one of the documents");
    report.ok = false;
    return report;
  }

  for (const auto& [name, cur] : cur_metrics->items()) {
    const bool gated = cur.find("gate") && cur.find("gate")->as_bool();
    if (options.gated_only && !gated) continue;

    const Json* base = base_metrics->find(name);
    if (!base) {
      report.notes.push_back("metric '" + name +
                             "' missing from baseline (skipped)");
      continue;
    }

    MetricComparison c;
    c.name = name;
    c.unit = str_field(cur, "unit", "?");
    c.direction = str_field(cur, "direction", "lower");
    c.gated = gated;
    c.baseline = metric_median(*base);
    c.current = metric_median(cur);
    c.ratio = c.baseline != 0.0 ? c.current / c.baseline : 0.0;

    // Exact metrics (deterministic counts, checksums) fail on any change,
    // whatever the tolerance or noise floor. Otherwise only a sub-floor
    // *baseline* exempts a metric: a current value that collapsed toward
    // zero must still trip the gate on higher-is-better metrics (a
    // lower-is-better collapse is an improvement either way).
    if (c.gated && c.direction == "exact") {
      c.regressed = c.current != c.baseline;
    } else if (c.baseline < options.min_value) {
      report.notes.push_back("metric '" + name +
                             "' baseline below the noise floor (not gated)");
    } else if (c.gated) {
      if (c.direction == "higher")
        c.regressed = c.current < c.baseline * (1.0 - options.tolerance);
      else
        c.regressed = c.current > c.baseline * (1.0 + options.tolerance);
    }
    report.ok &= !c.regressed;
    report.metrics.push_back(std::move(c));
  }

  for (const auto& kv : base_metrics->items()) {
    const Json* gate = kv.second.find("gate");
    const bool gated = gate && gate->as_bool();
    if ((gated || !options.gated_only) && !cur_metrics->find(kv.first))
      report.notes.push_back("metric '" + kv.first +
                             "' disappeared from the current run");
  }

  return report;
}

}  // namespace atlc::util
