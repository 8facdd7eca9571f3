#include "atlc/util/bench_compare.hpp"

#include <stdexcept>

#include "atlc/util/recorder.hpp"

namespace atlc::util {

namespace {

std::string str_field(const Json& doc, const char* key,
                      const std::string& fallback = "") {
  const Json* v = doc.find(key);
  return v && v->is_string() ? v->as_string() : fallback;
}

/// First difference between two trial records, as "path: first vs
/// second"; empty when they are equal key for key. A key present on one
/// side only is a difference. Scalars and arrays compare by their exact
/// serialisation (doubles print round-trip, %.17g).
std::string first_difference(const Json& a, const Json& b,
                             const std::string& path) {
  const auto at = [&](const std::string& key) {
    return path.empty() ? key : path + "." + key;
  };
  if (!a.is_object() || !b.is_object()) {
    const std::string x = a.dump(0), y = b.dump(0);
    return x == y ? std::string{} : path + ": " + x + " vs " + y;
  }
  for (const auto& [key, x] : a.items()) {
    const Json* y = b.find(key);
    if (!y) return at(key) + ": " + x.dump(0) + " vs <absent>";
    if (auto d = first_difference(x, *y, at(key)); !d.empty()) return d;
  }
  for (const auto& [key, y] : b.items())
    if (!a.find(key)) return at(key) + ": <absent> vs " + y.dump(0);
  return {};
}

/// Every trial of both documents against the first trial seen (the
/// baseline's first, unless it has none); the first mismatch, or empty.
std::string trial_difference(const Json& base, const Json& cur) {
  const Json* first = nullptr;
  for (const auto& [side, metric] :
       {std::pair{"baseline", &base}, std::pair{"current", &cur}}) {
    const Json* trials = metric->find("trials");
    for (std::size_t i = 0; trials && i < trials->size(); ++i) {
      if (!first) first = &trials->at(i);
      if (auto d = first_difference(*first, trials->at(i), ""); !d.empty())
        return std::string(side) + " trial " + std::to_string(i) +
               " differs from the first trial at " + d;
    }
  }
  return {};
}

bool flag(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v && v->as_bool();
}

double median_of(const Json& metric) {
  const Json* m = metric.find("median");
  return m ? m->as_number() : 0.0;
}

void require_comparable(const Json& baseline, const Json& current) {
  if (str_field(baseline, "scenario") != str_field(current, "scenario"))
    throw std::runtime_error("atlc: scenario mismatch: baseline is for '" +
                             str_field(baseline, "scenario") +
                             "', current is for '" +
                             str_field(current, "scenario") + "'");
  for (const auto& [side, doc] :
       {std::pair{"baseline", &baseline}, std::pair{"current", &current}}) {
    const std::string what = std::string("atlc: ") + side + " document ";
    const Json* version = doc->find("schema_version");
    if (!version || version->as_number() != BenchRecorder::kSchemaVersion)
      throw std::runtime_error(
          what + "has schema_version " + (version ? version->dump(0) : "none") +
          "; bench_compare reads version " +
          std::to_string(BenchRecorder::kSchemaVersion));
    const Json* meta = doc->find("meta");
    if (meta && flag(*meta, "calibrated_cost"))
      throw std::runtime_error(
          what +
          "was priced with a host-calibrated cost model "
          "(meta.calibrated_cost); its virtual times are not comparable");
    if (const Json* m = doc->find("metrics"); !m || !m->is_object())
      throw std::runtime_error(what + "has no metrics object");
  }
}

}  // namespace

CompareReport compare_bench_runs(const Json& baseline, const Json& current) {
  require_comparable(baseline, current);
  CompareReport report;
  report.scenario = str_field(current, "scenario");
  const Json& base_metrics = *baseline.find("metrics");
  const Json& cur_metrics = *current.find("metrics");

  for (const auto& [name, base] : base_metrics.items()) {
    MetricComparison c;
    c.name = name;
    c.unit = str_field(base, "unit", "?");
    c.wall = flag(base, "wall");
    c.baseline = median_of(base);
    const Json* cur = cur_metrics.find(name);
    if (cur) c.current = median_of(*cur);
    std::string why;
    if (!cur)
      why = "missing from the current run";
    else if (!c.wall)
      why = trial_difference(base, *cur);
    if (c.wall && !why.empty()) {
      report.notes.push_back("wall metric '" + name + "' " + why);
    } else if (!why.empty()) {
      c.regressed = true;
      report.ok = false;
      report.notes.push_back("metric '" + name + "': " + why);
    }
    report.metrics.push_back(std::move(c));
  }

  for (const auto& kv : cur_metrics.items())
    if (!base_metrics.find(kv.first))
      report.notes.push_back("metric '" + kv.first +
                             "' is new (not in the baseline)");
  return report;
}

}  // namespace atlc::util
