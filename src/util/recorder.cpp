#include "atlc/util/recorder.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <ctime>

#include "atlc/intersect/intersect.hpp"
#include "atlc/util/check.hpp"
#include "atlc/util/table.hpp"
#include "atlc/util/timer.hpp"

namespace atlc::util {

std::uint64_t peak_rss_bytes() {
  // ru_maxrss is the resident high-water mark (VmHWM), in KiB on Linux.
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

Summary Recorder::run_until_ci(const std::function<void()>& fn) {
  samples_.clear();
  for (std::size_t i = 0; i < opts_.warmup_reps; ++i) fn();
  while (samples_.size() < opts_.max_reps) {
    Timer t;
    fn();
    samples_.push_back(t.elapsed_s());
    if (samples_.size() >= opts_.min_reps && converged()) break;
  }
  return summarize(samples_);
}

bool Recorder::converged() const {
  if (samples_.size() < opts_.min_reps) return false;
  return summarize(samples_).ci_within_fraction_of_median(opts_.ci_fraction);
}

// ---------------------------------------------------------------------------
// JSON serializers

Json to_json(const Summary& s) {
  Json j = Json::object();
  j["n"] = static_cast<std::uint64_t>(s.n);
  j["min"] = s.min;
  j["max"] = s.max;
  j["mean"] = s.mean;
  j["stddev"] = s.stddev;
  j["median"] = s.median;
  j["ci95_lo"] = s.ci95_lo;
  j["ci95_hi"] = s.ci95_hi;
  return j;
}

// ---------------------------------------------------------------------------
// BenchRecorder

namespace {

std::string utc_now() {
  std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string hostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

}  // namespace

BenchRecorder::BenchRecorder(std::string scenario, std::string paper_anchor,
                             std::string title) {
  root_ = Json::object();
  root_["schema_version"] = kSchemaVersion;
  root_["scenario"] = std::move(scenario);
  root_["paper_anchor"] = std::move(paper_anchor);
  root_["title"] = std::move(title);
  Json& meta = root_["meta"];
  meta["timestamp_utc"] = utc_now();
  meta["hostname"] = hostname();
#if defined(ATLC_GIT_SHA)
  meta["git_sha"] = ATLC_GIT_SHA;
#else
  meta["git_sha"] = "unknown";
#endif
#if defined(__VERSION__)
  meta["compiler"] = __VERSION__;
#endif
  // The block merge count_ssi runs here: wall times depend on it.
  meta["intersect_isa"] = intersect::intersect_isa();
#if defined(NDEBUG)
  meta["assertions"] = false;
#else
  meta["assertions"] = true;
#endif
  root_["metrics"] = Json::object();
  root_["tables"] = Json::array();
  root_["notes"] = Json::array();
}

void BenchRecorder::declare_metric(const std::string& name,
                                   const MetricOptions& opts) {
  Json& metrics = root_["metrics"];
  if (metrics.find(name)) return;
  ATLC_CHECK(!opts.unit.empty(), "bench metric declared without a unit");
  Json& m = metrics[name];
  m["unit"] = opts.unit;
  m["wall"] = opts.wall;
  m["trials"] = Json::array();
}

void BenchRecorder::add_trial(const std::string& metric, double value,
                              Json detail) {
  ATLC_CHECK(root_["metrics"].find(metric) != nullptr,
             "bench trial added to an undeclared metric");
  Json trial = Json::object();
  trial["value"] = value;
  if (detail.is_object())
    for (const auto& [k, v] : detail.items()) trial[k] = v;
  root_["metrics"][metric]["trials"].push_back(std::move(trial));
  finalized_ = false;
}

void BenchRecorder::add_note(std::string note) {
  root_["notes"].push_back(std::move(note));
}

std::string BenchRecorder::add_verdict(const std::string& name,
                                       const std::string& claim, bool holds,
                                       bool wall) {
  const std::string metric = "verdict/" + name;
  declare_metric(metric, {.unit = "bool", .wall = wall});
  add_trial(metric, holds ? 1.0 : 0.0);
  std::string note = claim + (holds ? ": HOLDS" : ": DEVIATES");
  add_note(note);
  return note;
}

void BenchRecorder::add_table(const std::string& title, const Table& table) {
  Json t = Json::object();
  t["title"] = title;
  Json header = Json::array();
  for (const auto& h : table.header()) header.push_back(h);
  t["header"] = std::move(header);
  Json rows = Json::array();
  for (const auto& row : table.rows()) {
    Json r = Json::array();
    for (const auto& cell : row) r.push_back(cell);
    rows.push_back(std::move(r));
  }
  t["rows"] = std::move(rows);
  root_["tables"].push_back(std::move(t));
}

const Json& BenchRecorder::finalize() {
  if (finalized_) return root_;
  // Captured at finalize (not construction) so the figure covers the whole
  // scenario. Machine-dependent; lives in meta, which bench_compare never
  // gates.
  root_["meta"]["peak_rss_bytes"] = peak_rss_bytes();
  Json& metrics = root_["metrics"];
  for (auto& kv : metrics.items()) {
    Json& m = kv.second;
    const Json* trials = m.find("trials");
    if (!trials || trials->size() == 0) continue;
    std::vector<double> values;
    values.reserve(trials->size());
    for (std::size_t i = 0; i < trials->size(); ++i)
      values.push_back(trials->at(i).find("value")->as_number());
    m["summary"] = to_json(summarize(values));
    m["median"] = median(values);
  }
  finalized_ = true;
  return root_;
}

bool BenchRecorder::write_file(const std::string& path) {
  return write_json_file(path, finalize());
}

}  // namespace atlc::util
