// atlc_benchmark — end-to-end and per-layer benchmark of the atlc library.
//
//   atlc_benchmark generate --workload NAME --seed N --dir DIR [--smoke]
//       Write the workload's input files into DIR, from the seed alone.
//   atlc_benchmark measure --workload NAME --dir DIR --spec BENCHMARK.json
//                          [--seconds S] [--trace 0|1] [--trace-out FILE]
//                          [--smoke]
//       Read the input files, run one untimed warm-up job, then timed jobs
//       (input file -> graph -> analytic) until S seconds have passed, at
//       least three (one with --smoke), and set-up alone until it has run
//       nine times. End-to-end metrics are medians over these. With
//       --trace 1, a job with wall-clock spans around every library call
//       follows each timed job, and one more traced job reports the
//       per-layer metrics. The metric names and units are the ones
//       BENCHMARK.json declares. Every job's outputs are checked, outside
//       the timed regions.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// benchmark/run.sh builds this program and drives both steps.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "atlc/util/json.hpp"
#include "workloads.hpp"

namespace {

/// Set-up is short next to the solve, so it runs alone after the timed
/// jobs until it has this many samples; its median is steadier than a
/// median over the few jobs that fit the window.
constexpr std::size_t kSetupSamples = 9;

// Timing, medians and peak RSS are computed here rather than through the
// library's utilities, so no change to the code under test can alter how
// it is measured.
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// High-water mark of this process's resident set (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: atlc_benchmark generate --workload NAME --seed N --dir "
               "DIR [--smoke]\n"
               "       atlc_benchmark measure --workload NAME --dir DIR "
               "--spec BENCHMARK.json [--seconds S] [--trace 0|1] "
               "[--trace-out FILE] [--smoke]\n");
  return 2;
}

/// The metrics BENCHMARK.json declares under `key` ("end_to_end" or
/// "per_layer"), all zero.
std::vector<bench::Metric> declared_metrics(const std::string& spec_path,
                                            const char* key) {
  std::ifstream f(spec_path);
  std::stringstream text;
  text << f.rdbuf();
  std::string error;
  const auto spec = atlc::util::Json::parse(text.str(), &error);
  const atlc::util::Json* list = spec ? spec->find(key) : nullptr;
  if (!f || !list || !list->is_array())
    throw std::runtime_error("cannot read the " + std::string(key) +
                             " metrics of " + spec_path + " " + error);
  std::vector<bench::Metric> out;
  for (std::size_t i = 0; i < list->size(); ++i) {
    const atlc::util::Json* name = list->at(i).find("name");
    const atlc::util::Json* unit = list->at(i).find("unit");
    if (!name || !unit || !name->is_string() || !unit->is_string())
      throw std::runtime_error(spec_path + ": a metric lacks a name or unit");
    out.push_back({name->as_string(), unit->as_string()});
  }
  return out;
}

void print_result(const bench::Tally& tally,
                  const std::vector<bench::Metric>& metrics) {
  for (const auto& m : metrics)
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> opt;
  bool smoke = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      opt[a.substr(2)] = argv[++i];
    } else {
      std::fprintf(stderr, "atlc_benchmark: unexpected argument '%s'\n",
                   a.c_str());
      return usage();
    }
  }
  const auto get = [&](const char* key, const char* fallback) {
    const auto it = opt.find(key);
    return it != opt.end() ? it->second : std::string(fallback);
  };
  const std::string workload = get("workload", "");
  const std::string dir = get("dir", "");
  if (workload.empty() || dir.empty()) return usage();

  try {
    if (mode == "generate") {
      bench::generate_inputs(workload, std::stoull(get("seed", "1")), dir,
                             smoke);
      return 0;
    }
    if (mode != "measure") return usage();
    const std::string spec = get("spec", "");
    if (spec.empty()) return usage();
    const double window_s = std::stod(get("seconds", "10"));
    const bool traced = get("trace", "0") == "1";
    const std::string trace_out = get("trace-out", "");
    const std::size_t min_jobs = smoke ? 1 : 3;
    const std::size_t min_setups = smoke ? 1 : kSetupSamples;
    std::vector<bench::Metric> metrics =
        declared_metrics(spec, traced ? "per_layer" : "end_to_end");

    const auto w = bench::make_workload(workload, dir);
    bench::Tally tally;

    // Warm-up: the first job in a fresh process runs measurably slower
    // (page faults, cold allocator, cold caches); it is checked, not timed.
    w->setup(nullptr);
    w->solve(nullptr);
    tally += w->check();
    w->reset();

    std::vector<double> setup_s, solve_s, traced_solve_s;
    double makespan = 0.0;
    const auto window = Clock::now();
    while (solve_s.size() < min_jobs || seconds_since(window) < window_s) {
      const auto t0 = Clock::now();
      w->setup(nullptr);
      const auto t1 = Clock::now();
      w->solve(nullptr);
      solve_s.push_back(seconds_since(t1));
      setup_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      std::fprintf(stderr, "# job %zu: setup %.4f s, solve %.4f s\n",
                   solve_s.size(), setup_s.back(), solve_s.back());
      if (solve_s.size() > 1 && w->makespan() != makespan)
        std::fprintf(stderr,
                     "# warning: virtual makespan changed between jobs "
                     "(%.17g vs %.17g)\n",
                     w->makespan(), makespan);
      makespan = w->makespan();
      tally += w->check();
      w->reset();
      if (traced) {
        // Traced jobs alternate with untraced ones, so that the host's
        // speed drifting during the run cancels out of the tracing overhead.
        bench::SpanRecorder spans;
        w->setup(&spans);
        w->solve(&spans);
        traced_solve_s.push_back(spans.max_seconds("solve"));
        tally += w->check();
        w->reset();
      }
    }
    const std::size_t jobs = solve_s.size();
    while (!traced && setup_s.size() < min_setups) {
      const auto t0 = Clock::now();
      w->setup(nullptr);
      setup_s.push_back(seconds_since(t0));
      w->reset();
    }
    const double peak_rss = peak_rss_mib();
    const double solve_median = median(solve_s);
    std::fprintf(stderr, "# %s: %zu timed jobs and %zu set-ups in %.1f s\n",
                 workload.c_str(), jobs, setup_s.size(),
                 seconds_since(window));

    if (!traced) {
      bench::set_metric(metrics, "setup_s", median(setup_s));
      bench::set_metric(metrics, "solve_s", solve_median);
      bench::set_metric(metrics, "makespan_vs", makespan);
      bench::set_metric(metrics, "peak_rss_mb", peak_rss);
    } else {
      bench::SpanRecorder spans;
      {
        bench::SpanRecorder::Scope job(&spans, "traced_job");
        w->setup(&spans);
        w->solve(&spans);
        tally += w->check();
        tally += w->layers(spans, solve_median, metrics);
      }
      traced_solve_s.push_back(spans.max_seconds("solve"));
      for (auto& m : metrics) {
        const std::string& name = m.name;
        if (name.starts_with("graph."))  // metric "graph.x_s" = span "graph.x"
          m.value = spans.max_seconds(name.substr(0, name.size() - 2));
        if (name == "bench.trace_gap_frac")
          m.value = (median(traced_solve_s) - solve_median) / solve_median;
      }
      spans.print_summary(stderr);
      if (!trace_out.empty() && !spans.write_chrome_trace(trace_out)) {
        std::fprintf(stderr, "atlc_benchmark: cannot write %s\n",
                     trace_out.c_str());
        return 1;
      }
    }
    print_result(tally, metrics);
    return tally.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "atlc_benchmark: %s\n", e.what());
    return 1;
  }
}
