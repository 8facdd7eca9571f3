// bench_compare — regression gate over two `atlc_bench --json` documents.
//
//   bench_compare baseline.json current.json
//   bench_compare --tolerance=0.5 --all-metrics baseline.json current.json
//
// Exit codes: 0 = no gated metric regressed; 1 = regression (or the files
// are incomparable); 2 = usage / parse error. CI runs this against the
// checked-in bench/baselines/ after every `atlc_bench --all --smoke`.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "atlc/util/bench_compare.hpp"
#include "atlc/util/json.hpp"
#include "atlc/util/table.hpp"

namespace {

using namespace atlc;

void usage() {
  std::fprintf(
      stderr,
      "usage: bench_compare [options] <baseline.json> <current.json>\n"
      "\n"
      "options:\n"
      "  --tolerance=F    allowed fractional regression on gated metrics\n"
      "                   (default: 0.25, i.e. fail when >25%% slower);\n"
      "                   metrics with direction \"exact\" fail on any change\n"
      "  --min-value=F    noise floor below which metrics never gate\n"
      "                   (default: 1e-6; exact metrics always gate)\n"
      "  --all-metrics    report un-gated metrics too (they still never\n"
      "                   fail the gate)\n");
}

bool parse_double(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "bench_compare: not a number: '%s'\n", text);
    usage();
    return false;
  }
  return true;
}

std::optional<util::Json> load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  auto doc = util::Json::parse(buf.str(), &error);
  if (!doc)
    std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                 error.c_str());
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  util::CompareOptions options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg.rfind("--tolerance=", 0) == 0) {
      if (!parse_double(arg.c_str() + 12, options.tolerance)) return 2;
    } else if (arg.rfind("--min-value=", 0) == 0) {
      if (!parse_double(arg.c_str() + 12, options.min_value)) return 2;
    } else if (arg == "--all-metrics") {
      options.gated_only = false;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_compare: unknown flag %s\n", arg.c_str());
      usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    usage();
    return 2;
  }

  const auto baseline = load(files[0]);
  const auto current = load(files[1]);
  if (!baseline || !current) return 2;

  const auto report = util::compare_bench_runs(*baseline, *current, options);

  util::Table table({"Metric", "Baseline", "Current", "Ratio", "Gate",
                     "Verdict"});
  for (const auto& m : report.metrics) {
    char base_s[48], cur_s[48], ratio_s[32];
    std::snprintf(base_s, sizeof(base_s), "%.6g %s", m.baseline,
                  m.unit.c_str());
    std::snprintf(cur_s, sizeof(cur_s), "%.6g %s", m.current, m.unit.c_str());
    std::snprintf(ratio_s, sizeof(ratio_s), "%.3fx", m.ratio);
    table.add_row({m.name, base_s, cur_s, ratio_s, m.gated ? "yes" : "no",
                   m.regressed ? "REGRESSED" : "ok"});
  }
  table.print("bench_compare: " + report.scenario + " (tolerance " +
              util::Table::fmt_percent(options.tolerance) + ")");
  for (const auto& note : report.notes)
    std::printf("note: %s\n", note.c_str());

  if (report.metrics.empty())
    std::printf("no gated metrics to compare — gate passes vacuously\n");
  std::printf("%s\n", report.ok ? "PASS: no gated regression"
                                : "FAIL: gated regression detected");
  return report.ok ? 0 : 1;
}
