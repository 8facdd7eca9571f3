// bench_compare — regression gate over two `atlc_bench --json` documents.
//
//   bench_compare baseline.json current.json
//
// One rule (DESIGN.md §5): every metric not declared `wall` must repeat the
// baseline exactly, trial by trial and key for key; wall metrics are
// reported and never fail. Exit codes: 0 = pass; 1 = a metric regressed;
// 2 = usage or parse error, or documents that cannot be compared. ctest
// and CI run this against the checked-in bench/baselines/.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "atlc/util/bench_compare.hpp"
#include "atlc/util/json.hpp"
#include "atlc/util/table.hpp"

namespace {

using namespace atlc;

void usage() {
  std::fprintf(stderr,
               "usage: bench_compare <baseline.json> <current.json>\n"
               "\n"
               "Every metric not declared wall must equal the baseline in\n"
               "every trial, key for key; wall metrics are only reported.\n");
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
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_compare: unknown flag %s\n", arg.c_str());
      usage();
      return 2;
    }
    files.push_back(arg);
  }
  if (files.size() != 2) {
    usage();
    return 2;
  }

  const auto baseline = load(files[0]);
  const auto current = load(files[1]);
  if (!baseline || !current) return 2;

  util::CompareReport report;
  try {
    report = util::compare_bench_runs(*baseline, *current);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  util::Table table({"Metric", "Baseline", "Current", "Class", "Verdict"});
  for (const auto& m : report.metrics) {
    char base_s[48], cur_s[48];
    std::snprintf(base_s, sizeof(base_s), "%.6g %s", m.baseline,
                  m.unit.c_str());
    std::snprintf(cur_s, sizeof(cur_s), "%.6g %s", m.current, m.unit.c_str());
    table.add_row({m.name, base_s, cur_s, m.wall ? "wall" : "exact",
                   m.regressed ? "REGRESSED" : "ok"});
  }
  table.print("bench_compare: " + report.scenario + " (medians shown)");
  for (const auto& note : report.notes)
    std::printf("note: %s\n", note.c_str());

  std::printf("%s\n", report.ok ? "PASS: every exact metric repeated"
                                : "FAIL: an exact metric changed");
  return report.ok ? 0 : 1;
}
