// atlc_trace — offline summarizer for atlc's Chrome trace-event files
// (DESIGN.md §12). Reads a trace written by `atlc_run --trace` (or
// `atlc_ingest --trace`), folds it through obs::MetricsRegistry, and prints
// where the virtual time went: per-cause stall breakdown, per-rank
// compute/comm balance, phase-span totals, NIC transfer latency
// percentiles, the epoch-bucketed cache hit-rate series, and the hottest
// remotely-fetched rows.
//
//   atlc_run --rmat-scale 13 --algo lcc --cache --trace run.json
//   atlc_trace --input run.json
//   atlc_trace --input run.json --json metrics.json   # full aggregate dump
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "atlc/obs/metrics.hpp"
#include "atlc/util/cli.hpp"
#include "atlc/util/json.hpp"
#include "atlc/util/stats.hpp"

namespace {

using namespace atlc;

std::string read_file(const std::string& path, bool* ok) {
  *ok = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  *ok = std::ferror(f) == 0;
  std::fclose(f);
  return text;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Per-cause / per-span rows sorted by descending total seconds (name
/// breaks ties so the report is deterministic).
void print_breakdown(const char* title,
                     const std::map<std::string, std::vector<double>>& m) {
  if (m.empty()) return;
  std::vector<std::pair<std::string, double>> rows;
  rows.reserve(m.size());
  double total = 0.0;
  for (const auto& [name, per_rank] : m) {
    rows.emplace_back(name, sum(per_rank));
    total += rows.back().second;
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::printf("%s (%.4f rank-seconds total)\n", title, total);
  for (const auto& [name, secs] : rows)
    std::printf("  %-16s %10.4f s  %5.1f%%\n", name.c_str(), secs,
                total > 0.0 ? 100.0 * secs / total : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("atlc_trace",
                "summarize an atlc Chrome trace-event file (virtual-time "
                "stall breakdown, cache series, hottest rows)");
  cli.add_string("input", "trace JSON written by atlc_run --trace", "");
  cli.add_int("top", "hottest remote rows to list", 10);
  cli.add_string("json",
                 "also write the full MetricsRegistry aggregate as JSON to "
                 "this path ('-' = stdout)",
                 "");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.get_string("input").empty()) {
    std::fprintf(stderr, "atlc_trace: --input is required\n");
    return 1;
  }

  bool ok = false;
  const std::string text = read_file(cli.get_string("input"), &ok);
  if (!ok) {
    std::fprintf(stderr, "atlc_trace: cannot read %s\n",
                 cli.get_string("input").c_str());
    return 1;
  }
  std::string error;
  const auto doc = util::Json::parse(text, &error);
  if (!doc) {
    std::fprintf(stderr, "atlc_trace: %s: %s\n",
                 cli.get_string("input").c_str(), error.c_str());
    return 1;
  }

  obs::MetricsRegistry reg;
  reg.ingest_chrome(*doc);

  // --- headline counters.
  std::printf("== %s ==\n", cli.get_string("input").c_str());
  for (const auto& [name, value] : reg.counters())
    std::printf("  %-20s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));

  // --- where the virtual time went.
  std::printf("\n");
  print_breakdown("charge causes", reg.cause_seconds());
  std::printf("\n");
  print_breakdown("categories", reg.cat_seconds());
  std::printf("\n");
  print_breakdown("phase spans", reg.span_seconds());

  // --- per-rank compute/comm balance (load-imbalance at a glance).
  const auto& cats = reg.cat_seconds();
  const auto comp = cats.find("compute");
  const auto comm = cats.find("comm");
  if (comp != cats.end() || comm != cats.end()) {
    const std::size_t ranks = std::max(
        comp != cats.end() ? comp->second.size() : 0,
        comm != cats.end() ? comm->second.size() : 0);
    std::printf("\nper-rank timeline (s)\n  rank   compute      comm\n");
    for (std::size_t r = 0; r < ranks; ++r) {
      const double c =
          comp != cats.end() && r < comp->second.size() ? comp->second[r] : 0;
      const double m =
          comm != cats.end() && r < comm->second.size() ? comm->second[r] : 0;
      std::printf("  %4zu %9.4f %9.4f\n", r, c, m);
    }
  }

  // --- latency / size distributions.
  bool header = false;
  for (const auto& [name, samples] : reg.samples()) {
    if (samples.empty()) continue;
    if (!header) {
      std::printf("\ndistributions            n       p50       p90       "
                  "p99       max\n");
      header = true;
    }
    std::vector<double> s = samples;
    std::sort(s.begin(), s.end());
    std::printf("  %-18s %7zu %9.3g %9.3g %9.3g %9.3g\n", name.c_str(),
                s.size(), util::percentile(s, 50.0),
                util::percentile(s, 90.0), util::percentile(s, 99.0),
                s.back());
  }

  // --- cache hit rate by CLaMPI window epoch.
  if (!reg.cache_epochs().empty()) {
    std::printf("\ncache by epoch    hits    misses     stale  hit-rate\n");
    for (const auto& [epoch, st] : reg.cache_epochs())
      std::printf("  epoch %4llu %8llu %9llu %9llu    %5.1f%%\n",
                  static_cast<unsigned long long>(epoch),
                  static_cast<unsigned long long>(st.hits),
                  static_cast<unsigned long long>(st.misses),
                  static_cast<unsigned long long>(st.stale),
                  100.0 * st.hit_rate());
  }

  // --- hottest remotely-fetched rows (hub-replication candidates).
  const auto top = reg.top_rows(static_cast<std::size_t>(
      std::max<std::int64_t>(0, cli.get_int("top"))));
  if (!top.empty()) {
    std::printf("\nhottest remote rows\n");
    for (const auto& [v, n] : top)
      std::printf("  v=%-10llu %llu fetches\n",
                  static_cast<unsigned long long>(v),
                  static_cast<unsigned long long>(n));
  }

  const std::string& json_path = cli.get_string("json");
  if (json_path == "-") {
    std::printf("%s\n", reg.to_json().dump(2).c_str());
  } else if (!json_path.empty() &&
             !util::write_json_file(json_path, reg.to_json())) {
    std::fprintf(stderr, "atlc_trace: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
