#include "spans.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

namespace bench {

namespace {

/// Spans currently open on this thread, innermost last.
thread_local std::vector<int> open_stack;

}  // namespace

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

int SpanRecorder::begin(const char* name, std::uint32_t rank, int parent) {
  if (parent == kInherit) parent = open_stack.empty() ? -1 : open_stack.back();
  const double t = now();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, rank, parent, t, -1.0});
  }
  open_stack.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  const double t = now();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  const auto it = std::find(open_stack.rbegin(), open_stack.rend(), id);
  if (it != open_stack.rend()) open_stack.erase(std::next(it).base());
}

double SpanRecorder::self_seconds_locked(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  if (s.end < 0.0) return 0.0;
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_)
    if (c.parent == id && c.end >= 0.0)
      kids.emplace_back(std::max(c.start, s.start), std::min(c.end, s.end));
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, reach = s.start;
  for (const auto& [a, b] : kids) {
    const double lo = std::max(a, reach);
    if (b > lo) covered += b - lo;
    reach = std::max(reach, b);
  }
  return (s.end - s.start) - covered;
}

double SpanRecorder::max_seconds(std::string_view name) const {
  double mx = 0.0;
  for (const double d : durations(name)) mx = std::max(mx, d);
  return mx;
}

std::vector<double> SpanRecorder::durations(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.end >= 0.0 && name == s.name) out.push_back(s.end - s.start);
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, Closer> f(std::fopen(path.c_str(), "w"));
  if (!f) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f.get(), "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  const char* sep = "";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0.0) continue;
    const char* parent =
        s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : "";
    std::fprintf(f.get(),
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent\": \"%s\", "
                 "\"self_us\": %.3f}}",
                 std::exchange(sep, ",\n"), s.name, s.rank, s.start * 1e6,
                 (s.end - s.start) * 1e6, parent,
                 self_seconds_locked(static_cast<int>(i)) * 1e6);
  }
  std::fprintf(f.get(), "\n]}\n");
  return std::fflush(f.get()) == 0 && !std::ferror(f.get());
}

void SpanRecorder::print_summary(std::FILE* out) const {
  struct Row {
    std::size_t count = 0;
    double max = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end < 0.0) continue;
      Row& r = rows[s.name];
      ++r.count;
      r.max = std::max(r.max, s.end - s.start);
      r.self += self_seconds_locked(static_cast<int>(i));
    }
  }
  std::fprintf(out, "# %-28s %5s %12s %12s\n", "span", "count", "max_s",
               "self_sum_s");
  for (const auto& [name, r] : rows)
    std::fprintf(out, "# %-28s %5zu %12.6f %12.6f\n", name.c_str(), r.count,
                 r.max, r.self);
}

}  // namespace bench
