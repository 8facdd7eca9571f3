#pragma once

// In-memory wall-clock span recorder for the benchmark's traced run. Spans
// are recorded around calls into the library's public API (nothing inside
// the library is instrumented) and written out as Chrome trace-event JSON
// once the run ends. A span's self time is its duration minus the part of
// its interval covered by its child spans.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

struct Span {
  const char* name = nullptr;  ///< string literal
  std::uint32_t rank = 0;      ///< simulated rank, or 0 for the main thread
  int parent = -1;             ///< index of the enclosing span, -1 = root
  double start = 0.0;          ///< seconds since the recorder was created
  double end = -1.0;           ///< negative while open
};

class SpanRecorder {
 public:
  /// Parent argument meaning "the innermost span open on this thread".
  static constexpr int kInherit = -2;

  /// Open a span. Safe to call from several threads; a span opened on a
  /// rank thread names its parent explicitly (thread stacks are per thread).
  int begin(const char* name, std::uint32_t rank = 0, int parent = kInherit);
  void end(int id);

  /// Records a span over its own lifetime; does nothing when `rec` is null
  /// (the untraced, timed jobs).
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name, std::uint32_t rank = 0,
          int parent = kInherit)
        : rec_(rec), id_(rec ? rec->begin(name, rank, parent) : -1) {}
    ~Scope() {
      if (rec_) rec_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int id_;
  };

  /// Largest duration among closed spans called `name` (per-rank spans
  /// report the slowest rank); 0 when there is none.
  [[nodiscard]] double max_seconds(std::string_view name) const;

  /// Durations of every closed span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;

  /// Chrome trace-event JSON: one complete ("X") event per span, tid =
  /// rank, with the parent name and self time as arguments.
  bool write_chrome_trace(const std::string& path) const;

  /// One line per span name: count, slowest duration, summed self time.
  void print_summary(std::FILE* out) const;

 private:
  [[nodiscard]] double now() const;
  /// Duration minus the union of the child spans' intervals (mu_ held).
  [[nodiscard]] double self_seconds_locked(int id) const;

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace bench
