#pragma once

#include <chrono>

namespace atlc::util {

/// Monotonic wall-clock timer with nanosecond resolution.
///
/// Used by the measurement recorder (LibLSB-style harness, Hoefler & Belli,
/// SC'15) and by the benches. All durations are reported in seconds as
/// `double` to keep arithmetic simple at the call sites.
class Timer {
 public:
  using Clock = std::chrono::steady_clock;

  Timer() : start_(Clock::now()) {}

  /// Restart the timer; subsequent `elapsed_s()` calls measure from here.
  void reset() { start_ = Clock::now(); }

  /// Seconds since construction or the last `reset()`.
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

}  // namespace atlc::util
