#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace bench {

/// Simulated ranks of every workload; run.sh also sets OMP_NUM_THREADS to
/// this, so neither the rank threads nor OpenMP oversubscribe a 4-core host.
inline constexpr std::uint32_t kRanks = 4;

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

/// One reported metric. Names and units come from BENCHMARK.json, the only
/// list of them; the code fills values by name.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Set the value of the metric called `name`. Throws std::logic_error when
/// `metrics` has no such metric, so a name the code computes cannot drift
/// away from the declared list unnoticed.
void set_metric(std::vector<Metric>& metrics, std::string_view name,
                double value);

/// One benchmark workload: an input file turned into a ready graph (the
/// set-up), one analytic call on it (the solve), and a comparison of the
/// outputs with the expected ones. The spans argument is null on timed
/// jobs; the traced job passes a recorder and gets a span around every
/// public library call.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup(SpanRecorder* spans) = 0;
  virtual void solve(SpanRecorder* spans) = 0;
  /// Modeled (virtual-time) makespan of the last solve, in seconds.
  [[nodiscard]] virtual double makespan() const = 0;
  /// Compare the last solve's outputs with the expected ones.
  [[nodiscard]] virtual Tally check() const = 0;
  /// Release the graph and outputs, so the next job starts from the file.
  virtual void reset() = 0;

  /// After a traced setup + solve: measure the layers below the solve and
  /// fill the per-layer metrics it exercises; the others stay 0. Returns
  /// the outcome of the layer replays' own consistency checks.
  virtual Tally layers(SpanRecorder& spans, double solve_median,
                       std::vector<Metric>& metrics) = 0;
};

/// Write the workload's input files (graph text, expected outputs, and for
/// serving the query/update stream) into `dir`, from `seed` alone. Throws
/// std::invalid_argument for an unknown workload name.
void generate_inputs(std::string_view workload, std::uint64_t seed,
                     const std::string& dir, bool smoke);

/// The workload reading the files generate_inputs wrote into `dir`.
std::unique_ptr<Workload> make_workload(std::string_view workload,
                                        const std::string& dir);

}  // namespace bench
