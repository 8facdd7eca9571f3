#include "atlc/intersect/cost_model.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "atlc/util/timer.hpp"

namespace atlc::intersect {

double CostModel::seconds(Method m, std::size_t len_a,
                          std::size_t len_b) const {
  if (len_a > len_b) std::swap(len_a, len_b);
  const bool use_ssi =
      m == Method::SSI || (m == Method::Hybrid && prefer_ssi(len_a, len_b));
  double work_ns;
  if (use_ssi) {
    work_ns = ssi_ns_per_elem * static_cast<double>(len_a + len_b);
  } else {
    const double log_b =
        len_b > 1 ? static_cast<double>(std::bit_width(len_b)) : 1.0;
    work_ns = binary_ns_per_probe * static_cast<double>(len_a) * log_b;
  }
  return (per_call_ns + work_ns) * 1e-9;
}

double CostModel::seconds_probes(std::size_t keys, std::size_t tree) const {
  const double log_t =
      tree > 1 ? static_cast<double>(std::bit_width(tree)) : 1.0;
  return (per_call_ns +
          binary_ns_per_probe * static_cast<double>(keys) * log_t) *
         1e-9;
}

double CostModel::seconds_tiered(TierKernel k, std::size_t len_a,
                                 std::size_t len_b) const {
  double work_ns = 0.0;
  switch (k) {
    case TierKernel::MergeVec:
      work_ns = merge_ns_per_elem * static_cast<double>(len_a + len_b);
      break;
    case TierKernel::Gallop: {
      // Each of the |short| keys gallops ~log2(|long|/|short|) + O(1) steps.
      const std::size_t keys = std::min(len_a, len_b);
      const std::size_t tree = std::max(len_a, len_b);
      const std::size_t ratio = keys > 0 ? tree / keys : tree;
      const double log_r =
          ratio > 1 ? static_cast<double>(std::bit_width(ratio)) : 1.0;
      work_ns = gallop_ns_per_probe * static_cast<double>(keys) * (log_r + 1.0);
      break;
    }
  }
  return (per_call_ns + work_ns) * 1e-9;
}

CostModel CostModel::calibrate() {
  CostModel m;

  // Two disjoint-ish sorted arrays with a realistic hit fraction.
  constexpr std::size_t kA = 2048, kB = 16384, kReps = 200;
  std::vector<VertexId> a(kA), b(kB);
  for (std::size_t i = 0; i < kA; ++i) a[i] = static_cast<VertexId>(3 * i);
  for (std::size_t i = 0; i < kB; ++i) b[i] = static_cast<VertexId>(2 * i);

  volatile std::uint64_t sink = 0;  // defeat dead-code elimination

  // Paper and Tiered share the merge and the search, so each is timed
  // once and fitted under both tiers' work terms.
  util::Timer t;
  for (std::size_t r = 0; r < kReps; ++r) sink = sink + count_ssi(a, b);
  const double ssi_s = t.elapsed_s();
  m.ssi_ns_per_elem =
      std::max(0.05, ssi_s * 1e9 / (kReps * static_cast<double>(kA + kB)));
  m.merge_ns_per_elem = m.ssi_ns_per_elem;

  t.reset();
  for (std::size_t r = 0; r < kReps; ++r) sink = sink + count_binary(a, b);
  const double bin_s = t.elapsed_s();
  const double log_b = static_cast<double>(std::bit_width(kB));
  m.binary_ns_per_probe =
      std::max(0.05, bin_s * 1e9 / (kReps * static_cast<double>(kA) * log_b));
  const double log_ratio =
      static_cast<double>(std::bit_width(kB / kA)) + 1.0;
  m.gallop_ns_per_probe = std::max(
      0.05, bin_s * 1e9 / (kReps * static_cast<double>(kA) * log_ratio));

  (void)sink;
  return m;
}

}  // namespace atlc::intersect
