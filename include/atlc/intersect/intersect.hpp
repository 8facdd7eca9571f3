#pragma once

#include <concepts>
#include <cstdint>
#include <span>

#include "atlc/graph/types.hpp"

namespace atlc::intersect {

using graph::VertexId;

/// Intersection kernel selector (paper Section II-C / III-C).
enum class Method : std::uint8_t {
  Binary,  ///< Algorithm 1: binary-search each key of the shorter list
  SSI,     ///< Algorithm 2: sorted set intersection (two-pointer merge)
  Hybrid,  ///< per-pair choice via the Eq. (3) frontier rule
};

[[nodiscard]] const char* method_name(Method m);

/// Dispatch and pricing of local intersections. `Paper` picks count_binary
/// or count_ssi by `Method` and prices them with CostModel::seconds (the
/// default: every virtual-time smoke baseline is calibrated against it and
/// stays bit-identical); `Tiered` picks between the same two kernels by
/// list shape, priced with CostModel::seconds_tiered (tiered.hpp,
/// DESIGN.md §9). Both tiers run the same counting code.
enum class Tier : std::uint8_t { Paper, Tiered };

[[nodiscard]] const char* tier_name(Tier t);

/// The concrete kernel the Tiered dispatch picked for one pair — also the
/// key the cost model prices tiered intersections under.
enum class TierKernel : std::uint8_t {
  MergeVec,  ///< count_ssi, the block merge (the long-tail default)
  Gallop,    ///< count_binary, the galloping search (highly skewed pairs)
};

[[nodiscard]] const char* tier_kernel_name(TierKernel k);

/// Shape threshold of the Tiered dispatch (EngineConfig::tier_policy).
struct TierPolicy {
  /// Pairs gallop when |long|/|short| is at or above this ratio; the rest
  /// take the block merge.
  double gallop_ratio = 32.0;
};

/// The Tiered selection rule: Gallop at or above the skew ratio, else
/// MergeVec. It reads the list lengths only, so it is the same on every
/// partition kind.
[[nodiscard]] TierKernel select_tier_kernel(std::size_t len_a,
                                            std::size_t len_b,
                                            const TierPolicy& policy);

/// |a ∩ b| via binary search (paper Algorithm 1). Internally searches the
/// shorter list's elements in the longer list — "one should always assign
/// the longer list as the search tree and the shorter one as the array of
/// keys". The keys ascend, so each search starts from a monotone cursor
/// instead of spanning the whole list per key, and it works in windows of
/// eight ids: a few windows are stepped through from the cursor, a key
/// still further on gallops window by window and bisects down to one
/// window, and that window is resolved with SSE2 compares (unsigned,
/// so ids at and above 2^31 order correctly). O(|short| log(|long| /
/// |short|)). A longer list under eight ids takes a plain gallop and
/// binary search. Preconditions: both spans sorted ascending, no
/// duplicates.
[[nodiscard]] std::uint64_t count_binary(std::span<const VertexId> a,
                                         std::span<const VertexId> b);

/// |a ∩ b| via sorted set intersection (paper Algorithm 2), merged in
/// blocks: 8x8 with AVX2 compares where the host has AVX2 (chosen once per
/// process, GCC/Clang on x86-64 only), else 4x4 with SSE2 compares (all of
/// x86-64), and by a branch-reduced two-pointer loop for the tail and where
/// there is no SSE2. intersect_isa() names the merge this process runs.
/// Preconditions: both spans sorted ascending, no duplicates.
[[nodiscard]] std::uint64_t count_ssi(std::span<const VertexId> a,
                                      std::span<const VertexId> b);

/// The block merge count_ssi runs in this process: "avx2", "sse2", or
/// "scalar" on a target without SSE2. Bench documents record it
/// (meta.intersect_isa), so a wall time can be traced to its kernel.
[[nodiscard]] const char* intersect_isa();

// count_ssi's one dispatch point is compiled only where the compiler can
// target AVX2 per function and ask the CPU for it at run time.
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define ATLC_INTERSECT_AVX2 1
#else
#define ATLC_INTERSECT_AVX2 0
#endif

namespace detail {
/// count_binary's search unit: a key is resolved inside one window of this
/// many ids of the long list.
inline constexpr std::size_t kBinaryWindow = 8;
/// Windows count_binary steps through one by one from the cursor before it
/// gallops: consecutive keys of a pair the Eq. (3) rule sends to binary
/// search usually lie a few windows apart, so most keys never gallop.
inline constexpr std::size_t kBinaryLinearWindows = 4;

/// count_ssi's bodies, reachable so tests can check each on any host that
/// runs it: the 4x4 SSE2 merge (the fallback, and the whole kernel without
/// the AVX2 path) and the 8x8 AVX2 merge (call only if avx2_supported()).
[[nodiscard]] std::uint64_t count_ssi_sse2(std::span<const VertexId> a,
                                           std::span<const VertexId> b);
#if ATLC_INTERSECT_AVX2
[[nodiscard]] std::uint64_t count_ssi_avx2(std::span<const VertexId> a,
                                           std::span<const VertexId> b);
/// Whether this CPU runs AVX2, asked once per process.
[[nodiscard]] bool avx2_supported();
#endif
}  // namespace detail

/// Eq. (3): SSI is predicted faster than binary search iff
/// |B|/|A| <= log2(|B|) - 1, with |A| <= |B|.
[[nodiscard]] bool prefer_ssi(std::size_t len_a, std::size_t len_b);

/// |a ∩ b| choosing the kernel per Eq. (3) (paper hybrid method).
[[nodiscard]] std::uint64_t count_hybrid(std::span<const VertexId> a,
                                         std::span<const VertexId> b);

/// Dispatch on a runtime-selected method.
[[nodiscard]] std::uint64_t count_common(std::span<const VertexId> a,
                                         std::span<const VertexId> b,
                                         Method m = Method::Hybrid);

/// |{x in a ∩ b : x > floor}| — the upper-triangle restriction of paper
/// Section II-C that de-duplicates triangle enumeration: when processing
/// edge (i,j), only common neighbors k with k > j are counted.
[[nodiscard]] std::uint64_t count_common_above(std::span<const VertexId> a,
                                               std::span<const VertexId> b,
                                               VertexId floor,
                                               Method m = Method::Hybrid);

/// Trim `s` to the suffix with elements strictly greater than `floor`.
[[nodiscard]] std::span<const VertexId> suffix_above(
    std::span<const VertexId> s, VertexId floor);

/// Visit every element of a ∩ b in ascending order (two-pointer merge, the
/// SSI walk of paper Algorithm 2 with a visitor instead of a counter).
/// Kernels that need the common neighbors themselves — Adamic–Adar weights
/// each by its degree — use this through Intersector::for_each_common,
/// which prices it as the SSI intersection it performs. Preconditions:
/// sorted, no duplicates.
template <typename F>
  requires std::invocable<F&, VertexId>
void for_each_common(std::span<const VertexId> a, std::span<const VertexId> b,
                     F&& visit) {
  std::size_t i = 0, k = 0;
  while (i < a.size() && k < b.size()) {
    if (a[i] < b[k]) {
      ++i;
    } else if (b[k] < a[i]) {
      ++k;
    } else {
      visit(a[i]);
      ++i;
      ++k;
    }
  }
}

}  // namespace atlc::intersect
