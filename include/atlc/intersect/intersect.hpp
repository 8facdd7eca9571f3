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
/// stays bit-identical); `Tiered` picks per list shape among the same two
/// kernels and a reusable row bitmap, priced with CostModel::seconds_tiered
/// (tiered.hpp, DESIGN.md §9). Both tiers run the same counting code.
enum class Tier : std::uint8_t { Paper, Tiered };

[[nodiscard]] const char* tier_name(Tier t);

/// The concrete kernel the Tiered dispatch picked for one pair — also the
/// key the cost model prices tiered intersections under.
enum class TierKernel : std::uint8_t {
  MergeVec,  ///< count_ssi, the block merge (the long-tail default)
  Gallop,    ///< count_binary, the galloping search (highly skewed pairs)
  Bitmap,    ///< dense row bitmap + word-AND popcount (hub rows)
};

[[nodiscard]] const char* tier_kernel_name(TierKernel k);

/// Shape thresholds of the Tiered dispatch (EngineConfig::tier_policy).
struct TierPolicy {
  /// Rows at least this long get a reusable dense bitmap ("hub rows"); the
  /// build cost amortises over the row's contiguous run of edges in the
  /// pipeline's edge stream (DESIGN.md §9).
  std::size_t bitmap_min_row = 256;
  /// Pairs that get no bitmap (below the threshold, or on a transient row)
  /// gallop when |long|/|short| is at or above this ratio; the rest take
  /// the block merge.
  double gallop_ratio = 32.0;
};

/// The Tiered selection rule: Bitmap if the row is reusable (`stable_row`)
/// and `row_len` reaches `policy.bitmap_min_row`, else Gallop at or above
/// the skew ratio, else MergeVec. A transient row (stable_row == false)
/// never gets a bitmap: with no later edge to reuse it, its build cost
/// cannot amortise, so the pair is judged by shape alone.
[[nodiscard]] TierKernel select_tier_kernel(std::size_t row_len,
                                            std::size_t other_len,
                                            const TierPolicy& policy,
                                            bool stable_row);

/// |a ∩ b| via binary search (paper Algorithm 1). Internally searches the
/// shorter list's elements in the longer list — "one should always assign
/// the longer list as the search tree and the shorter one as the array of
/// keys". The keys ascend, so the search gallops from a monotone cursor
/// instead of spanning the whole list per key: O(|short| log(|long| /
/// |short|)). Preconditions: both spans sorted ascending, no duplicates.
[[nodiscard]] std::uint64_t count_binary(std::span<const VertexId> a,
                                         std::span<const VertexId> b);

/// |a ∩ b| via sorted set intersection (paper Algorithm 2), merged in 4x4
/// blocks with SSE2 compares where the target has SSE2 (all of x86-64) and
/// by a branch-reduced two-pointer loop otherwise and for the tail.
/// Preconditions: both spans sorted ascending, no duplicates.
[[nodiscard]] std::uint64_t count_ssi(std::span<const VertexId> a,
                                      std::span<const VertexId> b);

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
