#include "atlc/intersect/intersect.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace atlc::intersect {

#if defined(__SSE2__)
namespace {
/// Set bits of a 4-bit lane mask (_mm_movemask_ps); baseline x86-64 has no
/// popcnt instruction.
constexpr std::uint8_t kLanePopcount[16] = {0, 1, 1, 2, 1, 2, 2, 3,
                                            1, 2, 2, 3, 2, 3, 3, 4};
}  // namespace
#endif

const char* method_name(Method m) {
  switch (m) {
    case Method::Binary: return "binary";
    case Method::SSI: return "ssi";
    case Method::Hybrid: return "hybrid";
  }
  return "?";
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::Paper: return "paper";
    case Tier::Tiered: return "tiered";
  }
  return "?";
}

const char* tier_kernel_name(TierKernel k) {
  switch (k) {
    case TierKernel::MergeVec: return "merge_vec";
    case TierKernel::Gallop: return "gallop";
    case TierKernel::Bitmap: return "bitmap";
  }
  return "?";
}

TierKernel select_tier_kernel(std::size_t row_len, std::size_t other_len,
                              const TierPolicy& policy, bool stable_row) {
  if (stable_row && row_len >= policy.bitmap_min_row)
    return TierKernel::Bitmap;
  const auto lo = static_cast<double>(std::min(row_len, other_len));
  const auto hi = static_cast<double>(std::max(row_len, other_len));
  if (lo > 0.0 && hi / lo >= policy.gallop_ratio) return TierKernel::Gallop;
  return TierKernel::MergeVec;
}

std::uint64_t count_binary(std::span<const VertexId> a,
                           std::span<const VertexId> b) {
  // Keys from the shorter list, search tree over the longer one. The keys
  // ascend, so each search starts where the previous one ended: gallop
  // (exponential steps) to bracket the key, then binary-search the bracket.
  if (a.size() > b.size()) std::swap(a, b);
  std::uint64_t count = 0;
  std::size_t base = 0;  // b[0, base) is strictly below the current key
  for (const VertexId x : a) {
    if (base >= b.size()) break;
    std::size_t lo = base, hi = base, step = 1;
    while (hi < b.size() && b[hi] < x) {
      lo = hi + 1;
      hi = lo + step;
      step <<= 1;
    }
    hi = std::min(hi, b.size());
    const auto first = b.begin();
    const auto it =
        std::lower_bound(first + static_cast<std::ptrdiff_t>(lo),
                         first + static_cast<std::ptrdiff_t>(hi), x);
    base = static_cast<std::size_t>(it - first);
    if (base < b.size() && b[base] == x) {
      ++count;
      ++base;  // keys are strictly ascending; the match can't repeat
    }
  }
  return count;
}

std::uint64_t count_ssi(std::span<const VertexId> a,
                        std::span<const VertexId> b) {
  const std::size_t na = a.size(), nb = b.size();
  std::uint64_t count = 0;
  std::size_t i = 0, k = 0;
#if defined(__SSE2__)
  // 4x4 block merge. Every id of one block is compared with every id of
  // the other (b rotated by 0-3 lanes: vb, vb1, vb2, vb3), so a block
  // pair's matches are all found at once; ids are unique per list, so each
  // a lane matches at most one b lane and the popcount is the block pair's
  // count. The side whose block maximum is not larger has no id left to
  // match and advances. Equality compares need no sign handling, the
  // advance compares are unsigned scalar ones. Loads are unaligned (spans
  // start anywhere) and stay inside the spans.
  while (i + 4 <= na && k + 4 <= nb) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.data() + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.data() + k));
    const __m128i vb1 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
    const __m128i vb2 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
    const __m128i vb3 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3));
    const __m128i eq =
        _mm_or_si128(_mm_or_si128(_mm_cmpeq_epi32(va, vb),
                                  _mm_cmpeq_epi32(va, vb1)),
                     _mm_or_si128(_mm_cmpeq_epi32(va, vb2),
                                  _mm_cmpeq_epi32(va, vb3)));
    count += kLanePopcount[_mm_movemask_ps(_mm_castsi128_ps(eq))];
    const VertexId a_max = a[i + 3], b_max = b[k + 3];
    i += a_max <= b_max ? 4 : 0;
    k += b_max <= a_max ? 4 : 0;
  }
#endif
  // Branch-reduced two-pointer merge: the tail after the blocks, and the
  // whole kernel without SSE2.
  while (i < na && k < nb) {
    const VertexId x = a[i], y = b[k];
    count += (x == y);
    i += (x <= y);
    k += (y <= x);
  }
  return count;
}

bool prefer_ssi(std::size_t len_a, std::size_t len_b) {
  if (len_a > len_b) std::swap(len_a, len_b);
  if (len_a == 0 || len_b == 0) return true;  // trivially cheap either way
  // |B|/|A| <= log2(|B|) - 1  (paper Eq. 3). bit_width(x)-1 == floor(log2 x).
  const double log2_b = static_cast<double>(std::bit_width(len_b) - 1);
  return static_cast<double>(len_b) / static_cast<double>(len_a) <=
         log2_b - 1.0;
}

std::uint64_t count_hybrid(std::span<const VertexId> a,
                           std::span<const VertexId> b) {
  return prefer_ssi(a.size(), b.size()) ? count_ssi(a, b) : count_binary(a, b);
}

std::uint64_t count_common(std::span<const VertexId> a,
                           std::span<const VertexId> b, Method m) {
  switch (m) {
    case Method::Binary: return count_binary(a, b);
    case Method::SSI: return count_ssi(a, b);
    case Method::Hybrid: return count_hybrid(a, b);
  }
  return 0;
}

std::span<const VertexId> suffix_above(std::span<const VertexId> s,
                                       VertexId floor) {
  const auto it = std::upper_bound(s.begin(), s.end(), floor);
  return s.subspan(static_cast<std::size_t>(it - s.begin()));
}

std::uint64_t count_common_above(std::span<const VertexId> a,
                                 std::span<const VertexId> b, VertexId floor,
                                 Method m) {
  return count_common(suffix_above(a, floor), suffix_above(b, floor), m);
}

}  // namespace atlc::intersect
