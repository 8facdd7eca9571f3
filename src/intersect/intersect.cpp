#include "atlc/intersect/intersect.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if ATLC_INTERSECT_AVX2
#include <immintrin.h>
#endif

namespace atlc::intersect {

namespace {

#if defined(__SSE2__)
/// Set bits of a 4-bit lane mask (_mm_movemask_ps); baseline x86-64 has no
/// popcnt instruction.
constexpr std::uint8_t kLanePopcount[16] = {0, 1, 1, 2, 1, 2, 2, 3,
                                            1, 2, 2, 3, 2, 3, 3, 4};
#endif

constexpr std::size_t kWindow = detail::kBinaryWindow;
constexpr std::size_t kLinearWindows = detail::kBinaryLinearWindows;

/// The window b[w, w + kWindow) holds x's lower bound, and every id before
/// w is below x: adds the number of ids below x to `w` (the lower bound's
/// index) and returns whether x is among them.
inline bool resolve_window(const VertexId* b, std::size_t& w, VertexId x) {
#if defined(__SSE2__)
  // Unsigned order through a signed compare: flip the sign bit of both
  // sides (ids at and above 2^31 would otherwise sort below the rest).
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i key = _mm_set1_epi32(static_cast<int>(x));
  const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + w));
  const __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + w + 4));
  const __m128i key_b = _mm_xor_si128(key, bias);
  const __m128i lt_lo = _mm_cmplt_epi32(_mm_xor_si128(lo, bias), key_b);
  const __m128i lt_hi = _mm_cmplt_epi32(_mm_xor_si128(hi, bias), key_b);
  const __m128i eq =
      _mm_or_si128(_mm_cmpeq_epi32(lo, key), _mm_cmpeq_epi32(hi, key));
  w += kLanePopcount[_mm_movemask_ps(_mm_castsi128_ps(lt_lo))] +
       kLanePopcount[_mm_movemask_ps(_mm_castsi128_ps(lt_hi))];
  return _mm_movemask_ps(_mm_castsi128_ps(eq)) != 0;
#else
  std::size_t below = 0;
  bool hit = false;
  for (std::size_t l = 0; l < kWindow; ++l) {
    below += b[w + l] < x;
    hit |= b[w + l] == x;
  }
  w += below;
  return hit;
#endif
}

/// count_ssi's 4x4 block merge from positions i and k on, then the scalar
/// tail: the whole kernel where AVX2 is absent, the tail where it is not.
inline std::uint64_t merge_from(std::span<const VertexId> a,
                                std::span<const VertexId> b, std::size_t i,
                                std::size_t k) {
  const std::size_t na = a.size(), nb = b.size();
  std::uint64_t count = 0;
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

}  // namespace

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
  }
  return "?";
}

TierKernel select_tier_kernel(std::size_t len_a, std::size_t len_b,
                              const TierPolicy& policy) {
  const auto lo = static_cast<double>(std::min(len_a, len_b));
  const auto hi = static_cast<double>(std::max(len_a, len_b));
  if (lo > 0.0 && hi / lo >= policy.gallop_ratio) return TierKernel::Gallop;
  return TierKernel::MergeVec;
}

std::uint64_t count_binary(std::span<const VertexId> a,
                           std::span<const VertexId> b) {
  // Keys from the shorter list, search tree over the longer one. The keys
  // ascend, so each search starts where the previous one ended.
  if (a.size() > b.size()) std::swap(a, b);
  const std::size_t nb = b.size();
  std::uint64_t count = 0;
  std::size_t base = 0;  // b[0, base) is strictly below the current key
  if (nb < kWindow) {
    // Too short for one window: gallop (exponential steps) to bracket the
    // key, then binary-search the bracket.
    for (const VertexId x : a) {
      if (base >= nb) break;
      std::size_t lo = base, hi = base, step = 1;
      while (hi < nb && b[hi] < x) {
        lo = hi + 1;
        hi = lo + step;
        step <<= 1;
      }
      hi = std::min(hi, nb);
      const auto first = b.begin();
      const auto it =
          std::lower_bound(first + static_cast<std::ptrdiff_t>(lo),
                           first + static_cast<std::ptrdiff_t>(hi), x);
      base = static_cast<std::size_t>(it - first);
      if (base < nb && b[base] == x) {
        ++count;
        ++base;  // keys are strictly ascending; the match can't repeat
      }
    }
    return count;
  }
  // Block search: find the window of kWindow ids that holds the key's lower
  // bound, then resolve it with SSE2 compares. A window past the end
  // is clamped to the last kWindow ids, so no load leaves the span; the ids
  // it re-reads below `base` are below the key too, so the count stays
  // exact.
  const VertexId* const data = b.data();
  for (const VertexId x : a) {
    if (base >= nb) break;
    // Invariant: b[0, lo) < x.
    std::size_t lo = base;
    std::size_t t = 0;
    for (; t < kLinearWindows && lo + kWindow < nb; ++t) {
      if (data[lo + kWindow - 1] >= x) break;
      lo += kWindow;
    }
    if (t == kLinearWindows) {
      // Still short of the key: gallop in whole windows, then bisect the
      // bracket [lo, hi] of the lower bound down to one window.
      std::size_t step = 2 * kWindow;
      while (lo + step < nb && data[lo + step - 1] < x) {
        lo += step;
        step <<= 1;
      }
      std::size_t hi = std::min(lo + step, nb);
      while (hi - lo > kWindow) {
        const std::size_t mid =
            lo + (hi - lo + kWindow) / (2 * kWindow) * kWindow;
        if (data[mid - 1] < x)
          lo = mid;
        else
          hi = mid;
      }
    }
    std::size_t w = std::min(lo, nb - kWindow);
    const bool hit = resolve_window(data, w, x);
    count += hit;
    base = w + hit;
  }
  return count;
}

namespace detail {

std::uint64_t count_ssi_sse2(std::span<const VertexId> a,
                             std::span<const VertexId> b) {
  return merge_from(a, b, 0, 0);
}

#if ATLC_INTERSECT_AVX2
__attribute__((target("avx2"))) std::uint64_t count_ssi_avx2(
    std::span<const VertexId> a, std::span<const VertexId> b) {
  const std::size_t na = a.size(), nb = b.size();
  std::uint64_t count = 0;
  std::size_t i = 0, k = 0;
  // 8x8 block merge, the 4x4 merge widened: b's block is compared in eight
  // arrangements, its two 128-bit halves swapped or not (permute2x128),
  // each rotated by 0-3 lanes within the halves (shuffle_epi32), so every
  // a lane meets every b lane once. Ids are unique per list, so the
  // popcount of the OR'ed equality mask is the block pair's count.
  while (i + 8 <= na && k + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + k));
    const __m256i vs = _mm256_permute2x128_si256(vb, vb, 0x01);
    const __m256i eq_b = _mm256_or_si256(
        _mm256_or_si256(
            _mm256_cmpeq_epi32(va, vb),
            _mm256_cmpeq_epi32(
                va, _mm256_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1)))),
        _mm256_or_si256(
            _mm256_cmpeq_epi32(
                va, _mm256_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))),
            _mm256_cmpeq_epi32(
                va, _mm256_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3)))));
    const __m256i eq_s = _mm256_or_si256(
        _mm256_or_si256(
            _mm256_cmpeq_epi32(va, vs),
            _mm256_cmpeq_epi32(
                va, _mm256_shuffle_epi32(vs, _MM_SHUFFLE(0, 3, 2, 1)))),
        _mm256_or_si256(
            _mm256_cmpeq_epi32(
                va, _mm256_shuffle_epi32(vs, _MM_SHUFFLE(1, 0, 3, 2))),
            _mm256_cmpeq_epi32(
                va, _mm256_shuffle_epi32(vs, _MM_SHUFFLE(2, 1, 0, 3)))));
    count += static_cast<std::uint64_t>(std::popcount(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_or_si256(eq_b, eq_s))))));
    const VertexId a_max = a[i + 7], b_max = b[k + 7];
    i += a_max <= b_max ? 8 : 0;
    k += b_max <= a_max ? 8 : 0;
  }
  return count + merge_from(a, b, i, k);
}

bool avx2_supported() {
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
}
#endif

}  // namespace detail

const char* intersect_isa() {
#if ATLC_INTERSECT_AVX2
  if (detail::avx2_supported()) return "avx2";
#endif
#if defined(__SSE2__)
  return "sse2";
#else
  return "scalar";
#endif
}

std::uint64_t count_ssi(std::span<const VertexId> a,
                        std::span<const VertexId> b) {
#if ATLC_INTERSECT_AVX2
  if (detail::avx2_supported()) return detail::count_ssi_avx2(a, b);
#endif
  return detail::count_ssi_sse2(a, b);
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
