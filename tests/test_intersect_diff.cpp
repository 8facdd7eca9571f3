// Randomized differential harness for every intersection kernel tier:
// binary (block gallop), SSI (both block merges: 4x4 SSE2 and, where the
// host has it, 8x8 AVX2), hybrid,
// for_each_common, count_common_above, the TieredIntersector dispatch and
// the engine-facing Intersector are all cross-checked against a trivial
// std::set_intersection oracle over >10k seeded pairs. Vectorized/block
// kernels break silently on boundary lengths, so the sweep deliberately
// pins every length up to 17 and those straddling 32, every length pair up
// to two 8-lane blocks and a tail with a common id in each lane position,
// spans that end exactly at their allocation (an overread is an ASan
// report), ids at and above 2^31 (a signed compare misorders them),
// and the degenerate structures (empty, one-element, disjoint, subset,
// identical) alongside the random bulk. Runs under ASan/UBSan in the tier-1
// CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "atlc/intersect/cost_model.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/intersect/intersector.hpp"
#include "atlc/intersect/tiered.hpp"
#include "atlc/util/rng.hpp"

namespace atlc::intersect {
namespace {

using V = std::vector<VertexId>;

V oracle(std::span<const VertexId> a, std::span<const VertexId> b) {
  V out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

V random_sorted_unique(std::size_t len, VertexId universe, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  V v;
  v.reserve(len);
  for (std::size_t i = 0; i < len * 2 && v.size() < len; ++i)
    v.push_back(static_cast<VertexId>(rng.next_below(universe)));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Policies that pin the TieredIntersector to one kernel each, so both
/// kernels' counting and cost charging are exercised on every pair
/// regardless of shape.
TierPolicy force_gallop() { return {.gallop_ratio = 0.0}; }
TierPolicy force_merge() { return {.gallop_ratio = 1e300}; }

/// The trace label Intersector::count gives a Tiered pair run by `k`.
std::string tiered_label(TierKernel k) {
  return std::string("intersect_") +
         (k == TierKernel::MergeVec ? "merge" : tier_kernel_name(k));
}

/// The Intersector against the formulas the engine priced with before it
/// existed: count_common + CostModel::seconds per Paper method,
/// TieredIntersector::intersect_transient, and the SSI-priced
/// for_each_common walk. Counts AND seconds must match exactly — this is
/// what keeps every virtual-time baseline bit-identical.
std::uint64_t check_intersector(const V& a, const V& b,
                                std::uint64_t expected) {
  const CostModel cost;
  std::uint64_t checks = 0;
  for (auto m : {Method::Binary, Method::SSI, Method::Hybrid}) {
    const Intersector isect(m, Tier::Paper, TierPolicy{}, cost);
    const auto out = isect.count(a, b);
    checks += 3;
    EXPECT_EQ(out.common, count_common(a, b, m)) << method_name(m);
    EXPECT_EQ(out.seconds, cost.seconds(m, a.size(), b.size()))
        << method_name(m);
    EXPECT_STREQ(out.label, "intersect");
  }
  for (const TierPolicy& policy :
       {TierPolicy{}, force_gallop(), force_merge()}) {
    const Intersector isect(Method::Hybrid, Tier::Tiered, policy, cost);
    const auto want = TieredIntersector(policy, cost).intersect_transient(a, b);
    const auto got = isect.count(a, b);
    checks += 4;
    EXPECT_EQ(got.common, expected);
    EXPECT_EQ(got.common, want.common);
    EXPECT_EQ(got.seconds, want.seconds);
    EXPECT_EQ(std::string(got.label), tiered_label(want.kernel));
  }
  for (auto tier : {Tier::Paper, Tier::Tiered}) {
    const Intersector isect(Method::Binary, tier, TierPolicy{}, cost);
    V visited;
    const auto walk =
        isect.for_each_common(a, b, [&](VertexId x) { visited.push_back(x); });
    checks += 3;
    EXPECT_EQ(visited, oracle(a, b));
    EXPECT_EQ(walk.common, expected);
    EXPECT_EQ(walk.seconds, cost.seconds(Method::SSI, a.size(), b.size()));
  }
  return checks;
}

/// One of count_ssi's bodies (intersect.hpp, detail::).
using SsiBody = std::uint64_t (*)(std::span<const VertexId>,
                                  std::span<const VertexId>);

/// The kernels that need no vertex universe, on spans (which may be views
/// into larger allocations), in both argument orders: the two counting
/// kernels, the count_ssi body `ssi_body` on its own, the hybrid rule, the
/// Tiered dispatch, and the visitor walk. Returns the number of comparisons
/// performed.
std::uint64_t check_counts(std::span<const VertexId> a,
                           std::span<const VertexId> b,
                           SsiBody ssi_body = &detail::count_ssi_sse2) {
  const V common = oracle(a, b);
  const auto expected = static_cast<std::uint64_t>(common.size());
  std::uint64_t checks = 0;
  const auto expect = [&](std::uint64_t got, const char* kernel) {
    ++checks;
    EXPECT_EQ(got, expected) << kernel << " |a|=" << a.size()
                             << " |b|=" << b.size();
  };
  expect(count_binary(a, b), "binary");
  expect(count_binary(b, a), "binary/swapped");
  expect(count_ssi(a, b), "ssi");
  expect(count_ssi(b, a), "ssi/swapped");
  expect(ssi_body(a, b), "ssi body");
  expect(ssi_body(b, a), "ssi body/swapped");
  expect(count_hybrid(a, b), "hybrid");
  expect(count_hybrid(b, a), "hybrid/swapped");
  const TieredIntersector tiered(TierPolicy{}, CostModel{});
  expect(tiered.intersect_transient(a, b).common, "tiered/transient");
  expect(tiered.intersect_transient(b, a).common, "tiered/transient/swapped");
  V visited;
  for_each_common(a, b, [&](VertexId x) { visited.push_back(x); });
  ++checks;
  EXPECT_EQ(visited, common) << "for_each_common |a|=" << a.size()
                             << " |b|=" << b.size();
  return checks;
}

/// Cross-check every kernel tier on one (a, b) pair. All ids must be
/// < `universe`, the floor above everything. Returns the number of
/// kernel-vs-oracle comparisons performed, so the suite can assert the
/// sweep actually reached the promised scale.
std::uint64_t check_pair(const V& a, const V& b, VertexId universe,
                         SsiBody ssi_body = &detail::count_ssi_sse2) {
  const V common = oracle(a, b);
  const auto expected = static_cast<std::uint64_t>(common.size());
  std::uint64_t checks = check_counts(a, b, ssi_body);
  const auto expect = [&](std::uint64_t got, const char* kernel) {
    ++checks;
    EXPECT_EQ(got, expected) << kernel << " |a|=" << a.size()
                             << " |b|=" << b.size() << " universe=" << universe;
  };

  // count_common_above at the boundary floors: below everything, equal to
  // the first/last common element, and above the entire universe.
  V floors = {0, universe};
  if (!common.empty()) {
    floors.push_back(common.front());
    floors.push_back(common.back());
    floors.push_back(common[common.size() / 2]);
  }
  for (VertexId floor : floors) {
    const auto above = static_cast<std::uint64_t>(std::count_if(
        common.begin(), common.end(), [&](VertexId v) { return v > floor; }));
    for (auto m : {Method::Binary, Method::SSI, Method::Hybrid}) {
      ++checks;
      EXPECT_EQ(count_common_above(a, b, floor, m), above)
          << "count_common_above floor=" << floor << " method "
          << method_name(m);
    }
  }

  // TieredIntersector pinned to each kernel in turn.
  const CostModel cost;
  const struct {
    TierPolicy policy;
    TierKernel want;
  } forced[] = {{force_gallop(), TierKernel::Gallop},
                {force_merge(), TierKernel::MergeVec}};
  for (const auto& f : forced) {
    const TieredIntersector ti(f.policy, cost);
    const auto out = ti.intersect_transient(a, b);
    expect(out.common, tier_kernel_name(f.want));
    ++checks;
    // An empty short side legitimately falls through Gallop to MergeVec.
    if (f.want != TierKernel::Gallop || (!a.empty() && !b.empty()))
      EXPECT_EQ(out.kernel, f.want)
          << "dispatch picked " << tier_kernel_name(out.kernel);
    ++checks;
    EXPECT_GE(out.seconds, 0.0);
  }
  return checks + check_intersector(a, b, expected);
}

// ------------------------------------------------ both count_ssi bodies ---

enum class SsiPath { Sse2, Avx2 };

/// The exactness cases that run once per count_ssi body (the dispatched
/// count_ssi is checked in both runs too). The AVX2 run is skipped where
/// its body cannot run.
class SsiPaths : public ::testing::TestWithParam<SsiPath> {
 protected:
  void SetUp() override {
    if (GetParam() == SsiPath::Sse2) {
      body_ = &detail::count_ssi_sse2;
      return;
    }
#if ATLC_INTERSECT_AVX2
    if (detail::avx2_supported()) {
      body_ = &detail::count_ssi_avx2;
      return;
    }
    GTEST_SKIP() << "this CPU has no AVX2, so the 8x8 merge cannot run";
#else
    GTEST_SKIP() << "built without the AVX2 merge (GCC/Clang on x86-64 only)";
#endif
  }

  SsiBody body_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(IntersectDiff, SsiPaths,
                         ::testing::Values(SsiPath::Sse2, SsiPath::Avx2),
                         [](const ::testing::TestParamInfo<SsiPath>& info) {
                           return info.param == SsiPath::Sse2 ? "sse2"
                                                              : "avx2";
                         });

// --------------------------------------------------- boundary-length grid ---

// Every length up to two 8-lane blocks and a tail, lengths straddling 32,
// and the degenerate ends.
constexpr std::size_t kBoundaryLens[] = {0,  1,  2,  3,  4,  5,  6,  7,
                                         8,  9,  10, 11, 12, 13, 14, 15,
                                         16, 17, 31, 32, 33, 64};

TEST_P(SsiPaths, BoundaryLengthGrid) {
  std::uint64_t pairs = 0;
  for (std::size_t la : kBoundaryLens) {
    for (std::size_t lb : kBoundaryLens) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto universe =
            static_cast<VertexId>(3 * (la + lb) + 5 + seed % 3);
        const V a = random_sorted_unique(la, universe, seed * 7919 + la);
        const V b = random_sorted_unique(lb, universe, seed * 104729 + lb);
        check_pair(a, b, universe, body_);
        ++pairs;
      }
    }
  }
  EXPECT_EQ(pairs, 22u * 22u * 4u);
}

// ----------------------------------------------------- structured shapes ---

TEST(IntersectDiff, StructuredShapes) {
  for (std::size_t len : kBoundaryLens) {
    const auto universe = static_cast<VertexId>(4 * len + 8);
    // Identical lists.
    V evens, odds, subset;
    for (std::size_t i = 0; i < len; ++i) {
      evens.push_back(static_cast<VertexId>(2 * i));
      odds.push_back(static_cast<VertexId>(2 * i + 1));
      if (i % 2 == 0) subset.push_back(static_cast<VertexId>(2 * i));
    }
    check_pair(evens, evens, universe);   // identical
    check_pair(evens, odds, universe);    // fully disjoint, interleaved
    check_pair(evens, subset, universe);  // proper subset
    check_pair(evens, V{}, universe);     // vs empty
    if (!evens.empty()) {
      check_pair(evens, V{evens.front()}, universe);  // one-element, hit
      check_pair(evens, V{evens.back()}, universe);
      check_pair(evens, V{static_cast<VertexId>(universe - 1)},
                 universe);  // one-element, miss above all
    }
  }
}

// ------------------------------------------------------ SIMD boundaries ---

/// Sorted lists of `la` and `lb` ids that interleave (a's ids are 0 mod 4,
/// b's 2 mod 4) around one shared id 100 at a[p] and b[q]; p == la or
/// q == lb means no shared id.
std::pair<V, V> lane_pair(std::size_t la, std::size_t lb, std::size_t p,
                          std::size_t q) {
  V a(la), b(lb);
  for (std::size_t i = 0; i < la; ++i)
    a[i] = static_cast<VertexId>(100 + 4 * i - 4 * p);
  for (std::size_t j = 0; j < lb; ++j)
    b[j] = static_cast<VertexId>(102 + 4 * j - 4 * q);
  if (p < la && q < lb) b[q] = 100;
  return {a, b};
}

// Every length pair up to two 8-lane blocks and a tail, with the one
// common id in every (a lane, b lane) position and in none: a dropped
// rotation, a dropped half swap or an off-by-one block advance misses or
// double-counts some of these.
TEST_P(SsiPaths, OneCommonIdInEveryLanePosition) {
  std::uint64_t pairs = 0;
  for (std::size_t la = 0; la <= 17; ++la) {
    for (std::size_t lb = 0; lb <= 17; ++lb) {
      for (std::size_t p = 0; p <= la; ++p) {
        for (std::size_t q = 0; q <= lb; ++q) {
          const auto [a, b] = lane_pair(la, lb, p, q);
          ASSERT_TRUE(std::is_sorted(a.begin(), a.end()));
          ASSERT_TRUE(std::is_sorted(b.begin(), b.end()));
          ASSERT_EQ(oracle(a, b).size(), p < la && q < lb ? 1u : 0u);
          check_pair(a, b, 4 * (la + lb) + 200, body_);
          ++pairs;
        }
      }
    }
  }
  EXPECT_EQ(pairs, 171u * 171u);
}

// Spans starting 1-3 ids into their allocation (unaligned loads) and ending
// exactly at its end: a 16- or 32-byte load past the last id reads outside
// the allocation, which the ASan build reports.
TEST_P(SsiPaths, SubspansEndingAtTheirAllocation) {
  for (std::size_t offset = 1; offset <= 3; ++offset) {
    for (std::size_t len = 0; len <= 33; ++len) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto universe = static_cast<VertexId>(3 * len + 8);
        const V a = random_sorted_unique(offset + len, universe, seed + len);
        const V b = random_sorted_unique(offset + len + seed, universe,
                                         seed * 977 + len);
        const auto a_heap = std::make_unique<VertexId[]>(a.size());
        const auto b_heap = std::make_unique<VertexId[]>(b.size());
        std::copy(a.begin(), a.end(), a_heap.get());
        std::copy(b.begin(), b.end(), b_heap.get());
        const std::span<const VertexId> sa(a_heap.get(), a.size());
        const std::span<const VertexId> sb(b_heap.get(), b.size());
        const std::size_t ao = std::min(offset, a.size());
        const std::size_t bo = std::min(offset, b.size());
        check_counts(sa.subspan(ao), sb.subspan(bo), body_);
        check_counts(sa.subspan(ao), sb, body_);
        check_counts(sa, sb.subspan(bo), body_);
      }
    }
  }
}

// Ids at and above 2^31, up to 0xFFFFFFFF, alone and mixed with low ids:
// a signed 32-bit compare orders these wrongly.
TEST_P(SsiPaths, IdsAboveTwoToThe31) {
  constexpr VertexId kTop = 0xFFFFFFFFu, kHalf = 0x80000000u;
  const V edges = {0,        1,         kHalf - 2, kHalf - 1, kHalf,
                   kHalf + 1, kTop - 4, kTop - 1,  kTop};
  check_counts(edges, edges, body_);
  check_counts(edges, V{kTop}, body_);
  check_counts(edges, V{kHalf - 1, kHalf}, body_);
  std::uint64_t checks = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Xoshiro256 rng(seed);
    const std::size_t la = rng.next_below(40), lb = rng.next_below(40);
    // Low random ids lifted to [base, base + range), range small enough
    // that the lists overlap.
    const auto lift = [&](V v, VertexId base) {
      for (auto& x : v) x += base;
      return v;
    };
    const auto range = static_cast<VertexId>(2 * (la + lb) + 4);
    V a = lift(random_sorted_unique(la, range, seed), kTop - range);
    V b = lift(random_sorted_unique(lb, range, seed * 7), kTop - range);
    if (seed % 2 == 0) {
      a.push_back(kTop);
      b.push_back(kTop);
    }
    checks += check_counts(a, b, body_);
    // Straddling the sign boundary.
    a = lift(random_sorted_unique(la, range, seed * 3), kHalf - range / 2);
    b = lift(random_sorted_unique(lb, range, seed * 5), kHalf - range / 2);
    checks += check_counts(a, b, body_);
  }
  EXPECT_GE(checks, 200u * 2u * 9u);
}

// count_binary on skewed pairs, keys short-first and long-first. The long
// list is a prefix of a longer allocation whose ids continue past it, so a
// window loaded past its end would find ids that are not in the list (a
// miscount, with or without a sanitizer). Keys land before the first id,
// on the first and last ids and beyond; on the bracket edges of a gallop
// (offsets 2^k - 1, 2^k, 2^k + 1 from the cursor); 0 to the linear limit
// + 3 windows ahead of the cursor, at a window's first, second and last
// lane; inside the clamped last window; and above the last id. Long lists
// of 8, 9 and 15 ids are one window, one window and an id, and all but
// one id of two windows.
TEST(IntersectDiff, SkewedBinaryBothOrders) {
  constexpr std::size_t kWindow = detail::kBinaryWindow;
  for (const std::size_t long_len : {8u, 9u, 15u, 1000u, 1024u, 4097u}) {
    V backing(long_len + 2 * kWindow);
    for (std::size_t i = 0; i < backing.size(); ++i)
      backing[i] = static_cast<VertexId>(2 * i + 10);
    const std::span<const VertexId> tree(backing.data(), long_len);
    const VertexId last = tree.back();
    const auto beyond = static_cast<VertexId>(last + 2 * kWindow);
    std::vector<V> key_sets = {{0},       {10},      {last},  {last + 1},
                               {0, 10},   {9, 11},   {last - 1, last},
                               {10, last}, {0, last + 2}};
    for (std::size_t k = 1; k < long_len; k <<= 1) {
      V keys;
      for (const std::size_t i : {k - 1, k, k + 1})
        if (i < long_len) keys.push_back(tree[i]);
      if (k + 2 < long_len) keys.push_back(tree[k + 2] + 1);  // a miss
      key_sets.push_back(keys);
    }
    for (std::size_t ahead = 0; ahead <= detail::kBinaryLinearWindows + 3;
         ++ahead) {
      for (const std::size_t lane : {std::size_t{0}, std::size_t{1},
                                     kWindow - 1}) {
        V keys;  // each hit followed by a miss just past it
        for (std::size_t at = ahead * kWindow + lane; at < long_len;
             at += 1 + ahead * kWindow + lane) {
          keys.push_back(tree[at]);
          keys.push_back(tree[at] + 1);
        }
        key_sets.push_back(keys);
      }
    }
    for (std::size_t back = 1; back <= std::min(long_len, kWindow + 1);
         ++back) {
      const VertexId id = tree[long_len - back];
      key_sets.push_back({id});
      key_sets.push_back({id - 1, id + 1});
      key_sets.push_back({tree[0], id, last + 2});
      key_sets.push_back({id, last + 2, beyond});
    }
    key_sets.push_back({last + 2, last + 4, beyond});
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
      key_sets.push_back(random_sorted_unique(1 + seed % 9, 2 * last, seed));
    for (V& keys : key_sets) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      const auto want = oracle(keys, tree).size();
      EXPECT_EQ(count_binary(keys, tree), want)
          << "|tree|=" << long_len << " |keys|=" << keys.size();
      EXPECT_EQ(count_binary(tree, keys), want)
          << "|tree|=" << long_len << " |keys|=" << keys.size();
      EXPECT_EQ(count_hybrid(keys, tree), want);
      EXPECT_EQ(count_hybrid(tree, keys), want);
    }
  }
}

// --------------------------------------------------------- random sweeps ---

// The bulk of the 10k-pair budget: random lengths and densities, including
// hub-vs-leaf skew so Gallop sees realistic shapes.
TEST(IntersectDiff, RandomSweep10k) {
  std::uint64_t pairs = 0, checks = 0;
  util::Xoshiro256 shape_rng(2026);
  while (pairs < 9000) {
    const std::size_t la = shape_rng.next_below(96);
    const std::size_t lb = shape_rng.next_below(96);
    // Universe from tight (dense overlap) to loose (sparse overlap).
    const auto universe = static_cast<VertexId>(
        (la + lb + 2) * (1 + shape_rng.next_below(4)));
    const std::uint64_t seed = shape_rng();
    const V a = random_sorted_unique(la, universe, seed);
    const V b = random_sorted_unique(lb, universe, seed ^ 0xabcdef);
    checks += check_pair(a, b, universe);
    ++pairs;
  }
  // A smaller number of large pairs: long balanced hub rows and
  // gallop-friendly 100:1 ratios.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const VertexId universe = 1 << 14;
    const V hub = random_sorted_unique(2048, universe, seed);
    const V leaf = random_sorted_unique(16 + seed % 17, universe, seed * 31);
    checks += check_pair(hub, leaf, universe);
    const V mid = random_sorted_unique(512, universe, seed * 17);
    checks += check_pair(hub, mid, universe);
    pairs += 2;
  }
  EXPECT_GE(pairs, 9100u);
  EXPECT_GE(checks, 100000u);
}

// ------------------------------------------------------ Tiered dispatch ---

TEST(IntersectDiff, SelectTierKernelRule) {
  const TierPolicy p;  // default gallop_ratio = 32
  EXPECT_EQ(select_tier_kernel(256, 8, p), TierKernel::Gallop);  // 32x
  EXPECT_EQ(select_tier_kernel(255, 8, p), TierKernel::MergeVec);  // 31.9x
  EXPECT_EQ(select_tier_kernel(4, 128, p), TierKernel::Gallop);
  EXPECT_EQ(select_tier_kernel(128, 4, p), TierKernel::Gallop);
  EXPECT_EQ(select_tier_kernel(4096, 4096, p), TierKernel::MergeVec);
  EXPECT_EQ(select_tier_kernel(100, 100, p), TierKernel::MergeVec);
  EXPECT_EQ(select_tier_kernel(0, 100, p), TierKernel::MergeVec);
  EXPECT_EQ(select_tier_kernel(5, 100, p), TierKernel::MergeVec);  // 20x
}

// Tiered dispatch reads list shapes only: long balanced pairs merge, only
// pairs at or above the gallop ratio gallop, and each pair is priced and
// labelled as the kernel that ran. The Intersector every partition kind
// builds, 1D included, gives each pair (lists of 400 and 600 ids among
// them, in both orders) exactly what intersect_transient gives it: no
// kernel depends on which side is the rank's own row.
TEST(IntersectDiff, TieredDispatchesByShape) {
  const CostModel cost;
  V evens, thirds, leaf;
  for (VertexId i = 0; i < 600; ++i) evens.push_back(2 * i);
  for (VertexId i = 0; i < 400; ++i) thirds.push_back(3 * i);
  for (VertexId i = 0; i < 16; ++i) leaf.push_back(60 * i);

  const TieredIntersector ti(TierPolicy{}, cost);
  const Intersector isect(Method::Hybrid, Tier::Tiered, TierPolicy{}, cost);
  const auto expect_shape = [&](const V& a, const V& b, TierKernel want) {
    SCOPED_TRACE("|a|=" + std::to_string(a.size()) +
                 " |b|=" + std::to_string(b.size()));
    const auto out = ti.intersect_transient(a, b);
    EXPECT_EQ(out.kernel, want);
    EXPECT_EQ(out.common, oracle(a, b).size());
    EXPECT_EQ(out.seconds, cost.seconds_tiered(want, a.size(), b.size()));
    const auto got = isect.count(a, b);
    EXPECT_EQ(got.common, out.common);
    EXPECT_EQ(got.seconds, out.seconds);
    EXPECT_EQ(std::string(got.label), tiered_label(want));
  };
  // Balanced, both lists long (1.5x): the block merge.
  expect_shape(evens, thirds, TierKernel::MergeVec);
  expect_shape(thirds, evens, TierKernel::MergeVec);
  // One long list, skewed 37.5x: the galloping search.
  expect_shape(evens, leaf, TierKernel::Gallop);
  expect_shape(leaf, evens, TierKernel::Gallop);
}

TEST(IntersectDiff, TierNamesNamed) {
  EXPECT_STREQ(tier_name(Tier::Paper), "paper");
  EXPECT_STREQ(tier_name(Tier::Tiered), "tiered");
  EXPECT_STREQ(tier_kernel_name(TierKernel::MergeVec), "merge_vec");
  EXPECT_STREQ(tier_kernel_name(TierKernel::Gallop), "gallop");
}

}  // namespace
}  // namespace atlc::intersect
