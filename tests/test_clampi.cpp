// Tests for the CLaMPI-style cache: free-space management (against a map
// model) and the one-pass run search (against the per-start scan), hash
// index, victim selection (LRU+positional and user scores), miss
// classification, epoch invalidation, adaptive resizing, the CachedWindow
// integration and its zero-copy hits, and a golden digest pinning every
// admission and eviction decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "atlc/clampi/cache.hpp"
#include "atlc/clampi/cached_window.hpp"
#include "atlc/clampi/free_space.hpp"
#include "atlc/util/rng.hpp"
#include "test_support.hpp"

namespace atlc::clampi {
namespace {

Key key_of(std::uint32_t target, std::uint64_t off, std::uint64_t bytes) {
  return Key{target, off, bytes};
}

// -------------------------------------------------------------- FreeSpace ---

using Triple = std::tuple<std::uint64_t, std::uint64_t, std::int32_t>;
using Handle = FreeSpace::Handle;
constexpr std::int32_t kFree = FreeSpace::kFree;

/// The layout as (offset, bytes, owner) triples, in offset order.
std::vector<Triple> blocks(const FreeSpace& fs) {
  std::vector<Triple> out;
  for (Handle h = fs.first(); h != FreeSpace::kNone; h = fs.block(h).next)
    out.emplace_back(fs.block(h).offset, fs.block(h).bytes, fs.block(h).owner);
  return out;
}

std::uint64_t offset_of(const FreeSpace& fs, std::optional<Handle> h) {
  EXPECT_TRUE(h.has_value());
  return h ? fs.block(*h).offset : ~std::uint64_t{0};
}

TEST(FreeSpace, AllocateAndReleaseRoundTrip) {
  FreeSpace fs(1024);
  EXPECT_EQ(fs.total_free(), 1024u);
  const auto a = fs.allocate(100, 7);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(fs.total_free(), 924u);
  EXPECT_EQ(blocks(fs), (std::vector<Triple>{{0, 100, 7}, {100, 924, kFree}}));
  fs.release(*a);
  EXPECT_EQ(fs.total_free(), 1024u);
  // Coalesced back to one free block.
  EXPECT_EQ(blocks(fs), (std::vector<Triple>{{0, 1024, kFree}}));
}

TEST(FreeSpace, BestFitPrefersSmallestFittingRegion) {
  FreeSpace fs(1000);
  const auto a = fs.allocate(100, 0);  // [0,100)
  const auto b = fs.allocate(50, 1);   // [100,150)
  const auto c = fs.allocate(200, 2);  // [150,350)
  ASSERT_TRUE(a && b && c);
  fs.release(*a);  // free: [0,100)
  fs.release(*c);  // free: [150,1000)
  // A 90-byte request best-fits the 100-byte hole, not the tail.
  EXPECT_EQ(offset_of(fs, fs.allocate(90, 3)), 0u);
}

TEST(FreeSpace, BestFitTiesGoToTheOldestBlock) {
  FreeSpace fs(500);
  std::vector<Handle> h;
  std::vector<std::uint64_t> off;
  for (std::int32_t i = 0; i < 5; ++i) {
    h.push_back(*fs.allocate(100, i));
    off.push_back(fs.block(h.back()).offset);
  }
  fs.release(h[3]);  // the first 100-byte hole to appear...
  fs.release(h[1]);  // ...and an equally good later one
  EXPECT_EQ(offset_of(fs, fs.allocate(60, 5)), off[3]);
  EXPECT_EQ(offset_of(fs, fs.allocate(100, 6)), off[1]);
}

TEST(FreeSpace, SplitRemainderRanksBehindEarlierIndexedBlocks) {
  FreeSpace fs(300);
  std::vector<Handle> h;
  for (std::int32_t i = 0; i < 3; ++i)
    h.push_back(*fs.allocate(50, i));  // tail [150,300)
  fs.release(h[1]);  // a 50-byte hole at offset 50, indexed now
  EXPECT_EQ(offset_of(fs, fs.allocate(100, 3)), 150u);  // [250,300) indexed
  // The remainder's bytes were free first, but the hole was indexed first.
  EXPECT_EQ(offset_of(fs, fs.allocate(50, 4)), 50u);
}

TEST(FreeSpace, CoalescesBothSides) {
  FreeSpace fs(300);
  const auto a = fs.allocate(100, 0);
  const auto b = fs.allocate(100, 1);
  const auto c = fs.allocate(100, 2);
  ASSERT_TRUE(a && b && c);
  fs.release(*a);
  fs.release(*c);
  EXPECT_EQ(fs.num_blocks(), 3u);
  fs.release(*b);  // merges with both neighbors
  EXPECT_EQ(fs.num_blocks(), 1u);
  EXPECT_EQ(fs.largest_free(), 300u);
}

TEST(FreeSpace, ExternalFragmentationBlocksLargeAlloc) {
  FreeSpace fs(300);
  const auto a = fs.allocate(100, 0);
  const auto b = fs.allocate(100, 1);
  const auto c = fs.allocate(100, 2);
  ASSERT_TRUE(a && b && c);
  fs.release(*a);
  fs.release(*c);
  // 200 bytes free in total, but no single 150-byte region.
  EXPECT_EQ(fs.total_free(), 200u);
  EXPECT_EQ(fs.largest_free(), 100u);
  EXPECT_FALSE(fs.allocate(150, 3).has_value());
}

TEST(FreeSpace, AdjacentFreeMeasuresMergeBenefit) {
  FreeSpace fs(300);
  const auto a = fs.allocate(100, 0);
  const auto b = fs.allocate(100, 1);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(fs.adjacent_free(*b), 100u);  // only the tail
  fs.release(*a);
  // Entry b ([100,200)) has 100 free bytes before it and 100 after.
  EXPECT_EQ(fs.adjacent_free(*b), 200u);
}

TEST(FreeSpace, ZeroByteAllocIsRefused) {
  FreeSpace fs(16);
  const auto a = fs.allocate(8, 0);
  ASSERT_TRUE(a);
  const auto before = blocks(fs);
  EXPECT_FALSE(fs.allocate(0, 1).has_value());
  EXPECT_EQ(fs.total_free(), 8u);
  EXPECT_EQ(blocks(fs), before);  // nothing consumed, layout untouched
}

TEST(FreeSpace, AllocationWithoutOwnerDies) {
  testsupport::use_threadsafe_death_tests();
  FreeSpace fs(16);
  EXPECT_DEATH((void)fs.allocate(8, kFree), "allocation needs an owner");
}

TEST(FreeSpace, ResetRestoresSingleRegion) {
  FreeSpace fs(128);
  (void)fs.allocate(64, 0);
  fs.reset();
  EXPECT_EQ(fs.total_free(), 128u);
  EXPECT_EQ(fs.num_blocks(), 1u);
  EXPECT_EQ(fs.largest_free(), 128u);
}

/// Reference model: the buffer layout as one offset-keyed std::map of every
/// block plus a by-size multimap of the free ones — the layout FreeSpace
/// kept before its flat, linked block pool. Same best-fit and tie rules.
class MapFreeSpace {
 public:
  explicit MapFreeSpace(std::uint64_t capacity) : capacity_(capacity) {
    reset();
  }

  std::optional<std::uint64_t> allocate(std::uint64_t bytes,
                                        std::int32_t owner) {
    if (bytes == 0) return std::nullopt;
    const auto fit = by_size_.lower_bound(bytes);
    if (fit == by_size_.end()) return std::nullopt;
    const auto block = layout_.find(fit->second);
    by_size_.erase(fit);
    if (const std::uint64_t rest = block->second.bytes - bytes; rest > 0)
      index_free(layout_.emplace_hint(std::next(block), block->first + bytes,
                                      Block{rest}));
    block->second = Block{bytes, owner};
    total_free_ -= bytes;
    return block->first;
  }

  void release(std::uint64_t offset) {
    auto it = layout_.find(offset);
    total_free_ += it->second.bytes;
    if (const auto next = std::next(it);
        next != layout_.end() && next->second.owner == kFree) {
      it->second.bytes += next->second.bytes;
      by_size_.erase(next->second.by_size);
      layout_.erase(next);
    }
    if (it != layout_.begin()) {
      if (const auto prev = std::prev(it); prev->second.owner == kFree) {
        prev->second.bytes += it->second.bytes;
        by_size_.erase(prev->second.by_size);
        layout_.erase(it);
        it = prev;
      }
    }
    index_free(it);
  }

  std::uint64_t adjacent_free(std::uint64_t offset) const {
    const auto it = layout_.find(offset);
    std::uint64_t adj = 0;
    if (const auto next = std::next(it);
        next != layout_.end() && next->second.owner == kFree)
      adj += next->second.bytes;
    if (it != layout_.begin())
      if (const auto prev = std::prev(it); prev->second.owner == kFree)
        adj += prev->second.bytes;
    return adj;
  }

  std::uint64_t total_free() const { return total_free_; }
  std::uint64_t largest_free() const {
    return by_size_.empty() ? 0 : by_size_.rbegin()->first;
  }
  std::vector<Triple> blocks() const {
    std::vector<Triple> out;
    for (const auto& [off, b] : layout_) out.emplace_back(off, b.bytes, b.owner);
    return out;
  }

  void reset() {
    layout_.clear();
    by_size_.clear();
    total_free_ = capacity_;
    if (capacity_ > 0) index_free(layout_.emplace(0, Block{capacity_}).first);
  }

 private:
  struct Block {
    std::uint64_t bytes = 0;
    std::int32_t owner = kFree;
    std::multimap<std::uint64_t, std::uint64_t>::iterator by_size{};
  };
  using Layout = std::map<std::uint64_t, Block>;

  void index_free(Layout::iterator it) {
    it->second.owner = kFree;
    it->second.by_size = by_size_.emplace(it->second.bytes, it->first);
  }

  std::uint64_t capacity_;
  std::uint64_t total_free_ = 0;
  Layout layout_;
  std::multimap<std::uint64_t, std::uint64_t> by_size_;
};

/// A seeded allocate/release/reset workload with heavily tied sizes. Every
/// returned offset, the layout triples, largest_free, total_free and every
/// occupied block's adjacent_free must match the map model after every
/// operation.
TEST(FreeSpace, DifferentialAgainstMapModel) {
  constexpr std::uint64_t kCapacity = 8192;
  FreeSpace fs(kCapacity);
  MapFreeSpace model(kCapacity);
  util::Xoshiro256 rng(15);
  struct Live {
    Handle handle;
    std::uint64_t offset;
  };
  std::vector<Live> live;
  std::int32_t next_owner = 0;
  for (int op = 0; op < 12000; ++op) {
    const std::uint64_t dice = rng.next_below(100);
    if (dice == 0) {
      fs.reset();
      model.reset();
      live.clear();
    } else if (dice < 55 || live.empty()) {
      // Sizes 0 .. ~1 KiB, mostly small multiples of 16 (ties).
      const std::uint64_t bytes = rng.next_below(4) == 0
                                      ? rng.next_below(1100)
                                      : 16 * rng.next_below(9);
      const std::int32_t owner = next_owner++;
      const auto got = fs.allocate(bytes, owner);
      const auto want = model.allocate(bytes, owner);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
      if (got) {
        ASSERT_EQ(fs.block(*got).offset, *want) << "op " << op;
        live.push_back({*got, *want});
      }
    } else {
      const std::size_t i = rng.next_below(live.size());
      fs.release(live[i].handle);
      model.release(live[i].offset);
      live[i] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(blocks(fs), model.blocks()) << "op " << op;
    ASSERT_EQ(fs.largest_free(), model.largest_free()) << "op " << op;
    ASSERT_EQ(fs.total_free(), model.total_free()) << "op " << op;
    ASSERT_EQ(fs.num_blocks(), model.blocks().size()) << "op " << op;
    for (const Live& l : live)
      ASSERT_EQ(fs.adjacent_free(l.handle), model.adjacent_free(l.offset))
          << "op " << op;
  }
}

/// The run search make_room phase 2 used before the one-pass walk, kept as
/// the reference: for each start (the first block and every free block, in
/// offset order) extend a run block by block until it spans `bytes`; its
/// cost is the max of 0 and its occupied blocks' costs; the first cheapest
/// run wins.
struct RunChoice {
  double cost = 0.0;
  std::vector<std::int32_t> victims;
  friend bool operator==(const RunChoice&, const RunChoice&) = default;
};

template <typename Cost>
std::optional<RunChoice> per_start_scan(const std::vector<Triple>& layout,
                                        std::uint64_t bytes, Cost cost) {
  std::optional<RunChoice> best;
  for (std::size_t start = 0; start < layout.size(); ++start) {
    if (start != 0 && std::get<2>(layout[start]) != kFree) continue;
    std::uint64_t span = 0;
    RunChoice run;
    for (std::size_t i = start; i < layout.size() && span < bytes; ++i) {
      const auto [offset, size, owner] = layout[i];
      span += size;
      if (owner == kFree) continue;
      run.victims.push_back(owner);
      run.cost = std::max(run.cost, cost(owner));
    }
    if (span >= bytes && (!best || run.cost < best->cost))
      best = std::move(run);
  }
  return best;
}

/// Random layouts (a seeded allocate/release history) under both policies'
/// cost functions: UserScore's scores from three values plus 0 (heavy
/// ties) and LruPositional's distinct ticks. The one-pass search must pick
/// the same run — cost and victim set, in order — as the per-start scan,
/// and must call the cost callback only for occupied blocks.
TEST(FreeSpace, OnePassRunSearchMatchesPerStartScan) {
  util::Xoshiro256 rng(2025);
  std::vector<std::int32_t> victims;
  int runs_found = 0;
  for (int layout_no = 0; layout_no < 400; ++layout_no) {
    const std::uint64_t capacity = 256 + rng.next_below(4096);
    FreeSpace fs(capacity);
    std::vector<Handle> live;
    std::int32_t next_owner = 0;
    const int ops = 20 + static_cast<int>(rng.next_below(200));
    for (int op = 0; op < ops; ++op) {
      if (live.empty() || rng.next_below(3) != 0) {
        if (const auto h = fs.allocate(1 + rng.next_below(capacity / 8),
                                       next_owner++))
          live.push_back(*h);
      } else {
        const std::size_t i = rng.next_below(live.size());
        fs.release(live[i]);
        live[i] = live.back();
        live.pop_back();
      }
    }
    std::vector<double> score(static_cast<std::size_t>(next_owner));
    std::vector<double> tick(static_cast<std::size_t>(next_owner));
    for (std::size_t o = 0; o < score.size(); ++o) {
      score[o] = static_cast<double>(rng.next_below(4));
      tick[o] = static_cast<double>(1 + rng.next_below(1u << 20));
    }
    const std::vector<Triple> layout = blocks(fs);
    for (const std::vector<double>* costs : {&score, &tick}) {
      const auto cost_of = [&](std::int32_t owner) {
        return (*costs)[static_cast<std::size_t>(owner)];
      };
      for (int q = 0; q < 8; ++q) {
        const std::uint64_t bytes = 1 + rng.next_below(capacity + capacity / 4);
        const auto want = per_start_scan(layout, bytes, cost_of);
        const auto got = fs.cheapest_run(
            bytes,
            [&](std::int32_t owner, Handle h) {
              EXPECT_EQ(fs.block(h).owner, owner);
              return cost_of(owner);
            },
            victims);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "layout " << layout_no << " bytes " << bytes;
        if (!got) continue;
        ++runs_found;
        EXPECT_EQ((RunChoice{*got, victims}), *want)
            << "layout " << layout_no << " bytes " << bytes;
      }
    }
  }
  EXPECT_GT(runs_found, 1000);
}

// ------------------------------------------------------------- Cache core ---

CacheConfig small_config() {
  CacheConfig c;
  c.buffer_bytes = 1024;
  c.hash_slots = 64;
  return c;
}

TEST(Cache, InsertThenHit) {
  Cache cache(small_config());
  const Key k = key_of(1, 0, 32);
  EXPECT_TRUE(cache.insert(k));
  EXPECT_TRUE(cache.lookup(k));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, MissOnUnknownKey) {
  Cache cache(small_config());
  EXPECT_FALSE(cache.lookup(key_of(0, 0, 8)));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().compulsory_misses, 1u);
}

TEST(Cache, DistinguishesKeysByAllFields) {
  Cache cache(small_config());
  EXPECT_TRUE(cache.insert(key_of(0, 0, 16)));
  EXPECT_TRUE(cache.insert(key_of(1, 0, 16)));  // same offset, other target
  EXPECT_TRUE(cache.lookup(key_of(1, 0, 16)));
  EXPECT_FALSE(cache.lookup(key_of(2, 0, 16)));
}

TEST(Cache, OversizedEntryRejected) {
  Cache cache(small_config());
  EXPECT_FALSE(cache.insert(key_of(0, 0, 2048)));
  EXPECT_EQ(cache.stats().insert_failures, 1u);
}

TEST(Cache, CapacityEvictionMakesRoom) {
  Cache cache(small_config());  // 1024 B buffer
  for (std::uint32_t i = 0; i < 6; ++i)
    EXPECT_TRUE(cache.insert(key_of(0, i * 256, 256)));
  EXPECT_LE(cache.num_entries(), 4u);
  EXPECT_GE(cache.stats().evictions_space, 2u);
}

TEST(Cache, LruEvictsColdestEntry) {
  CacheConfig cfg = small_config();
  cfg.lru_window = 1;  // pure LRU (no positional rescue)
  Cache cache(cfg);
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 256, 256)));
  // Touch entry 0 so entry 1 becomes the coldest.
  ASSERT_TRUE(cache.lookup(key_of(0, 0, 256)));
  ASSERT_TRUE(cache.insert(key_of(0, 4 * 256, 256)));  // evicts #1
  EXPECT_TRUE(cache.lookup(key_of(0, 0, 256)));
  EXPECT_FALSE(cache.lookup(key_of(0, 1 * 256, 256)));
}

TEST(Cache, CapacityMissClassification) {
  CacheConfig cfg = small_config();
  cfg.lru_window = 1;
  Cache cache(cfg);
  ASSERT_TRUE(cache.insert(key_of(0, 0, 512)));
  ASSERT_TRUE(cache.insert(key_of(0, 512, 512)));
  ASSERT_TRUE(cache.insert(key_of(0, 1024, 512)));  // evicts first
  EXPECT_FALSE(cache.lookup(key_of(0, 0, 512)));
  EXPECT_EQ(cache.stats().capacity_misses, 1u);
  EXPECT_EQ(cache.stats().compulsory_misses, 0u);
}

TEST(Cache, UserScoreEvictsLowestScore) {
  CacheConfig cfg = small_config();
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  // Insert four entries with scores 10, 1, 7, 5 — capacity full.
  ASSERT_TRUE(cache.insert(key_of(0, 0, 256), 10));
  ASSERT_TRUE(cache.insert(key_of(0, 256, 256), 1));
  ASSERT_TRUE(cache.insert(key_of(0, 512, 256), 7));
  ASSERT_TRUE(cache.insert(key_of(0, 768, 256), 5));
  // Next insert evicts the score-1 entry regardless of recency.
  ASSERT_TRUE(cache.lookup(key_of(0, 256, 256)));  // make it MRU
  ASSERT_TRUE(cache.insert(key_of(0, 1024, 256), 8));
  EXPECT_FALSE(cache.lookup(key_of(0, 256, 256)));
  EXPECT_TRUE(cache.lookup(key_of(0, 0, 256)));
}

TEST(Cache, UserScoreProtectsHighDegreeEntries) {
  // The paper's motivation: high-degree adjacency lists should survive
  // floods of low-degree entries.
  CacheConfig cfg;
  cfg.buffer_bytes = 4096;
  cfg.hash_slots = 256;
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  ASSERT_TRUE(cache.insert(key_of(9, 0, 1024), 1000.0));
  for (std::uint32_t i = 0; i < 200; ++i)
    (void)cache.insert(key_of(0, i * 64, 64), 2.0);
  EXPECT_TRUE(cache.lookup(key_of(9, 0, 1024)));
}

TEST(Cache, ConflictEvictionWhenProbeWindowFull) {
  CacheConfig cfg;
  cfg.buffer_bytes = 1 << 20;  // space is NOT the constraint
  cfg.hash_slots = 4;          // tiny table
  cfg.probe_limit = 2;
  Cache cache(cfg);
  for (std::uint32_t i = 0; i < 64; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 16, 16)));
  EXPECT_GT(cache.stats().evictions_conflict, 0u);
  EXPECT_LE(cache.num_entries(), 4u);
}

TEST(Cache, FlushDropsEverythingAndCountsFlushMisses) {
  Cache cache(small_config());
  ASSERT_TRUE(cache.insert(key_of(0, 0, 64)));
  cache.flush();
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_FALSE(cache.lookup(key_of(0, 0, 64)));
  EXPECT_EQ(cache.stats().flush_misses, 1u);
}

TEST(Cache, AdaptiveResizeFlushesAndGrows) {
  CacheConfig cfg;
  cfg.buffer_bytes = 1 << 20;
  cfg.hash_slots = 4;
  cfg.probe_limit = 2;
  cfg.adaptive = true;
  cfg.adaptive_interval = 64;
  Cache cache(cfg);
  // Hammer with distinct keys: conflicts mount, adaptivity must kick in.
  for (std::uint32_t i = 0; i < 1000; ++i) {
    if (!cache.lookup(key_of(0, i * 16, 16)))
      (void)cache.insert(key_of(0, i * 16, 16));
  }
  EXPECT_GT(cache.stats().hash_resizes, 0u);
  EXPECT_GT(cache.stats().flushes, 0u);
}

TEST(Cache, EntriesSnapshotMatchesContents) {
  Cache cache(small_config());
  ASSERT_TRUE(cache.insert(key_of(0, 0, 32), 3.5));
  ASSERT_TRUE(cache.insert(key_of(1, 64, 32), 7.0));
  const auto entries = cache.entries();
  ASSERT_EQ(entries.size(), 2u);
  double score_sum = 0;
  for (const auto& e : entries) score_sum += e.user_score;
  EXPECT_DOUBLE_EQ(score_sum, 10.5);
}

TEST(Cache, SizingHeuristics) {
  // Fixed-size entries: one slot per entry that fits.
  EXPECT_EQ(Cache::suggest_hash_slots_fixed(1024, 16), 64u);
  // Power law (paper: n * f^alpha, alpha=2): half-the-graph cache on 1e6
  // vertices expects 1e6 * 0.25 entries.
  EXPECT_EQ(Cache::suggest_hash_slots_power_law(1000000, 0.5), 250000u);
  // Degenerate inputs stay sane.
  EXPECT_GE(Cache::suggest_hash_slots_fixed(0, 16), 16u);
  EXPECT_GE(Cache::suggest_hash_slots_power_law(100, 0.0), 16u);
}

// Shadow-model property test: with ample space and slots, the cache must
// behave exactly like a set (every inserted key hits; CachedWindow's tests
// check the bytes a hit serves).
TEST(Cache, ShadowModelNoEvictionRegime) {
  CacheConfig cfg;
  cfg.buffer_bytes = 1 << 20;
  cfg.hash_slots = 1 << 14;
  Cache cache(cfg);
  util::Xoshiro256 rng(42);
  std::set<std::uint64_t> shadow;
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t off = rng.next_below(256) * 8;
    const std::uint64_t bytes = 8 + rng.next_below(4) * 8;
    const Key k = key_of(0, off, bytes);
    const bool hit = cache.lookup(k);
    EXPECT_EQ(hit, shadow.contains(key_hash(k))) << "step " << step;
    if (!hit) {
      ASSERT_TRUE(cache.insert(k));
      shadow.insert(key_hash(k));
    }
  }
  EXPECT_EQ(cache.num_entries(), shadow.size());
  EXPECT_EQ(cache.stats().evictions_space, 0u);
  EXPECT_EQ(cache.stats().evictions_conflict, 0u);
}

// ---------------------------------------------- admission & run eviction ---

TEST(CacheAdmission, LowScoreNewcomerRejected) {
  CacheConfig cfg = small_config();
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 256, 256), 50.0));
  // Cache is full of score-50 residents; a score-10 newcomer must bounce.
  EXPECT_FALSE(cache.insert(key_of(0, 9999, 256), 10.0));
  EXPECT_GT(cache.stats().admission_rejects, 0u);
  EXPECT_EQ(cache.num_entries(), 4u);
  // All residents still served.
  for (std::uint32_t i = 0; i < 4; ++i)
    EXPECT_TRUE(cache.lookup(key_of(0, i * 256, 256)));
}

TEST(CacheAdmission, EqualScoreDoesNotChurn) {
  CacheConfig cfg = small_config();
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 256, 256), 5.0));
  // Same-score newcomers must not displace residents (no cycling).
  EXPECT_FALSE(cache.insert(key_of(1, 0, 256), 5.0));
  EXPECT_EQ(cache.num_entries(), 4u);
}

TEST(CacheRunEviction, AssemblesContiguousSpaceForLargeEntry) {
  // Buffer packed with 32 small low-score entries; a high-score entry of
  // half the buffer must be admitted by clearing a contiguous run.
  CacheConfig cfg;
  cfg.buffer_bytes = 1024;
  cfg.hash_slots = 128;
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  for (std::uint32_t i = 0; i < 32; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 32, 32), 1.0));
  EXPECT_TRUE(cache.insert(key_of(7, 0, 512), 100.0));
  EXPECT_TRUE(cache.lookup(key_of(7, 0, 512)));
}

TEST(CacheRunEviction, HubsDoNotThrashEachOther) {
  // A hub-sized resident with the top score must not be sacrificed to
  // admit a slightly lower-scored hub (strictly-descending displacement
  // only — this is what keeps the paper's degree scores stable).
  CacheConfig cfg;
  cfg.buffer_bytes = 1024;
  cfg.hash_slots = 128;
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  ASSERT_TRUE(cache.insert(key_of(0, 0, 768), 1000.0));
  for (std::uint32_t i = 0; i < 4; ++i)
    (void)cache.insert(key_of(1, i * 64, 64), 2.0);
  // Hub B (score 900) cannot fit without clearing hub A (score 1000).
  EXPECT_FALSE(cache.insert(key_of(2, 0, 768), 900.0));
  EXPECT_TRUE(cache.lookup(key_of(0, 0, 768)));
}

TEST(CacheRunEviction, LruPolicyStillAdmitsLargeEntries) {
  CacheConfig cfg;
  cfg.buffer_bytes = 1024;
  cfg.hash_slots = 128;  // LruPositional default policy
  Cache cache(cfg);
  for (std::uint32_t i = 0; i < 32; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 32, 32)));
  EXPECT_TRUE(cache.insert(key_of(3, 0, 900)));
  EXPECT_TRUE(cache.lookup(key_of(3, 0, 900)));
}

// --------------------------------------------------------- CachedWindow ---

TEST(CachedWindow, HitsAvoidRemoteGets) {
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(256);
    for (std::size_t i = 0; i < local.size(); ++i)
      local[i] = ctx.rank() * 1000 + static_cast<std::uint32_t>(i);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 16;
    cfg.hash_slots = 256;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);

    const std::uint32_t peer = 1 - ctx.rank();
    std::uint32_t buf[8];
    win.get(peer, 16, 8, buf);  // miss -> remote
    EXPECT_EQ(ctx.stats().remote_gets, 1u);
    EXPECT_EQ(buf[0], peer * 1000 + 16);

    win.get(peer, 16, 8, buf);  // hit -> served locally
    EXPECT_EQ(ctx.stats().remote_gets, 1u);  // unchanged
    EXPECT_EQ(buf[7], peer * 1000 + 23);
    EXPECT_EQ(win.cache().stats().hits, 1u);
    ctx.barrier();
  });
}

TEST(CachedWindow, LocalGetsBypassCache) {
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(64, ctx.rank());
    auto raw = ctx.create_window<std::uint32_t>(local);
    CachedWindow<std::uint32_t> win(ctx, raw, small_config());
    std::uint32_t buf[4];
    win.get(ctx.rank(), 0, 4, buf);
    EXPECT_EQ(win.cache().stats().accesses(), 0u);
    EXPECT_EQ(ctx.stats().local_gets, 1u);
    ctx.barrier();
  });
}

TEST(CachedWindow, HitChargesLessThanMiss) {
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(1 << 12, 5);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 16;
    cfg.hash_slots = 64;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);
    std::vector<std::uint32_t> buf(1024);

    const double t0 = ctx.now();
    win.get(1 - ctx.rank(), 0, 1024, buf.data());
    const double miss_cost = ctx.now() - t0;
    const double t1 = ctx.now();
    win.get(1 - ctx.rank(), 0, 1024, buf.data());
    const double hit_cost = ctx.now() - t1;
    EXPECT_LT(hit_cost, miss_cost / 5.0);
    ctx.barrier();
  });
}

/// Hits are zero-copy: under eviction pressure (space, contiguous-run and
/// hash-conflict evictions, both policies, two remote targets whose parts
/// share offsets) every hit must be a view into the owner's exposed part
/// equal to a plain Window::get of the same range, and every miss must
/// deliver the same bytes into dst.
TEST(CachedWindow, HitViewEqualsPlainGet) {
  for (const VictimPolicy policy :
       {VictimPolicy::LruPositional, VictimPolicy::UserScore}) {
    rma::Runtime::Options o;
    o.ranks = 3;
    rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
      std::vector<std::uint32_t> local(4096);
      for (std::size_t i = 0; i < local.size(); ++i)
        local[i] = ctx.rank() * 1000000 + static_cast<std::uint32_t>(i);
      auto raw = ctx.create_window<std::uint32_t>(local);
      CacheConfig cfg;
      cfg.buffer_bytes = 4096;
      cfg.hash_slots = 32;
      cfg.probe_limit = 4;
      cfg.policy = policy;
      CachedWindow<std::uint32_t> win(ctx, raw, cfg);
      util::Xoshiro256 rng(7 + ctx.rank());
      std::vector<std::uint32_t> dst(512), plain(512);
      for (int step = 0; step < 4000; ++step) {
        const auto target = static_cast<std::uint32_t>(
            (ctx.rank() + 1 + rng.next_below(2)) % 3);
        const std::uint64_t id = rng.next_below(96);
        const std::uint64_t offset = id * 40;
        const std::uint64_t count = 1 + (id * 37) % 300;
        (void)raw.get(target, offset, count, plain.data());
        const std::span<const std::uint32_t> want(plain.data(), count);
        if (const auto hit = win.lookup(target, offset, count)) {
          const auto part = raw.view(target, 0, raw.part_size(target));
          ASSERT_GE(hit->data(), part.data()) << "step " << step;
          ASSERT_LE(hit->data() + hit->size(), part.data() + part.size());
          ASSERT_TRUE(std::ranges::equal(*hit, want)) << "step " << step;
        } else {
          win.finish(win.fetch(target, offset, count, dst.data(),
                               static_cast<double>(count % 5)));
          ASSERT_TRUE(std::ranges::equal(
              std::span<const std::uint32_t>(dst.data(), count), want))
              << "step " << step;
        }
      }
      const CacheStats& st = win.cache().stats();
      EXPECT_GT(st.hits, 0u);
      EXPECT_GT(st.evictions_space, 0u);
      EXPECT_GT(st.evictions_conflict, 0u);
      ctx.barrier();
    });
  }
}

#ifndef NDEBUG
/// The exposed bytes behind a resident entry change within an epoch (a
/// mutation without refresh_window): debug builds abort on the next hit.
void hit_after_mutation_without_refresh() {
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(64, 5);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CachedWindow<std::uint32_t> win(ctx, raw, small_config());
    std::uint32_t buf[4];
    if (ctx.rank() == 1) win.get(0, 8, 4, buf);  // miss: admitted
    ctx.barrier();
    if (ctx.rank() == 0) local[9] = 6;  // no refresh_window
    ctx.barrier();
    if (ctx.rank() == 1) win.get(0, 8, 4, buf);  // hit on changed bytes
    ctx.barrier();
  });
}
#endif

TEST(CachedWindow, DebugHitDigestCatchesMutationWithinEpoch) {
#ifdef NDEBUG
  GTEST_SKIP() << "the hit digest is checked in debug builds only";
#else
  testsupport::use_threadsafe_death_tests();
  EXPECT_DEATH(hit_after_mutation_without_refresh(),
               "exposed bytes changed within an epoch");
#endif
}

// ----------------------------------------------------- epoch invalidation ---

TEST(CacheEpochs, StaleEntryServedAsMissAndRecycled) {
  Cache cache(small_config());
  const Key k = key_of(1, 0, 32);
  EXPECT_TRUE(cache.insert(k));

  cache.set_epoch(1);  // the window the entry came from was refreshed
  EXPECT_FALSE(cache.lookup(k));  // never served stale
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.num_entries(), 0u);  // recycled, not resident

  // Re-insert at the new epoch: served again.
  EXPECT_TRUE(cache.insert(k));
  EXPECT_TRUE(cache.lookup(k));
}

TEST(CacheEpochs, ContainsTreatsStaleAsAbsentAndInsertReplaces) {
  Cache cache(small_config());
  const Key k = key_of(2, 8, 16);
  EXPECT_TRUE(cache.insert(k));
  EXPECT_TRUE(cache.contains(k));

  cache.set_epoch(3);
  EXPECT_FALSE(cache.contains(k));  // stale reads as absent...
  EXPECT_TRUE(cache.insert(k));     // ...and insert replaces it
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
  EXPECT_TRUE(cache.lookup(k));
}

TEST(CacheEpochs, SameEpochNeverInvalidates) {
  Cache cache(small_config());
  const Key k = key_of(0, 0, 16);
  EXPECT_TRUE(cache.insert(k));
  cache.set_epoch(0);  // unchanged epoch: nothing invalidated
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(cache.lookup(k));
  EXPECT_EQ(cache.stats().stale_evictions, 0u);
}

TEST(CachedWindow, RefreshWindowInvalidatesCachedEntries) {
  // The full stack: a cached get, a collective refresh_window republishing
  // mutated data, then the same get again — the new bytes must be served
  // and the stale entry recycled, with the invalidation observable in the
  // stats.
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(128, ctx.rank() + 1);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 14;
    cfg.hash_slots = 64;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);

    const std::uint32_t peer = 1 - ctx.rank();
    std::uint32_t buf[4] = {};
    win.get(peer, 0, 4, buf);  // miss -> cached
    EXPECT_EQ(buf[0], peer + 1);
    win.get(peer, 0, 4, buf);  // hit from cache
    EXPECT_EQ(win.cache().stats().hits, 1u);
    EXPECT_EQ(raw.epoch(), 0u);

    // Mutate the exposed buffer and republish (collective). In-place
    // mutation needs its own quiesce barrier BEFORE touching the bytes —
    // refresh_window's entry fence only orders the republication, not a
    // mutation the caller performed ahead of the call.
    ctx.barrier();
    for (auto& x : local) x += 100;
    ctx.refresh_window(raw, std::span<const std::uint32_t>(local));
    EXPECT_EQ(raw.epoch(), 1u);

    // The stale probe recycles the entry and misses; a fresh fetch follows.
    EXPECT_FALSE(win.lookup(peer, 0, 4).has_value())
        << "stale entry must never be served";
    win.finish(win.fetch(peer, 0, 4, buf));
    EXPECT_EQ(buf[0], peer + 101);
    EXPECT_EQ(win.cache().stats().stale_evictions, 1u);
    EXPECT_EQ(win.cache().stats().hits, 1u);  // no new hit from the probe

    // Re-cached at the new epoch: hits again, viewing the new exposure.
    const auto hit = win.lookup(peer, 0, 4);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ((*hit)[0], peer + 101);
    EXPECT_EQ(win.cache().stats().hits, 2u);
    ctx.barrier();
  });
}

TEST(CachedWindow, PendingMissAcrossRefreshIsNotCached) {
  // A miss transfer issued before a refresh_window and finished after it
  // carries pre-refresh bytes (the simulated get copies eagerly). finish()
  // must not admit it stamped with the new epoch: it was not a fetch of
  // that epoch, so the next probe must miss and refetch.
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(64, ctx.rank() + 1);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 14;
    cfg.hash_slots = 64;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);

    const std::uint32_t peer = 1 - ctx.rank();
    std::uint32_t buf[4] = {};
    ASSERT_FALSE(win.lookup(peer, 0, 4).has_value());
    const auto pending = win.fetch(peer, 0, 4, buf, 1.0);  // miss in flight
    std::vector<std::uint32_t> next(64, ctx.rank() + 77);
    ctx.refresh_window(raw, std::span<const std::uint32_t>(next));
    win.finish(pending);
    EXPECT_EQ(buf[0], peer + 1);  // caller sees the pre-refresh transfer
    EXPECT_EQ(win.cache().num_entries(), 0u) << "stale payload cached";

    win.get(peer, 0, 4, buf);  // must refetch from the live exposure
    EXPECT_EQ(buf[0], peer + 77);
    EXPECT_EQ(win.cache().stats().hits, 0u);
    ctx.barrier();  // keep `next` exposed until all peers finished
  });
}

// ------------------------------------------------------ decision digest ---

/// FNV-1a 64 over the bytes of each folded value.
struct Digest {
  std::uint64_t state = 0xcbf29ce484222325ull;
  template <typename T>
  void fold(const T& value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      state ^= p[i];
      state *= 0x100000001b3ull;
    }
  }
};

/// A seeded run of lookup/contains/insert calls over a buffer small enough
/// to force phase-1, phase-2 (contiguous run) and hash-conflict evictions,
/// with heavily tied scores, epoch bumps and one adaptive resize. Every
/// return value, every CacheStats counter and the final entries() are
/// folded into one digest: any change to an admission or eviction decision
/// — including which of several equal-score entries or equal-size free
/// blocks is chosen — changes it.
std::uint64_t decision_digest(VictimPolicy policy) {
  CacheConfig cfg;
  cfg.buffer_bytes = 16 << 10;
  cfg.hash_slots = 64;
  cfg.probe_limit = 3;
  cfg.policy = policy;
  cfg.adaptive = true;
  cfg.adaptive_interval = 20000;  // one adaptivity check in the run
  Cache cache(cfg);
  util::Xoshiro256 rng(2022);
  Digest d;
  std::uint64_t calls = 0;
  std::uint64_t epoch = 0;
  for (int step = 0; step < 40000; ++step) {
    if (step % 5000 == 4999) cache.set_epoch(++epoch);
    // Skewed key ids: small ids are hot. A key's size (8 B .. 4 KiB, log
    // spread) and score (three values: heavy ties) follow from its id.
    const std::uint64_t id = rng.next_below(1 + rng.next_below(1024));
    util::Xoshiro256 shape(id);
    const std::uint64_t bytes = std::min<std::uint64_t>(
        4096, 8 + shape.next_below(8ull << shape.next_below(10)));
    const Key k = key_of(static_cast<std::uint32_t>(id % 4), id * 4096, bytes);
    const double score = static_cast<double>(1 + id % 3);
    bool resident;
    if (rng.next_below(8) == 0) {
      resident = cache.contains(k);  // the CachedWindow::finish probe
    } else {
      resident = cache.lookup(k);
      ++calls;
    }
    d.fold(resident);
    if (!resident) {
      d.fold(cache.insert(k, score));
      ++calls;
    }
  }
  const CacheStats& s = cache.stats();
  for (const std::uint64_t v :
       {s.hits, s.misses, s.compulsory_misses, s.capacity_misses,
        s.conflict_misses, s.flush_misses, s.evictions_space,
        s.evictions_conflict, s.stale_evictions, s.insert_failures,
        s.admission_rejects, s.flushes, s.hash_resizes, s.bytes_hit,
        s.bytes_missed})
    d.fold(v);
  for (const EntryInfo& e : cache.entries()) {
    d.fold(e.key.target);
    d.fold(e.key.offset);
    d.fold(e.key.bytes);
    d.fold(e.user_score);
    d.fold(e.last_tick);
  }
  // The run must reach every decision path the digest is meant to pin.
  EXPECT_GE(calls, 50000u);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evictions_space, 0u);
  EXPECT_GT(s.evictions_conflict, 0u);
  EXPECT_GT(s.stale_evictions, 0u);
  EXPECT_EQ(s.hash_resizes, 1u);
  return d.state;
}

TEST(CacheGolden, LruPositionalDecisionDigest) {
  EXPECT_EQ(decision_digest(VictimPolicy::LruPositional),
            0x945aad541c026949ull);
}

TEST(CacheGolden, UserScoreDecisionDigest) {
  EXPECT_EQ(decision_digest(VictimPolicy::UserScore), 0x2ba5ebd6b0e8c3b9ull);
}

TEST(CachedWindow, OverlappedMissInsertsOnFinish) {
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(4096, 9);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 16;
    cfg.hash_slots = 64;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);
    std::vector<std::uint32_t> buf(512);
    ASSERT_FALSE(win.lookup(1 - ctx.rank(), 0, 512).has_value());
    const auto pending = win.fetch(1 - ctx.rank(), 0, 512, buf.data(), 3.0);
    EXPECT_EQ(win.cache().num_entries(), 0u);  // not yet inserted
    ctx.charge_compute(1e-3);                  // overlapping work
    win.finish(pending);
    EXPECT_EQ(win.cache().num_entries(), 1u);
    EXPECT_EQ(buf[0], 9u);
    ctx.barrier();
  });
}

}  // namespace
}  // namespace atlc::clampi
