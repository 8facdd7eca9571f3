// Tests for the CLaMPI-style cache: free-space management (against a map
// model), the one-pass run search (against the per-start scan) and the
// gate index (against the run search), row index, victim selection
// (LRU+positional and user scores), miss classification, epoch
// invalidation, the CachedWindow integration and its
// zero-copy hits, a golden digest pinning every admission and eviction
// decision, and C_offsets' FixedCache against Cache call for call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "atlc/clampi/cache.hpp"
#include "atlc/clampi/cached_window.hpp"
#include "atlc/clampi/fixed_cache.hpp"
#include "atlc/clampi/free_space.hpp"
#include "atlc/util/rng.hpp"
#include "test_support.hpp"

namespace atlc::clampi {
namespace {

Key key_of(std::uint32_t target, std::uint32_t row) { return Key{target, row}; }

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

/// The gate index against the run search it stands in for. Seeded
/// allocate/release histories through a scored FreeSpace, with scores from
/// five values including negatives (heavy ties), are queried part-way
/// through and at the end. At each query point every request size from 1
/// byte to the capacity meets every newcomer score that can flip the
/// answer (0 and below, each score present, and just above each), and
/// any_run_below must equal "cheapest_run costs less than s".
TEST(FreeSpace, GateQueryMatchesCheapestRun) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Xoshiro256 rng(1719);
  std::vector<std::int32_t> victims;
  int head_free = 0, head_occupied = 0, last_free = 0;
  int walked_passes = 0, walked_fails = 0;
  for (int layout_no = 0; layout_no < 120; ++layout_no) {
    const std::uint64_t capacity = 64 + rng.next_below(192);
    FreeSpace fs(capacity, /*scored=*/true);
    std::vector<Handle> live;
    std::vector<double> score;  // owner -> score
    const int ops = 10 + static_cast<int>(rng.next_below(80));
    for (int op = 0; op < ops; ++op) {
      if (live.empty() || rng.next_below(5) < 3) {
        const auto owner = static_cast<std::int32_t>(score.size());
        score.push_back(static_cast<double>(rng.next_below(5)) - 1.0);
        if (const auto h = fs.allocate(1 + rng.next_below(capacity / 6), owner,
                                       score.back()))
          live.push_back(*h);
      } else {
        const std::size_t i = rng.next_below(live.size());
        fs.release(live[i]);
        live[i] = live.back();
        live.pop_back();
      }
      if (op + 1 != ops && rng.next_below(6) != 0) continue;

      const std::vector<Triple> layout = blocks(fs);
      head_free += std::get<2>(layout.front()) == kFree;
      head_occupied += std::get<2>(layout.front()) != kFree;
      last_free += std::get<2>(layout.back()) == kFree;
      std::vector<double> gates = {-1.0, 0.0};
      for (const auto& [offset, bytes, owner] : layout) {
        if (owner == kFree) continue;
        const double sc = score[static_cast<std::size_t>(owner)];
        gates.push_back(sc);
        gates.push_back(std::nextafter(sc, kInf));
      }
      std::sort(gates.begin(), gates.end());
      gates.erase(std::unique(gates.begin(), gates.end()), gates.end());
      const auto cost = [&](std::int32_t owner, Handle h) {
        EXPECT_EQ(fs.block(h).owner, owner);
        return score[static_cast<std::size_t>(owner)];
      };
      for (std::uint64_t bytes = 1; bytes <= capacity; ++bytes) {
        const double cheapest =
            fs.cheapest_run(bytes, cost, victims).value_or(kInf);
        for (const double s : gates) {
          const bool want = cheapest < s;
          ASSERT_EQ(fs.any_run_below(bytes, s, cost), want)
              << "layout " << layout_no << " op " << op << " bytes " << bytes
              << " s " << s;
          if (s > 0.0 && fs.largest_free() < bytes)
            ++(want ? walked_passes : walked_fails);
        }
      }
    }
  }
  EXPECT_GT(head_free, 100);
  EXPECT_GT(head_occupied, 300);
  EXPECT_GT(last_free, 300);
  EXPECT_GT(walked_passes, 50000);
  EXPECT_GT(walked_fails, 50000);
}

// ------------------------------------------------------------- Cache core ---

CacheConfig small_config() {
  CacheConfig c;
  c.buffer_bytes = 1024;
  return c;
}

TEST(Cache, InsertThenHit) {
  Cache cache(small_config());
  const Key k = key_of(1, 0);
  EXPECT_TRUE(cache.insert(k, 32));
  EXPECT_TRUE(cache.lookup(k, 32));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, MissOnUnknownKey) {
  Cache cache(small_config());
  EXPECT_FALSE(cache.lookup(key_of(0, 0), 8));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().compulsory_misses, 1u);
}

TEST(Cache, DistinguishesKeysByTargetAndRow) {
  Cache cache(small_config());
  EXPECT_TRUE(cache.insert(key_of(0, 0), 16));
  EXPECT_TRUE(cache.insert(key_of(1, 0), 16));  // same row, other target
  EXPECT_TRUE(cache.lookup(key_of(1, 0), 16));
  EXPECT_FALSE(cache.lookup(key_of(2, 0), 16));
  EXPECT_FALSE(cache.lookup(key_of(0, 1), 16));  // same target, other row
}

TEST(Cache, OversizedEntryRejected) {
  Cache cache(small_config());
  EXPECT_FALSE(cache.insert(key_of(0, 0), 2048));
  EXPECT_EQ(cache.stats().insert_failures, 1u);
}

TEST(Cache, CapacityEvictionMakesRoom) {
  Cache cache(small_config());  // 1024 B buffer
  for (std::uint32_t i = 0; i < 6; ++i)
    EXPECT_TRUE(cache.insert(key_of(0, i), 256));
  EXPECT_LE(cache.num_entries(), 4u);
  EXPECT_GE(cache.stats().evictions_space, 2u);
}

TEST(Cache, LruEvictsColdestEntry) {
  // The entries tile the buffer, so no candidate borders free space and
  // the positional pick is pure LRU.
  Cache cache(small_config());
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i), 256));
  // Touch entry 0 so entry 1 becomes the coldest.
  ASSERT_TRUE(cache.lookup(key_of(0, 0), 256));
  ASSERT_TRUE(cache.insert(key_of(0, 4), 256));  // evicts #1
  EXPECT_TRUE(cache.lookup(key_of(0, 0), 256));
  EXPECT_FALSE(cache.lookup(key_of(0, 1), 256));
}

TEST(Cache, CapacityMissClassification) {
  Cache cache(small_config());
  ASSERT_TRUE(cache.insert(key_of(0, 0), 512));
  ASSERT_TRUE(cache.insert(key_of(0, 1), 512));
  ASSERT_TRUE(cache.insert(key_of(0, 2), 512));  // evicts first
  EXPECT_FALSE(cache.lookup(key_of(0, 0), 512));
  EXPECT_EQ(cache.stats().capacity_misses, 1u);
  EXPECT_EQ(cache.stats().compulsory_misses, 0u);
}

TEST(Cache, UserScoreEvictsLowestScore) {
  CacheConfig cfg = small_config();
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  // Insert four entries with scores 10, 1, 7, 5 — capacity full.
  ASSERT_TRUE(cache.insert(key_of(0, 0), 256, 10));
  ASSERT_TRUE(cache.insert(key_of(0, 1), 256, 1));
  ASSERT_TRUE(cache.insert(key_of(0, 2), 256, 7));
  ASSERT_TRUE(cache.insert(key_of(0, 3), 256, 5));
  // Next insert evicts the score-1 entry regardless of recency.
  ASSERT_TRUE(cache.lookup(key_of(0, 1), 256));  // make it MRU
  ASSERT_TRUE(cache.insert(key_of(0, 4), 256, 8));
  EXPECT_FALSE(cache.lookup(key_of(0, 1), 256));
  EXPECT_TRUE(cache.lookup(key_of(0, 0), 256));
}

TEST(Cache, UserScoreProtectsHighDegreeEntries) {
  // The paper's motivation: high-degree adjacency lists should survive
  // floods of low-degree entries.
  CacheConfig cfg;
  cfg.buffer_bytes = 4096;
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  ASSERT_TRUE(cache.insert(key_of(9, 0), 1024, 1000.0));
  for (std::uint32_t i = 0; i < 200; ++i)
    (void)cache.insert(key_of(0, i), 64, 2.0);
  EXPECT_TRUE(cache.lookup(key_of(9, 0), 1024));
}

TEST(Cache, EpochBumpRecyclesEntryAndCountsFlushMisses) {
  Cache cache(small_config());
  const Key k = key_of(0, 0);
  ASSERT_TRUE(cache.insert(k, 64));
  cache.set_epoch(1);
  // The probe that finds the entry stale recycles it: one stale eviction,
  // and the miss is classified against the epoch bump.
  EXPECT_FALSE(cache.lookup(k, 64));
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
  EXPECT_EQ(cache.stats().flush_misses, 1u);
  // The next probe of the same key finds nothing and counts one more
  // flush miss; nothing is left to evict.
  EXPECT_FALSE(cache.lookup(k, 64));
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
  EXPECT_EQ(cache.stats().flush_misses, 2u);
  EXPECT_EQ(cache.stats().compulsory_misses, 0u);
}

TEST(Cache, EntriesSnapshotMatchesContents) {
  Cache cache(small_config());
  ASSERT_TRUE(cache.insert(key_of(0, 0), 32, 3.5));
  ASSERT_TRUE(cache.insert(key_of(1, 2), 48, 7.0));
  const auto entries = cache.entries();
  ASSERT_EQ(entries.size(), 2u);
  double score_sum = 0;
  std::uint64_t bytes_sum = 0;
  for (const auto& e : entries) {
    score_sum += e.user_score;
    bytes_sum += e.bytes;
  }
  EXPECT_DOUBLE_EQ(score_sum, 10.5);
  EXPECT_EQ(bytes_sum, 80u);
}

// Shadow-model property test: with ample space, the cache must
// behave exactly like a set (every inserted key hits; CachedWindow's tests
// check the bytes a hit serves).
TEST(Cache, ShadowModelNoEvictionRegime) {
  CacheConfig cfg;
  cfg.buffer_bytes = 1 << 20;
  Cache cache(cfg);
  util::Xoshiro256 rng(42);
  std::set<std::uint32_t> shadow;
  for (int step = 0; step < 2000; ++step) {
    // A row's size is fixed (within an epoch), so it follows from the row.
    const auto row = static_cast<std::uint32_t>(rng.next_below(256));
    const std::uint64_t bytes = 8 + (row * 7 % 4) * 8;
    const Key k = key_of(0, row);
    const bool hit = cache.lookup(k, bytes);
    EXPECT_EQ(hit, shadow.contains(row)) << "step " << step;
    if (!hit) {
      ASSERT_TRUE(cache.insert(k, bytes));
      shadow.insert(row);
    }
  }
  EXPECT_EQ(cache.num_entries(), shadow.size());
  EXPECT_EQ(cache.stats().evictions_space, 0u);
}

TEST(Cache, RoomyBufferKeepsEveryRow) {
  // Rows are indexed directly, so nothing but space evicts: a buffer that
  // holds 20,000 rows over 4 targets admits every one of them and then
  // serves every one as a hit.
  constexpr std::uint32_t kTargets = 4;
  constexpr std::uint32_t kRows = 5000;
  const auto bytes_of = [](std::uint32_t row) {
    return std::uint64_t{8} + (row % 7) * 8;
  };
  CacheConfig cfg;
  cfg.buffer_bytes = 0;  // exactly the rows' bytes
  for (std::uint32_t row = 0; row < kRows; ++row)
    cfg.buffer_bytes += kTargets * bytes_of(row);
  for (const VictimPolicy policy :
       {VictimPolicy::LruPositional, VictimPolicy::UserScore}) {
    cfg.policy = policy;
    Cache cache(cfg);
    for (std::uint32_t t = 0; t < kTargets; ++t)
      for (std::uint32_t row = 0; row < kRows; ++row) {
        ASSERT_FALSE(cache.lookup(key_of(t, row), bytes_of(row)));
        ASSERT_TRUE(cache.insert(key_of(t, row), bytes_of(row), 1.0));
      }
    for (std::uint32_t t = 0; t < kTargets; ++t)
      for (std::uint32_t row = 0; row < kRows; ++row)
        ASSERT_TRUE(cache.lookup(key_of(t, row), bytes_of(row)));
    const CacheStats& st = cache.stats();
    EXPECT_EQ(cache.num_entries(), std::size_t{kTargets} * kRows);
    EXPECT_EQ(st.hits, std::uint64_t{kTargets} * kRows);
    EXPECT_EQ(st.compulsory_misses, st.misses);
    EXPECT_EQ(st.evictions_space + st.evictions_conflict + st.stale_evictions,
              0u);
    EXPECT_EQ(st.admission_rejects + st.insert_failures, 0u);
  }
}

TEST(Cache, DebugHitChecksTheRowSize) {
#ifdef NDEBUG
  GTEST_SKIP() << "the hit size is checked in debug builds only";
#else
  testsupport::use_threadsafe_death_tests();
  Cache cache(small_config());
  ASSERT_TRUE(cache.insert(key_of(0, 3), 32));
  EXPECT_DEATH((void)cache.lookup(key_of(0, 3), 64),
               "a row's size changed within an epoch");
#endif
}

// ---------------------------------------------- admission & run eviction ---

TEST(CacheAdmission, LowScoreNewcomerRejected) {
  CacheConfig cfg = small_config();
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i), 256, 50.0));
  // Cache is full of score-50 residents; a score-10 newcomer must bounce.
  EXPECT_FALSE(cache.insert(key_of(0, 9999), 256, 10.0));
  EXPECT_GT(cache.stats().admission_rejects, 0u);
  EXPECT_EQ(cache.num_entries(), 4u);
  // All residents still served.
  for (std::uint32_t i = 0; i < 4; ++i)
    EXPECT_TRUE(cache.lookup(key_of(0, i), 256));
}

TEST(CacheAdmission, EqualScoreDoesNotChurn) {
  CacheConfig cfg = small_config();
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i), 256, 5.0));
  // Same-score newcomers must not displace residents (no cycling).
  EXPECT_FALSE(cache.insert(key_of(1, 0), 256, 5.0));
  EXPECT_EQ(cache.num_entries(), 4u);
}

TEST(CacheRunEviction, AssemblesContiguousSpaceForLargeEntry) {
  // Buffer packed with 32 small low-score entries; a high-score entry of
  // half the buffer must be admitted by clearing a contiguous run.
  CacheConfig cfg;
  cfg.buffer_bytes = 1024;
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  for (std::uint32_t i = 0; i < 32; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i), 32, 1.0));
  EXPECT_TRUE(cache.insert(key_of(7, 0), 512, 100.0));
  EXPECT_TRUE(cache.lookup(key_of(7, 0), 512));
}

TEST(CacheRunEviction, HubsDoNotThrashEachOther) {
  // A hub-sized resident with the top score must not be sacrificed to
  // admit a slightly lower-scored hub (strictly-descending displacement
  // only — this is what keeps the paper's degree scores stable).
  CacheConfig cfg;
  cfg.buffer_bytes = 1024;
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  ASSERT_TRUE(cache.insert(key_of(0, 0), 768, 1000.0));
  for (std::uint32_t i = 0; i < 4; ++i)
    (void)cache.insert(key_of(1, i), 64, 2.0);
  // Hub B (score 900) cannot fit without clearing hub A (score 1000).
  EXPECT_FALSE(cache.insert(key_of(2, 0), 768, 900.0));
  EXPECT_TRUE(cache.lookup(key_of(0, 0), 768));
}

TEST(CacheRunEviction, LruPolicyStillAdmitsLargeEntries) {
  CacheConfig cfg;
  cfg.buffer_bytes = 1024;
  // LruPositional default policy
  Cache cache(cfg);
  for (std::uint32_t i = 0; i < 32; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i), 32));
  EXPECT_TRUE(cache.insert(key_of(3, 0), 900));
  EXPECT_TRUE(cache.lookup(key_of(3, 0), 900));
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
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);

    const std::uint32_t peer = 1 - ctx.rank();
    std::uint32_t buf[8];
    win.get(peer, 2, 16, 8, buf);  // row 2 spans [16, 24): miss -> remote
    EXPECT_EQ(ctx.stats().remote_gets, 1u);
    EXPECT_EQ(buf[0], peer * 1000 + 16);

    win.get(peer, 2, 16, 8, buf);  // hit -> served locally
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
    win.get(ctx.rank(), 0, 0, 4, buf);
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
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);
    std::vector<std::uint32_t> buf(1024);

    const double t0 = ctx.now();
    win.get(1 - ctx.rank(), 0, 0, 1024, buf.data());
    const double miss_cost = ctx.now() - t0;
    const double t1 = ctx.now();
    win.get(1 - ctx.rank(), 0, 0, 1024, buf.data());
    const double hit_cost = ctx.now() - t1;
    EXPECT_LT(hit_cost, miss_cost / 5.0);
    ctx.barrier();
  });
}

/// Hits are zero-copy: under eviction pressure (space and contiguous-run
/// evictions, both policies, two remote targets whose parts
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
      cfg.policy = policy;
      CachedWindow<std::uint32_t> win(ctx, raw, cfg);
      util::Xoshiro256 rng(7 + ctx.rank());
      std::vector<std::uint32_t> dst(512), plain(512);
      for (int step = 0; step < 4000; ++step) {
        const auto target = static_cast<std::uint32_t>(
            (ctx.rank() + 1 + rng.next_below(2)) % 3);
        const auto id = static_cast<std::uint32_t>(rng.next_below(96));
        const std::uint64_t offset = id * 40;
        const std::uint64_t count = 1 + (id * 37) % 300;
        (void)raw.get(target, offset, count, plain.data());
        const std::span<const std::uint32_t> want(plain.data(), count);
        if (const auto hit = win.lookup(target, id, offset, count)) {
          const auto part = raw.view(target, 0, raw.part_size(target));
          ASSERT_GE(hit->data(), part.data()) << "step " << step;
          ASSERT_LE(hit->data() + hit->size(), part.data() + part.size());
          ASSERT_TRUE(std::ranges::equal(*hit, want)) << "step " << step;
        } else {
          win.finish(win.fetch(target, id, offset, count, dst.data(),
                               static_cast<double>(count % 5)));
          ASSERT_TRUE(std::ranges::equal(
              std::span<const std::uint32_t>(dst.data(), count), want))
              << "step " << step;
        }
      }
      const CacheStats& st = win.cache().stats();
      EXPECT_GT(st.hits, 0u);
      EXPECT_GT(st.evictions_space, 0u);
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
    if (ctx.rank() == 1) win.get(0, 2, 8, 4, buf);  // miss: admitted
    ctx.barrier();
    if (ctx.rank() == 0) local[9] = 6;  // no refresh_window
    ctx.barrier();
    if (ctx.rank() == 1) win.get(0, 2, 8, 4, buf);  // hit on changed bytes
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
  const Key k = key_of(1, 0);
  EXPECT_TRUE(cache.insert(k, 32));

  cache.set_epoch(1);  // the window the entry came from was refreshed
  EXPECT_FALSE(cache.lookup(k, 32));  // never served stale
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.num_entries(), 0u);  // recycled, not resident

  // Re-insert at the new epoch: served again.
  EXPECT_TRUE(cache.insert(k, 32));
  EXPECT_TRUE(cache.lookup(k, 32));
}

TEST(CacheEpochs, ContainsTreatsStaleAsAbsentAndInsertReplaces) {
  Cache cache(small_config());
  const Key k = key_of(2, 8);
  EXPECT_TRUE(cache.insert(k, 16));
  EXPECT_TRUE(cache.contains(k));

  cache.set_epoch(3);
  EXPECT_FALSE(cache.contains(k));  // stale reads as absent...
  EXPECT_TRUE(cache.insert(k, 24));  // ...and insert replaces it, resized
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
  EXPECT_TRUE(cache.lookup(k, 24));
  EXPECT_EQ(cache.entries().at(0).bytes, 24u);
}

TEST(CacheEpochs, RefusedInsertLeavesTheStaleResidentToItsProbe) {
  // An insert refused for its size keeps a stale resident's row: the next
  // probe recycles the entry and counts a flush miss, not a capacity miss.
  Cache cache(small_config());
  const Key k = key_of(0, 5);
  ASSERT_TRUE(cache.insert(k, 64));
  cache.set_epoch(1);
  EXPECT_FALSE(cache.insert(k, 4096));  // larger than the whole buffer
  EXPECT_EQ(cache.stats().insert_failures, 1u);
  EXPECT_FALSE(cache.lookup(k, 4096));
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
  EXPECT_EQ(cache.stats().flush_misses, 1u);
  EXPECT_EQ(cache.stats().capacity_misses, 0u);
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST(CacheEpochs, SameEpochNeverInvalidates) {
  Cache cache(small_config());
  const Key k = key_of(0, 0);
  EXPECT_TRUE(cache.insert(k, 16));
  cache.set_epoch(0);  // unchanged epoch: nothing invalidated
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(cache.lookup(k, 16));
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
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);

    const std::uint32_t peer = 1 - ctx.rank();
    std::uint32_t buf[4] = {};
    win.get(peer, 0, 0, 4, buf);  // miss -> cached
    EXPECT_EQ(buf[0], peer + 1);
    win.get(peer, 0, 0, 4, buf);  // hit from cache
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
    EXPECT_FALSE(win.lookup(peer, 0, 0, 4).has_value())
        << "stale entry must never be served";
    win.finish(win.fetch(peer, 0, 0, 4, buf));
    EXPECT_EQ(buf[0], peer + 101);
    EXPECT_EQ(win.cache().stats().stale_evictions, 1u);
    EXPECT_EQ(win.cache().stats().hits, 1u);  // no new hit from the probe

    // Re-cached at the new epoch: hits again, viewing the new exposure.
    const auto hit = win.lookup(peer, 0, 0, 4);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ((*hit)[0], peer + 101);
    EXPECT_EQ(win.cache().stats().hits, 2u);
    ctx.barrier();
  });
}

TEST(CachedWindow, RefreshThatMovesARowRecyclesItsEntry) {
  // The row is the key, not its position: a refresh that lengthens row 0
  // moves row 1's start, and re-probing row 1 must find and recycle its
  // old entry (one stale eviction, one flush miss), not take a compulsory
  // miss on a key it has never seen while the old entry lingers.
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(8, ctx.rank() + 1);  // rows [0,4) [4,8)
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 14;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);

    const std::uint32_t peer = 1 - ctx.rank();
    std::uint32_t buf[4] = {};
    win.get(peer, 1, 4, 4, buf);  // miss -> cached
    ASSERT_EQ(win.cache().num_entries(), 1u);

    std::vector<std::uint32_t> next(10, ctx.rank() + 50);  // rows [0,6) [6,10)
    ctx.refresh_window(raw, std::span<const std::uint32_t>(next));
    EXPECT_FALSE(win.lookup(peer, 1, 6, 4).has_value());
    const CacheStats& st = win.cache().stats();
    EXPECT_EQ(st.stale_evictions, 1u);
    EXPECT_EQ(st.flush_misses, 1u);
    EXPECT_EQ(st.compulsory_misses, 1u);  // the first probe's, no other
    EXPECT_EQ(win.cache().num_entries(), 0u);
    ctx.barrier();  // keep `next` exposed until all peers finished
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
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);

    const std::uint32_t peer = 1 - ctx.rank();
    std::uint32_t buf[4] = {};
    ASSERT_FALSE(win.lookup(peer, 0, 0, 4).has_value());
    const auto pending = win.fetch(peer, 0, 0, 4, buf, 1.0);  // miss in flight
    std::vector<std::uint32_t> next(64, ctx.rank() + 77);
    ctx.refresh_window(raw, std::span<const std::uint32_t>(next));
    win.finish(pending);
    EXPECT_EQ(buf[0], peer + 1);  // caller sees the pre-refresh transfer
    EXPECT_EQ(win.cache().num_entries(), 0u) << "stale payload cached";

    win.get(peer, 0, 0, 4, buf);  // must refetch from the live exposure
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
/// to force phase-1 and phase-2 (contiguous run) evictions,
/// with heavily tied scores and epoch bumps. Every
/// return value, every CacheStats counter and the final entries() are
/// folded into one digest: any change to an admission or eviction decision
/// — including which of several equal-score entries or equal-size free
/// blocks is chosen — changes it.
std::uint64_t decision_digest(VictimPolicy policy) {
  CacheConfig cfg;
  cfg.buffer_bytes = 16 << 10;
  cfg.policy = policy;
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
    const auto row = static_cast<std::uint32_t>(id);
    const Key k = key_of(row % 4, row);
    const double score = static_cast<double>(1 + id % 3);
    bool resident;
    if (rng.next_below(8) == 0) {
      resident = cache.contains(k);  // the CachedWindow::finish probe
    } else {
      resident = cache.lookup(k, bytes);
      ++calls;
    }
    d.fold(resident);
    if (!resident) {
      d.fold(cache.insert(k, bytes, score));
      ++calls;
    }
  }
  const CacheStats& s = cache.stats();
  for (const std::uint64_t v :
       {s.hits, s.misses, s.compulsory_misses, s.capacity_misses,
        s.conflict_misses, s.flush_misses, s.evictions_space,
        s.evictions_conflict, s.stale_evictions, s.insert_failures,
        s.admission_rejects, s.bytes_hit, s.bytes_missed})
    d.fold(v);
  for (const EntryInfo& e : cache.entries()) {
    d.fold(e.key.target);
    d.fold(e.key.row);
    d.fold(e.bytes);
    d.fold(e.user_score);
    d.fold(e.last_tick);
  }
  // The run must reach every decision path the digest is meant to pin.
  EXPECT_GE(calls, 50000u);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evictions_space, 0u);
  EXPECT_GT(s.stale_evictions, 0u);
  // The admission gate, phase 2's included, is part of what it pins.
  if (policy == VictimPolicy::UserScore) {
    EXPECT_GT(s.admission_rejects, 0u);
  }
  return d.state;
}

TEST(CacheGolden, LruPositionalDecisionDigest) {
  EXPECT_EQ(decision_digest(VictimPolicy::LruPositional),
            0xb9528fe72a10dbd7ull);
}

TEST(CacheGolden, UserScoreDecisionDigest) {
  EXPECT_EQ(decision_digest(VictimPolicy::UserScore), 0xb9a3c8fe6d28ab4full);
}

TEST(CachedWindow, OverlappedMissInsertsOnFinish) {
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(4096, 9);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 16;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);
    std::vector<std::uint32_t> buf(512);
    ASSERT_FALSE(win.lookup(1 - ctx.rank(), 0, 0, 512).has_value());
    const auto pending =
        win.fetch(1 - ctx.rank(), 0, 0, 512, buf.data(), 3.0);
    EXPECT_EQ(win.cache().num_entries(), 0u);  // not yet inserted
    ctx.charge_compute(1e-3);                  // overlapping work
    win.finish(pending);
    EXPECT_EQ(win.cache().num_entries(), 1u);
    EXPECT_EQ(buf[0], 9u);
    ctx.barrier();
  });
}

// ------------------------------------------- FixedCache against Cache ---

/// One seeded stream of C_offsets-shaped calls: 16-byte entries under
/// skewed (target, row) keys, a contains() probe on one call in eight (the
/// CachedWindow::finish probe), an insert after every miss, and an epoch
/// bump every `epoch_every` steps.
struct OffsetsStream {
  std::uint64_t seed;
  std::uint32_t targets;
  std::uint32_t rows;
  int steps;
  int epoch_every;
};

/// Drives a FixedCache and Cache{LruPositional} over `buffer_bytes` with
/// one stream and checks every answer (lookup, contains, insert) for
/// equality, then CacheStats and entries() (keys and ticks, in LRU order).
/// Returns the reference's stats.
CacheStats expect_same_decisions(std::uint64_t buffer_bytes,
                                 const OffsetsStream& stream) {
  constexpr std::uint64_t kBytes = FixedCache::kEntryBytes;
  CacheConfig cfg;
  cfg.buffer_bytes = buffer_bytes;
  cfg.policy = VictimPolicy::LruPositional;
  Cache ref(cfg);
  FixedCache table(buffer_bytes);
  EXPECT_EQ(table.capacity(), buffer_bytes / kBytes);
  util::Xoshiro256 rng(stream.seed);
  std::uint64_t epoch = 0;
  const bool failed_before = ::testing::Test::HasFailure();
  for (int step = 0; step < stream.steps; ++step) {
    if (step % stream.epoch_every == stream.epoch_every - 1) {
      ref.set_epoch(++epoch);
      table.set_epoch(epoch);
    }
    // Small rows are hot, as hub rows are.
    const auto row = static_cast<std::uint32_t>(
        rng.next_below(1 + rng.next_below(stream.rows)));
    const Key k{static_cast<std::uint32_t>(rng.next_below(stream.targets)),
                row};
    bool resident;
    if (rng.next_below(8) == 0) {
      resident = ref.contains(k);
      EXPECT_EQ(table.contains(k), resident) << "contains, step " << step;
    } else {
      resident = ref.lookup(k, kBytes);
      EXPECT_EQ(table.lookup(k, kBytes), resident) << "lookup, step " << step;
    }
    if (!resident) {
      const bool admitted = ref.insert(k, kBytes);
      EXPECT_EQ(table.insert(k, kBytes), admitted) << "insert, step " << step;
    }
    // Report the first diverging step only.
    if (!failed_before && ::testing::Test::HasFailure()) break;
  }
  const CacheStats& want = ref.stats();
  EXPECT_EQ(table.stats(), want);
  const auto got_entries = table.entries();
  const auto want_entries = ref.entries();
  EXPECT_EQ(table.num_entries(), ref.num_entries());
  EXPECT_EQ(got_entries.size(), want_entries.size());
  for (std::size_t i = 0;
       i < std::min(got_entries.size(), want_entries.size()); ++i) {
    EXPECT_EQ(got_entries[i].key, want_entries[i].key) << "entry " << i;
    EXPECT_EQ(got_entries[i].bytes, want_entries[i].bytes) << "entry " << i;
    EXPECT_EQ(got_entries[i].last_tick, want_entries[i].last_tick)
        << "entry " << i;
  }
  return want;
}

TEST(FixedCacheDiff, MatchesLruPositionalCacheOnWholeEntryBuffers) {
  // Every hole is refilled before any eviction on a buffer of whole
  // entries, so no victim candidate borders free space and LruPositional's
  // positional weight is pure LRU.
  CacheStats total;
  for (const std::uint64_t entries : {1, 2, 3, 7, 16, 64, 301}) {
    for (const std::uint32_t targets : {1u, 3u}) {
      SCOPED_TRACE(::testing::Message()
                   << entries << " entries, " << targets << " targets");
      const OffsetsStream stream{.seed = 1000 * entries + targets,
                                 .targets = targets,
                                 .rows = static_cast<std::uint32_t>(
                                     4 * entries / targets + 8),
                                 .steps = 20000,
                                 .epoch_every = 3000};
      const CacheStats s = expect_same_decisions(16 * entries, stream);
      EXPECT_GT(s.hits, 0u);
      EXPECT_GT(s.evictions_space, 0u);
      total += s;
    }
  }
  // Together the streams reach every decision the two tables make.
  EXPECT_GT(total.capacity_misses, 0u);
  EXPECT_GT(total.stale_evictions, 0u);
  EXPECT_GT(total.flush_misses, 0u);
  EXPECT_GT(total.compulsory_misses, 0u);
}

TEST(FixedCacheDiff, MatchesCacheWithoutEvictionsAndWithNoRoom) {
  // A buffer larger than every row ever probed never evicts for space; a
  // buffer under one entry refuses every insert and logs it as a capacity
  // miss. Neither depends on the buffer being whole entries.
  const OffsetsStream stream{
      .seed = 7, .targets = 2, .rows = 200, .steps = 5000, .epoch_every = 700};
  const CacheStats roomy = expect_same_decisions(16 * 500 + 9, stream);
  EXPECT_EQ(roomy.evictions_space, 0u);
  EXPECT_GT(roomy.stale_evictions, 0u);
  for (const std::uint64_t buffer_bytes : {0, 8, 15}) {
    const CacheStats none = expect_same_decisions(buffer_bytes, stream);
    EXPECT_EQ(none.hits, 0u);
    EXPECT_GE(none.insert_failures, none.misses);
    EXPECT_GT(none.capacity_misses, 0u);
  }
}

TEST(FixedCacheDiff, RemainderBytesMakeCachePreferTheEntryNextToTheTail) {
  // The one other divergence. 16 whole entries and an 8-byte tail: both
  // tables hold 16 entries, but Cache's positional score rewards evicting
  // the entry that borders the free tail, while FixedCache is pure LRU over
  // the 16 entries.
  constexpr std::uint64_t kBuffer = 16 * 16 + 8;
  Cache ref({.buffer_bytes = kBuffer});
  FixedCache table(kBuffer);
  ASSERT_EQ(table.capacity(), 16u);
  for (std::uint32_t row = 0; row < 16; ++row) {
    ASSERT_TRUE(ref.insert(key_of(0, row), 16));
    ASSERT_TRUE(table.insert(key_of(0, row), 16));
  }
  // Row 15 fills the last whole entry, next to the tail. Touch rows 1..14,
  // so the LRU order from the cold end reads 0, 15, 1, ..., 14.
  for (std::uint32_t row = 1; row < 15; ++row) {
    ASSERT_TRUE(ref.lookup(key_of(0, row), 16));
    ASSERT_TRUE(table.lookup(key_of(0, row), 16));
  }
  // The 17th entry evicts one. FixedCache takes row 0, the least recently
  // used. Cache weighs its 16 coldest candidates: row 15's merge benefit
  // 8/16 takes 0.5 * 16 / 4 = 2 off its rank 1, below row 0's rank 0.
  ASSERT_TRUE(ref.insert(key_of(0, 16), 16));
  ASSERT_TRUE(table.insert(key_of(0, 16), 16));
  EXPECT_FALSE(table.contains(key_of(0, 0)));
  EXPECT_TRUE(table.contains(key_of(0, 15)));
  EXPECT_TRUE(ref.contains(key_of(0, 0)));
  EXPECT_FALSE(ref.contains(key_of(0, 15)));
  // Only the victim differs: the counters agree.
  EXPECT_EQ(table.stats(), ref.stats());
}

TEST(FixedCache, DebugHitChecksTheEntrySize) {
#ifdef NDEBUG
  GTEST_SKIP() << "the hit size is checked in debug builds only";
#else
  testsupport::use_threadsafe_death_tests();
  FixedCache table(1024);
  ASSERT_TRUE(table.insert(key_of(0, 3), 16));
  EXPECT_DEATH((void)table.lookup(key_of(0, 3), 8),
               "a row's size changed within an epoch");
#endif
}

}  // namespace
}  // namespace atlc::clampi
