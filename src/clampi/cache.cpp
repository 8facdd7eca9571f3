#include "atlc/clampi/cache.hpp"

#include <algorithm>
#include <limits>

#include "atlc/util/check.hpp"

namespace atlc::clampi {

/// LruPositional: how many LRU-tail candidates compete on positional score.
constexpr std::size_t kLruWindow = 16;

Cache::Cache(CacheConfig config)
    : config_(config),
      free_(config.buffer_bytes, config.policy == VictimPolicy::UserScore) {}

void Cache::lru_unlink(std::int32_t idx) {
  Entry& e = pool_[idx];
  if (e.lru_prev != -1)
    pool_[e.lru_prev].lru_next = e.lru_next;
  else
    lru_head_ = e.lru_next;
  if (e.lru_next != -1)
    pool_[e.lru_next].lru_prev = e.lru_prev;
  else
    lru_tail_ = e.lru_prev;
  e.lru_prev = e.lru_next = -1;
}

void Cache::lru_push_front(std::int32_t idx) {
  Entry& e = pool_[idx];
  e.lru_prev = -1;
  e.lru_next = lru_head_;
  if (lru_head_ != -1) pool_[lru_head_].lru_prev = idx;
  lru_head_ = idx;
  if (lru_tail_ == -1) lru_tail_ = idx;
}

void Cache::touch(std::int32_t idx) {
  lru_unlink(idx);
  lru_push_front(idx);
  pool_[idx].last_tick = ++tick_;
}

bool Cache::lookup(Key key, std::uint64_t bytes) {
  if (const std::int32_t idx = index_[key]; idx >= 0) {
    if (pool_[idx].epoch != current_epoch_) {
      // The window advanced past the epoch this entry was fetched at: the
      // target's exposure may have changed. Serving it would violate
      // coherence, so the entry is recycled and the probe reported as a miss
      // (stale-hit-as-miss, DESIGN.md §7).
      evict(idx, RowIndex::kStale);
    } else {
      ATLC_DCHECK(pool_[idx].bytes == bytes,
                  "a row's size changed within an epoch");
      touch(idx);
      ++stats_.hits;
      stats_.bytes_hit += bytes;
      return true;
    }
  }
  index_.count_miss(key, bytes, stats_);
  return false;
}

void Cache::evict(std::int32_t idx, std::int32_t reason) {
  Entry& e = pool_[idx];
  ATLC_DCHECK(e.live, "evicting a dead entry");
  index_.evicted(e.key, reason, stats_);
  free_.release(e.block);
  lru_unlink(idx);
  if (config_.policy == VictimPolicy::UserScore) by_score_.erase(e.by_score);
  e.live = false;
  pool_free_.push_back(idx);
  --live_entries_;
}

std::int32_t Cache::lru_positional_pick() {
  // Paper / CLaMPI: "LRU weighted on a positional score to limit external
  // fragmentation". Candidate i (0 = least recently used) has base weight i;
  // the merge-benefit ratio of its surroundings subtracts up to half the
  // window, so a perfectly-mergeable entry can be evicted ahead of up to
  // window/2 colder entries.
  std::int32_t best = -1;
  double best_weight = 0.0;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    const Entry& e = pool_[candidates_[i]];
    const double benefit =
        e.bytes > 0
            ? std::min(2.0, static_cast<double>(free_.adjacent_free(e.block)) /
                                static_cast<double>(e.bytes))
            : 0.0;
    const double weight =
        static_cast<double>(i) -
        benefit * static_cast<double>(candidates_.size()) / 4.0;
    if (best == -1 || weight < best_weight) {
      best = candidates_[i];
      best_weight = weight;
    }
  }
  return best;
}

std::int32_t Cache::pick_victim_global() {
  if (live_entries_ == 0) return -1;
  if (config_.policy == VictimPolicy::UserScore) {
    ATLC_DCHECK(!by_score_.empty(), "score index out of sync");
    return by_score_.begin()->second;  // lowest application score
  }
  candidates_.clear();
  for (std::int32_t it = lru_tail_;
       it != -1 && candidates_.size() < kLruWindow;
       it = pool_[it].lru_prev)
    candidates_.push_back(it);
  return lru_positional_pick();
}

bool Cache::make_room(std::uint64_t bytes, double incoming_score) {
  // Phase 1: bounded cheapest-first single evictions (CLaMPI's score-ordered
  // victim selection). Coalescing usually opens a fitting hole when the
  // incoming entry is around the median entry size.
  for (int k = 0; k < 16; ++k) {
    const std::int32_t victim = pick_victim_global();
    if (victim < 0) break;  // cache empty
    if (config_.policy == VictimPolicy::UserScore &&
        pool_[victim].user_score >= incoming_score) {
      // The cheapest resident already outranks the newcomer, so every
      // resident does: admission denied (paper Section III-B2 intent).
      return false;
    }
    evict(victim, RowIndex::kCapacity);
    if (free_.largest_free() >= bytes) return true;
  }
  if (live_entries_ == 0) return free_.largest_free() >= bytes;

  // Phase 2: external fragmentation blocks the allocation although cheap
  // entries exist (typical when a hub-sized adjacency list arrives over a
  // buffer full of small entries). Clear the cheapest CONTIGUOUS run —
  // the run-cost is the max entry score inside it, so a run containing a
  // higher-ranked resident is never sacrificed for a lower-ranked newcomer
  // (this is what keeps hub entries from thrashing each other).
  const bool by_score = config_.policy == VictimPolicy::UserScore;
  const auto cost = [&](std::int32_t owner, FreeSpace::Handle block) {
    const Entry& e = pool_[owner];
    ATLC_CHECK(e.live && e.block == block, "cache buffer layout corrupted");
    return by_score ? e.user_score : static_cast<double>(e.last_tick);
  };
  // Most UserScore calls end in a reject here. The gate index decides
  // whether any run costs less than the newcomer without the full search
  // (exact: see FreeSpace); Debug builds check it against that search.
  const bool gate_open =
      !by_score || free_.any_run_below(bytes, incoming_score, cost);
  ATLC_DCHECK(!by_score ||
                  gate_open ==
                      (free_.cheapest_run(bytes, cost, victims_)
                           .value_or(std::numeric_limits<double>::infinity()) <
                       incoming_score),
              "phase-2 gate index disagrees with the run search");
  if (!gate_open) return false;
  const std::optional<double> run = free_.cheapest_run(bytes, cost, victims_);
  if (!run || (by_score && *run >= incoming_score)) return false;
  for (const std::int32_t v : victims_) evict(v, RowIndex::kCapacity);
  return free_.largest_free() >= bytes;
}

bool Cache::insert(Key key, std::uint64_t bytes, double user_score) {
  const std::int32_t prev = index_[key];
  if (bytes == 0 || bytes > config_.buffer_bytes) {
    // Zero-byte entries carry no data worth caching (and cannot tile the
    // buffer layout); oversized ones cannot fit. A stale resident keeps
    // the row until a probe recycles it.
    ++stats_.insert_failures;
    if (prev < 0) index_.set(key, RowIndex::kCapacity);
    return false;
  }
  if (prev >= 0) {
    // A stale resident from an older epoch still occupies the key (a deep
    // pipeline can complete a pre-refresh miss after the epoch advanced).
    // Recycle it; the incoming entry is the current-epoch replacement.
    ATLC_DCHECK(pool_[prev].epoch != current_epoch_,
                "insert of an already-cached key");
    evict(prev, RowIndex::kStale);
  }

  // Make buffer space (may require capacity evictions). Best fit finds a
  // block iff the largest free block is big enough.
  if (free_.largest_free() < bytes && !make_room(bytes, user_score)) {
    ++stats_.admission_rejects;
    index_.set(key, RowIndex::kCapacity);
    return false;
  }

  // Materialise the entry.
  std::int32_t idx;
  if (!pool_free_.empty()) {
    idx = pool_free_.back();
    pool_free_.pop_back();
  } else {
    idx = static_cast<std::int32_t>(pool_.size());
    pool_.emplace_back();
  }
  const std::optional<FreeSpace::Handle> block =
      free_.allocate(bytes, idx, user_score);
  ATLC_CHECK(block.has_value(), "make_room must enable the allocation");
  Entry& e = pool_[idx];
  e.key = key;
  e.bytes = bytes;
  e.block = *block;
  e.last_tick = ++tick_;
  e.epoch = current_epoch_;
  e.user_score = user_score;
  e.live = true;
  index_.set(key, idx);
  lru_push_front(idx);
  if (config_.policy == VictimPolicy::UserScore)
    e.by_score = by_score_.emplace(user_score, idx);
  ++live_entries_;
  return true;
}

std::vector<EntryInfo> Cache::entries() const {
  std::vector<EntryInfo> out;
  out.reserve(live_entries_);
  for (std::int32_t it = lru_head_; it != -1; it = pool_[it].lru_next)
    out.push_back({pool_[it].key, pool_[it].bytes, pool_[it].user_score,
                   pool_[it].last_tick});
  return out;
}

}  // namespace atlc::clampi
