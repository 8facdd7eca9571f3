#include "atlc/clampi/cache.hpp"

#include <algorithm>
#include <cmath>

#include "atlc/util/check.hpp"
#include "atlc/util/rng.hpp"

namespace atlc::clampi {

namespace {

/// Adaptive tuning: grow when more than this share of the accesses since
/// the last check found a full probe window...
constexpr double kAdaptiveConflictThreshold = 0.05;
/// ...and never past this many hash slots.
constexpr std::size_t kMaxHashSlots = 1u << 22;

}  // namespace

std::uint64_t key_hash(const Key& k) {
  std::uint64_t h = util::mix64(k.target, 0x9E3779B9u);
  h = util::mix64(h ^ k.offset, 0x85EBCA6Bu);
  h = util::mix64(h ^ k.bytes, 0xC2B2AE35u);
  return h;
}

Cache::Cache(CacheConfig config)
    : config_(config),
      free_(config.buffer_bytes),
      slots_(std::max<std::size_t>(1, config.hash_slots), kEmpty) {
  ATLC_CHECK(config_.probe_limit > 0, "probe_limit must be positive");
}

std::int32_t Cache::find(const Key& key) const {
  const std::uint64_t base = key_hash(key);
  for (std::size_t i = 0; i < config_.probe_limit; ++i) {
    const std::size_t s = (base + i) % slots_.size();
    const std::int32_t idx = slots_[s];
    if (idx == kEmpty) return -1;
    if (idx == kTombstone) continue;
    if (pool_[idx].key == key) return idx;
  }
  return -1;
}

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

bool Cache::lookup(const Key& key) {
  ++window_accesses_;
  maybe_adapt();
  const std::int32_t idx = find(key);
  if (idx >= 0) {
    if (pool_[idx].epoch != current_epoch_) {
      // The window advanced past the epoch this entry was fetched at: the
      // target's exposure may have changed. Serving it would violate
      // coherence, so the entry is recycled and the probe reported as a miss
      // (stale-hit-as-miss, DESIGN.md §7).
      evict(idx, GoneReason::Stale);
    } else {
      touch(idx);
      ++stats_.hits;
      stats_.bytes_hit += key.bytes;
      return true;
    }
  }
  ++stats_.misses;
  stats_.bytes_missed += key.bytes;
  classify_miss(key);
  return false;
}

void Cache::classify_miss(const Key& key) {
  const auto it = gone_.find(key_hash(key));
  if (it == gone_.end()) {
    ++stats_.compulsory_misses;
    return;
  }
  switch (it->second) {
    case GoneReason::EvictedSpace: ++stats_.capacity_misses; break;
    case GoneReason::EvictedConflict: ++stats_.conflict_misses; break;
    case GoneReason::Flushed: ++stats_.flush_misses; break;
    // Epoch invalidation is a targeted flush of one entry.
    case GoneReason::Stale: ++stats_.flush_misses; break;
    case GoneReason::NeverStored: ++stats_.capacity_misses; break;
  }
}

void Cache::note_gone(const Key& key, GoneReason reason) {
  gone_[key_hash(key)] = reason;
}

void Cache::evict(std::int32_t idx, GoneReason reason) {
  Entry& e = pool_[idx];
  ATLC_DCHECK(e.live, "evicting a dead entry");
  note_gone(e.key, reason);
  slots_[e.slot] = kTombstone;
  free_.release(e.block);
  lru_unlink(idx);
  if (config_.policy == VictimPolicy::UserScore) by_score_.erase(e.by_score);
  e.live = false;
  pool_free_.push_back(idx);
  --live_entries_;
  if (reason == GoneReason::EvictedSpace) ++stats_.evictions_space;
  if (reason == GoneReason::EvictedConflict) ++stats_.evictions_conflict;
  if (reason == GoneReason::Stale) ++stats_.stale_evictions;
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
        e.key.bytes > 0
            ? std::min(2.0, static_cast<double>(free_.adjacent_free(e.block)) /
                                static_cast<double>(e.key.bytes))
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
       it != -1 && candidates_.size() < config_.lru_window;
       it = pool_[it].lru_prev)
    candidates_.push_back(it);
  return lru_positional_pick();
}

std::int32_t Cache::pick_victim_in_probe_window(std::uint64_t hash_base) {
  candidates_.clear();
  for (std::size_t i = 0; i < config_.probe_limit; ++i) {
    const std::int32_t idx = slots_[(hash_base + i) % slots_.size()];
    if (idx >= 0) candidates_.push_back(idx);
  }
  if (candidates_.empty()) return -1;
  if (config_.policy == VictimPolicy::UserScore) {
    return *std::min_element(candidates_.begin(), candidates_.end(),
                             [&](std::int32_t a, std::int32_t b) {
                               if (pool_[a].user_score != pool_[b].user_score)
                                 return pool_[a].user_score <
                                        pool_[b].user_score;
                               return pool_[a].last_tick < pool_[b].last_tick;
                             });
  }
  // Order candidates oldest-first so positional weighting applies as in the
  // global case.
  std::sort(candidates_.begin(), candidates_.end(),
            [&](std::int32_t a, std::int32_t b) {
              return pool_[a].last_tick < pool_[b].last_tick;
            });
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
    evict(victim, GoneReason::EvictedSpace);
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
  const std::optional<double> cost = free_.cheapest_run(
      bytes,
      [&](std::int32_t owner, FreeSpace::Handle block) {
        const Entry& e = pool_[owner];
        ATLC_CHECK(e.live && e.block == block,
                   "cache buffer layout corrupted");
        return by_score ? e.user_score : static_cast<double>(e.last_tick);
      },
      victims_);
  if (!cost || (by_score && *cost >= incoming_score)) return false;
  for (const std::int32_t v : victims_) evict(v, GoneReason::EvictedSpace);
  return free_.largest_free() >= bytes;
}

bool Cache::insert(const Key& key, double user_score) {
  if (key.bytes == 0 || key.bytes > config_.buffer_bytes) {
    // Zero-byte entries carry no data worth caching (and cannot tile the
    // buffer layout); oversized ones cannot fit.
    ++stats_.insert_failures;
    note_gone(key, GoneReason::NeverStored);
    return false;
  }
  if (const std::int32_t prev = find(key); prev >= 0) {
    // A stale resident from an older epoch still occupies the key (a deep
    // pipeline can complete a pre-refresh miss after the epoch advanced).
    // Recycle it; the incoming entry is the current-epoch replacement.
    ATLC_DCHECK(pool_[prev].epoch != current_epoch_,
                "insert of an already-cached key");
    evict(prev, GoneReason::Stale);
  }

  // 1) Claim a hash slot (may require a conflict eviction).
  const std::uint64_t base = key_hash(key);
  std::int32_t slot = -1;
  for (std::size_t i = 0; i < config_.probe_limit; ++i) {
    const std::size_t s = (base + i) % slots_.size();
    if (slots_[s] == kEmpty || slots_[s] == kTombstone) {
      slot = static_cast<std::int32_t>(s);
      break;
    }
  }
  if (slot == -1) {
    ++window_conflicts_;
    const std::int32_t victim = pick_victim_in_probe_window(base);
    ATLC_DCHECK(victim >= 0, "full probe window with no live entry");
    // Admission gate (paper Section III-B2): under application scores, a
    // lower-scored entry must not displace a higher-scored resident —
    // otherwise every miss cycles the cache and hubs never stay resident.
    if (config_.policy == VictimPolicy::UserScore &&
        pool_[victim].user_score >= user_score) {
      ++stats_.admission_rejects;
      note_gone(key, GoneReason::NeverStored);
      return false;
    }
    slot = static_cast<std::int32_t>(pool_[victim].slot);
    evict(victim, GoneReason::EvictedConflict);
  }

  // 2) Make buffer space (may require capacity evictions). Best fit finds
  // a block iff the largest free block is big enough. (Any victims evicted
  // here cannot occupy the slot claimed above: we claimed an
  // empty/tombstone slot and evict() only tombstones live slots.)
  if (free_.largest_free() < key.bytes && !make_room(key.bytes, user_score)) {
    ++stats_.admission_rejects;
    note_gone(key, GoneReason::NeverStored);
    return false;
  }

  // 3) Materialise the entry.
  std::int32_t idx;
  if (!pool_free_.empty()) {
    idx = pool_free_.back();
    pool_free_.pop_back();
  } else {
    idx = static_cast<std::int32_t>(pool_.size());
    pool_.emplace_back();
  }
  const std::optional<FreeSpace::Handle> block =
      free_.allocate(key.bytes, idx);
  ATLC_CHECK(block.has_value(), "make_room must enable the allocation");
  Entry& e = pool_[idx];
  e.key = key;
  e.block = *block;
  e.last_tick = ++tick_;
  e.epoch = current_epoch_;
  e.user_score = user_score;
  e.slot = static_cast<std::uint32_t>(slot);
  e.live = true;
  slots_[slot] = idx;
  lru_push_front(idx);
  if (config_.policy == VictimPolicy::UserScore)
    e.by_score = by_score_.emplace(user_score, idx);
  ++live_entries_;
  gone_.erase(key_hash(key));
  return true;
}

void Cache::flush() {
  for (std::int32_t it = lru_head_; it != -1; it = pool_[it].lru_next)
    note_gone(pool_[it].key, GoneReason::Flushed);
  pool_.clear();
  pool_free_.clear();
  std::fill(slots_.begin(), slots_.end(), kEmpty);
  by_score_.clear();
  free_.reset();
  live_entries_ = 0;
  lru_head_ = lru_tail_ = -1;
  ++stats_.flushes;
}

void Cache::maybe_adapt() {
  if (!config_.adaptive || window_accesses_ < config_.adaptive_interval)
    return;
  const double conflict_rate = static_cast<double>(window_conflicts_) /
                               static_cast<double>(window_accesses_);
  window_accesses_ = 0;
  window_conflicts_ = 0;
  if (conflict_rate > kAdaptiveConflictThreshold &&
      slots_.size() * 2 <= kMaxHashSlots) {
    // CLaMPI's adaptive strategy: resize the hash table and FLUSH (paper
    // Section III-B1 — this is why good initial sizes matter).
    flush();
    slots_.assign(slots_.size() * 2, kEmpty);
    ++stats_.hash_resizes;
  }
}

std::vector<EntryInfo> Cache::entries() const {
  std::vector<EntryInfo> out;
  out.reserve(live_entries_);
  for (std::int32_t it = lru_head_; it != -1; it = pool_[it].lru_next)
    out.push_back({pool_[it].key, pool_[it].user_score, pool_[it].last_tick});
  return out;
}

std::size_t Cache::suggest_hash_slots_fixed(std::uint64_t cache_bytes,
                                            std::uint64_t entry_bytes) {
  if (entry_bytes == 0) return 1;
  return std::max<std::size_t>(16, cache_bytes / entry_bytes);
}

std::size_t Cache::suggest_hash_slots_power_law(std::uint64_t num_vertices,
                                                double cache_fraction,
                                                double alpha) {
  const double expected = static_cast<double>(num_vertices) *
                          std::pow(std::clamp(cache_fraction, 0.0, 1.0), alpha);
  return std::max<std::size_t>(16, static_cast<std::size_t>(expected));
}

}  // namespace atlc::clampi
