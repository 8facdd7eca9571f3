#pragma once

#include <cstddef>
#include <cstdint>

#include "atlc/util/counters.hpp"

namespace atlc::clampi {

/// Cache key. CLaMPI indexes cached entries by (window, node, offset, size)
/// — see paper Fig. 3. Here the window is implicit (one cache per window)
/// and the (offset, size) pair is replaced by the remote row it spans: both
/// LCC windows are read one row at a time, and within an epoch a row maps
/// 1:1 to its (offset, size). Unlike a byte offset, a row keeps its key when
/// a refresh_window moves where the row starts, so epoch invalidation finds
/// and recycles the old entry (DESIGN.md §7). The entry's size travels next
/// to the key (lookup/insert) and is stored with the entry.
struct Key {
  std::uint32_t target = 0;
  std::uint32_t row = 0;

  friend bool operator==(const Key&, const Key&) = default;
};

/// Introspection record (drives paper Fig. 5 right: entry sizes vs reuse).
struct EntryInfo {
  Key key;
  std::uint64_t bytes = 0;
  double user_score = 0.0;
  std::uint64_t last_tick = 0;
};

/// Victim-selection policy.
enum class VictimPolicy : std::uint8_t {
  /// CLaMPI default: least-recently-used weighted by a positional score
  /// that prefers evicting entries whose removal merges free regions
  /// (reduces external fragmentation).
  LruPositional,
  /// This paper's extension (Section III-B2): the application supplies a
  /// score per entry (degree centrality for C_adj); the lowest-scored entry
  /// is evicted. The spatial anti-fragmentation effect is deliberately
  /// lost, as the paper notes.
  UserScore,
};

/// `Cache` shape and policy (C_adj's cache), fixed for the cache's
/// lifetime. C_offsets' `FixedCache` takes only a buffer size: its entries
/// have one size, so it needs neither a hash table nor a policy. There is no
/// consistency-mode switch: the cached windows are read-only within a
/// window epoch (the paper's "the graph is never modified during the
/// computation"), and epoch stamping is the only invalidation
/// (Cache::set_epoch, DESIGN.md §7). Nor is the hash table ever resized:
/// CLaMPI flushes the whole cache on every resize, which is why the paper
/// sizes the table up front (Section III-B1), and so does every caller here.
struct CacheConfig {
  /// Capacity of the cache buffer. The cache keeps no payload bytes (hits
  /// are views of the owner's exposure), but every admission and eviction
  /// is decided as if entries occupied a buffer of this size.
  std::uint64_t buffer_bytes = 1ull << 20;
  /// Number of hash-table slots, never resized. CLaMPI sizing heuristics
  /// (paper Section III-B1): ~ one slot per expected entry; see
  /// `Cache::suggest_hash_slots_power_law`. Linear probing looks at
  /// 8 slots from a key's hash; a full window is a hash *conflict*.
  std::size_t hash_slots = 4096;
  VictimPolicy policy = VictimPolicy::LruPositional;
};

/// Cache observability counters (drive paper Figs. 7 and 8).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t compulsory_misses = 0;  ///< key never seen before
  std::uint64_t capacity_misses = 0;    ///< key evicted earlier for space
  /// Key evicted earlier by a hash conflict (always 0 in a FixedCache).
  std::uint64_t conflict_misses = 0;
  /// Key recycled by an epoch bump (the entry went stale, see
  /// stale_evictions) and probed again.
  std::uint64_t flush_misses = 0;
  std::uint64_t evictions_space = 0;
  std::uint64_t evictions_conflict = 0;
  /// Entries recycled because the window epoch advanced past the epoch they
  /// were fetched at (dynamic graphs: a refresh_window invalidated them).
  /// A stale probe is served as a miss, never as a hit.
  std::uint64_t stale_evictions = 0;
  /// Inserts refused outright: a zero-byte key, or an entry larger than
  /// the whole buffer.
  std::uint64_t insert_failures = 0;
  /// UserScore policy: inserts skipped because the incoming entry scored no
  /// higher than what it would displace (ties reject) — the conflict victim
  /// of a full probe window, the lowest-scored resident in make_room's
  /// phase 1, or the cheapest contiguous run in its phase 2 (paper Section
  /// III-B2: "avoid storing a high number of low-degree vertices").
  std::uint64_t admission_rejects = 0;
  std::uint64_t bytes_hit = 0;
  std::uint64_t bytes_missed = 0;

  /// The counter list: JSON key order, field-wise sums, audits.
  static constexpr auto counters() {
    using S = CacheStats;
    return std::tuple{
        util::Counter{"hits", &S::hits},
        util::Counter{"misses", &S::misses},
        util::Counter{"compulsory_misses", &S::compulsory_misses},
        util::Counter{"capacity_misses", &S::capacity_misses},
        util::Counter{"conflict_misses", &S::conflict_misses},
        util::Counter{"flush_misses", &S::flush_misses},
        util::Counter{"evictions_space", &S::evictions_space},
        util::Counter{"evictions_conflict", &S::evictions_conflict},
        util::Counter{"stale_evictions", &S::stale_evictions},
        util::Counter{"insert_failures", &S::insert_failures},
        util::Counter{"admission_rejects", &S::admission_rejects},
        util::Counter{"bytes_hit", &S::bytes_hit},
        util::Counter{"bytes_missed", &S::bytes_missed}};
  }

  CacheStats& operator+=(const CacheStats& o) {
    return util::add_counters(*this, o);
  }
  bool operator==(const CacheStats&) const = default;

  [[nodiscard]] std::uint64_t accesses() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return accesses() ? static_cast<double>(hits) /
                            static_cast<double>(accesses())
                      : 0.0;
  }
  [[nodiscard]] double miss_rate() const {
    return accesses() ? 1.0 - hit_rate() : 0.0;
  }
};
static_assert(util::lists_every_member<CacheStats>());

}  // namespace atlc::clampi
