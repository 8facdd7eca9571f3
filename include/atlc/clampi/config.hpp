#pragma once

#include <cstddef>
#include <cstdint>

#include "atlc/util/counters.hpp"

namespace atlc::clampi {

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

/// Cache shape and policy. There is no consistency-mode switch: the cached
/// windows are read-only within a window epoch (the paper's "the graph is
/// never modified during the computation"), and epoch stamping is the only
/// invalidation (Cache::set_epoch, DESIGN.md §7).
struct CacheConfig {
  /// Capacity of the cache buffer. The cache keeps no payload bytes (hits
  /// are views of the owner's exposure), but every admission and eviction
  /// is decided as if entries occupied a buffer of this size.
  std::uint64_t buffer_bytes = 1ull << 20;
  /// Number of hash-table slots. CLaMPI sizing heuristics (paper
  /// Section III-B1): ~ one slot per expected entry; see
  /// `suggest_hash_slots_*` helpers in cache.hpp.
  std::size_t hash_slots = 4096;
  /// Linear-probing window; a full window is a hash *conflict*.
  std::size_t probe_limit = 8;
  VictimPolicy policy = VictimPolicy::LruPositional;
  /// LruPositional: how many LRU-tail candidates compete on positional score.
  std::size_t lru_window = 16;
  /// Adaptive tuning (CLaMPI): double the hash table when more than 5% of
  /// the accesses since the last check hit a full probe window (up to
  /// 2^22 slots). Each adjustment FLUSHES the cache (paper Section III-B1).
  bool adaptive = false;
  std::size_t adaptive_interval = 4096;  ///< accesses between checks
};

/// Cache observability counters (drive paper Figs. 7 and 8).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t compulsory_misses = 0;  ///< key never seen before
  std::uint64_t capacity_misses = 0;    ///< key evicted earlier for space
  std::uint64_t conflict_misses = 0;    ///< key evicted earlier by hash conflict
  std::uint64_t flush_misses = 0;  ///< key dropped by a flush or epoch bump
  std::uint64_t evictions_space = 0;
  std::uint64_t evictions_conflict = 0;
  /// Entries recycled because the window epoch advanced past the epoch they
  /// were fetched at (dynamic graphs: a refresh_window invalidated them).
  /// A stale probe is served as a miss, never as a hit.
  std::uint64_t stale_evictions = 0;
  std::uint64_t insert_failures = 0;  ///< entry larger than the whole buffer
  /// UserScore policy: inserts skipped because the incoming entry scored
  /// lower than every eviction candidate (paper Section III-B2: "avoid
  /// storing a high number of low-degree vertices").
  std::uint64_t admission_rejects = 0;
  std::uint64_t flushes = 0;
  std::uint64_t hash_resizes = 0;
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
        util::Counter{"flushes", &S::flushes},
        util::Counter{"hash_resizes", &S::hash_resizes},
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
