#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "atlc/clampi/config.hpp"
#include "atlc/clampi/free_space.hpp"

namespace atlc::clampi {

[[nodiscard]] std::uint64_t key_hash(Key k);

/// CLaMPI-style software cache for RMA gets: variable-size entries in a
/// bounded memory buffer, a hash-table index with bounded linear probing
/// whose slot count is fixed at construction, and score-driven victim
/// selection. The cache is metadata only: it makes every admission,
/// eviction and epoch decision over (key, size, score, tick) and a buffer
/// layout, but holds no payload bytes — the window is read-only
/// within an epoch, so a hit is served from the owner's exposed memory.
/// The cache itself is transport-agnostic; `CachedWindow`
/// (cached_window.hpp) wires it to the RMA runtime. It is C_adj's cache;
/// C_offsets, whose entries all have one size, uses the fixed-entry
/// `FixedCache` (fixed_cache.hpp), which decides as this class does under
/// LruPositional on a buffer of whole entries and no hash conflicts.
class Cache {
 public:
  explicit Cache(CacheConfig config);

  /// Set the data epoch subsequent lookups/inserts run under (the version
  /// of the window being read — see rma::WindowBase::epoch()). An
  /// entry inserted at epoch e is served only while the epoch is still e:
  /// probing it at a later epoch recycles it and reports a miss
  /// (stats().stale_evictions). Static workloads never call this and keep
  /// the always-cache behaviour (everything stays at epoch 0).
  void set_epoch(std::uint64_t epoch) { current_epoch_ = epoch; }
  [[nodiscard]] std::uint64_t epoch() const { return current_epoch_; }

  /// Look up `key`, whose entry spans `bytes`; on hit refresh recency.
  /// Returns true on hit. A resident entry from an older epoch is evicted
  /// and reported as a miss. A row's size is fixed within an epoch, so a
  /// hit's `bytes` must equal the resident entry's (checked in Debug).
  bool lookup(Key key, std::uint64_t bytes);

  /// Admit `key` with an entry of `bytes` after a miss fetch. `user_score`
  /// is consulted only under VictimPolicy::UserScore (paper Section
  /// III-B2: degree centrality for C_adj). May evict (possibly several)
  /// entries; returns false if the entry is not admitted (zero bytes,
  /// larger than the whole buffer, or rejected by the UserScore gate).
  /// Inserting a key that is resident at the current epoch is a caller
  /// error (see contains()); a stale resident from an older epoch, of any
  /// size, is recycled and replaced.
  bool insert(Key key, std::uint64_t bytes, double user_score = 0.0);

  /// True iff `key` is resident at the current epoch. Unlike lookup(), does
  /// not count an access or refresh recency — the probe callers use
  /// to decide whether a completed miss fetch still needs its insert (an
  /// overlapping fetch of the same key may have inserted first; see
  /// CachedWindow::finish). Stale residents read as absent.
  [[nodiscard]] bool contains(Key key) const {
    const std::int32_t idx = find(key);
    return idx >= 0 && pool_[idx].epoch == current_epoch_;
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  [[nodiscard]] std::size_t num_entries() const { return live_entries_; }
  [[nodiscard]] std::vector<EntryInfo> entries() const;

  /// Paper Section III-B1 sizing heuristic for C_adj's table under a
  /// power-law degree distribution: n * fraction^alpha entries expected
  /// (paper: alpha = 2 approximates well). C_offsets needs no table: its
  /// fixed-size entries live in a FixedCache (fixed_cache.hpp).
  [[nodiscard]] static std::size_t suggest_hash_slots_power_law(
      std::uint64_t num_vertices, double cache_fraction, double alpha = 2.0);

 private:
  /// UserScore victim index: score -> pool index. Equal scores keep
  /// insertion order, so the oldest-inserted of the lowest-scored entries
  /// is the victim.
  using ScoreIndex = std::multimap<double, std::int32_t>;

  struct Entry {
    Key key;
    std::uint64_t bytes = 0;
    FreeSpace::Handle block = FreeSpace::kNone;  ///< its buffer block
    std::uint64_t last_tick = 0;
    std::uint64_t epoch = 0;  ///< window epoch the entry was fetched at
    double user_score = 0.0;
    ScoreIndex::iterator by_score{};  ///< UserScore policy only
    std::uint32_t slot = 0;
    std::int32_t lru_prev = -1;
    std::int32_t lru_next = -1;
    bool live = false;
  };

  /// Why a key is not resident: the miss log's one byte per (target, row).
  enum class GoneReason : std::uint8_t {
    Never,  ///< never evicted nor refused: a compulsory miss
    EvictedSpace,
    EvictedConflict,
    Stale,  ///< epoch invalidation (refresh_window advanced the window)
    NeverStored,
  };

  static constexpr std::int32_t kEmpty = -1;
  static constexpr std::int32_t kTombstone = -2;

  /// Returns pool index of the entry holding `key`, or -1.
  std::int32_t find(Key key) const;
  void touch(std::int32_t idx);
  void lru_unlink(std::int32_t idx);
  void lru_push_front(std::int32_t idx);
  void evict(std::int32_t idx, GoneReason reason);
  /// Global victim per policy; -1 if cache empty.
  std::int32_t pick_victim_global();
  /// Make a contiguous region of `bytes` allocatable: a bounded number of
  /// cheapest-first single evictions, then (if fragmentation still blocks
  /// the allocation) clearing the cheapest contiguous run of entries.
  /// Returns false iff the UserScore admission gate rejects the newcomer.
  bool make_room(std::uint64_t bytes, double incoming_score);
  /// Victim restricted to live entries in the probe window of `hash_base`.
  std::int32_t pick_victim_in_probe_window(std::uint64_t hash_base);
  /// Positional pick among candidates_ (ordered least recent first).
  std::int32_t lru_positional_pick();
  void classify_miss(Key key);
  void note_gone(Key key, GoneReason reason);

  CacheConfig config_;
  CacheStats stats_;
  FreeSpace free_;
  std::vector<Entry> pool_;
  std::vector<std::int32_t> pool_free_;
  std::vector<std::int32_t> slots_;
  std::size_t live_entries_ = 0;
  std::int32_t lru_head_ = -1;
  std::int32_t lru_tail_ = -1;
  std::uint64_t tick_ = 0;
  std::uint64_t current_epoch_ = 0;
  ScoreIndex by_score_;
  /// Miss classification: gone_[target][row], grown on first write; a row
  /// past the end reads as GoneReason::Never.
  std::vector<std::vector<GoneReason>> gone_;
  // Scratch reused across calls, so victim selection never allocates.
  std::vector<std::int32_t> candidates_;  ///< victim pickers' candidates
  std::vector<std::int32_t> victims_;     ///< make_room phase-2 run
};

}  // namespace atlc::clampi
