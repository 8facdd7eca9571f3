#pragma once

#include <cstdint>
#include <vector>

#include "atlc/clampi/config.hpp"

namespace atlc::clampi {

/// C_offsets' cache: a fully associative LRU table of fixed-size entries.
/// Every C_offsets entry is one 16-byte (start, end) pair (paper Obs. 3.2),
/// so the buffer holds exactly ⌊buffer_bytes / 16⌋ entries and needs no
/// layout and no positional score. Like `Cache` it is
/// metadata only and keeps `Cache`'s contract: stale-hit-as-miss under
/// set_epoch, miss classification, CacheStats and entries().
///
/// Its `RowIndex` maps each (target, row) to the row's slot, or logs why
/// the row is not resident. The slots hold {key, epoch, tick, prev, next}
/// and form one LRU list; a full table evicts its least recently used
/// entry.
///
/// On a buffer of whole entries this decides call for call as
/// `Cache{LruPositional}`: every hole is refilled before any eviction, so
/// no victim candidate borders free space and the positional score reduces
/// to LRU (DESIGN.md §7; test_clampi's `FixedCacheDiff` cases check it). It
/// never rejects an entry for its score.
class FixedCache {
 public:
  static constexpr std::uint64_t kEntryBytes = 16;

  explicit FixedCache(std::uint64_t buffer_bytes);

  /// The data epoch subsequent calls run under (see Cache::set_epoch).
  void set_epoch(std::uint64_t epoch) { current_epoch_ = epoch; }

  /// Look up `key`; on hit refresh recency. A resident from an older epoch
  /// is recycled and reported as a miss. Every resident spans kEntryBytes,
  /// so a hit's `bytes` must equal it (checked in Debug).
  bool lookup(Key key, std::uint64_t bytes);

  /// Admit `key` after a miss fetch, evicting the least recently used
  /// entry if the table is full. An entry of any size but kEntryBytes is a
  /// caller error: it counts an insert failure and changes nothing else.
  /// With no room for one entry (a buffer under kEntryBytes) the insert
  /// fails and the row is logged as never stored. `user_score` is ignored:
  /// C_offsets keeps CLaMPI's default scores (paper Section III-B2).
  bool insert(Key key, std::uint64_t bytes, double user_score = 0.0);

  /// True iff `key` is resident at the current epoch; counts nothing.
  [[nodiscard]] bool contains(Key key) const {
    const std::int32_t s = index_[key];
    return s >= 0 && slots_[s].epoch == current_epoch_;
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  /// Entries the buffer holds: buffer_bytes / kEntryBytes.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t num_entries() const { return live_; }
  /// Residents, most recently used first (as Cache::entries()).
  [[nodiscard]] std::vector<EntryInfo> entries() const;

 private:
  struct Slot {
    Key key;
    std::uint64_t epoch = 0;  ///< window epoch the entry was fetched at
    std::uint64_t tick = 0;   ///< last admission or hit
    std::int32_t prev = -1;   ///< towards the most recently used
    std::int32_t next = -1;   ///< towards the least recently used; free list
  };

  void unlink(std::int32_t s);
  void push_front(std::int32_t s);
  /// Evict a resident for `reason` (RowIndex::kCapacity or kStale).
  void evict(std::int32_t s, std::int32_t reason);

  std::size_t capacity_;
  std::vector<Slot> slots_;  ///< reserved at capacity_, filled on demand
  std::int32_t free_ = -1;   ///< freed slots, chained through `next`
  std::int32_t head_ = -1;   ///< most recently used
  std::int32_t tail_ = -1;   ///< least recently used: the next victim
  std::size_t live_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t current_epoch_ = 0;
  CacheStats stats_;
  RowIndex index_;  ///< slot of each resident row; the miss log
};

}  // namespace atlc::clampi
