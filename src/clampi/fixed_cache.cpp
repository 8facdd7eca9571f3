#include "atlc/clampi/fixed_cache.hpp"

#include <algorithm>
#include <limits>

#include "atlc/util/check.hpp"

namespace atlc::clampi {

FixedCache::FixedCache(std::uint64_t buffer_bytes)
    : capacity_(static_cast<std::size_t>(
          std::min<std::uint64_t>(buffer_bytes / kEntryBytes,
                                  std::numeric_limits<std::int32_t>::max()))) {
  // Costs address space, not memory: a slot's page is touched when the
  // slot is first used. Growing by doubling would copy the table and
  // raise the peak RSS.
  slots_.reserve(capacity_);
}

void FixedCache::unlink(std::int32_t s) {
  Slot& e = slots_[s];
  (e.prev != -1 ? slots_[e.prev].next : head_) = e.next;
  (e.next != -1 ? slots_[e.next].prev : tail_) = e.prev;
}

void FixedCache::push_front(std::int32_t s) {
  Slot& e = slots_[s];
  e.prev = -1;
  e.next = head_;
  (head_ != -1 ? slots_[head_].prev : tail_) = s;
  head_ = s;
}

void FixedCache::evict(std::int32_t s, std::int32_t reason) {
  index_.evicted(slots_[s].key, reason, stats_);
  unlink(s);
  slots_[s].next = free_;
  free_ = s;
  --live_;
}

bool FixedCache::lookup(Key key, std::uint64_t bytes) {
  if (const std::int32_t s = index_[key]; s >= 0) {
    if (slots_[s].epoch != current_epoch_) {
      // Stale-hit-as-miss (DESIGN.md §7), as in Cache::lookup.
      evict(s, RowIndex::kStale);
    } else {
      ATLC_DCHECK(bytes == kEntryBytes, "a row's size changed within an epoch");
      unlink(s);
      push_front(s);
      slots_[s].tick = ++tick_;
      ++stats_.hits;
      stats_.bytes_hit += bytes;
      return true;
    }
  }
  index_.count_miss(key, bytes, stats_);
  return false;
}

bool FixedCache::insert(Key key, std::uint64_t bytes, double /*user_score*/) {
  if (bytes != kEntryBytes) {
    ++stats_.insert_failures;
    return false;
  }
  if (capacity_ == 0) {
    ++stats_.insert_failures;
    index_.set(key, RowIndex::kCapacity);
    return false;
  }
  if (const std::int32_t prev = index_[key]; prev >= 0) {
    // A stale resident from an older epoch (see Cache::insert).
    ATLC_DCHECK(slots_[prev].epoch != current_epoch_,
                "insert of an already-cached key");
    evict(prev, RowIndex::kStale);
  }
  if (free_ == -1) {
    if (slots_.size() < capacity_) {
      free_ = static_cast<std::int32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      evict(tail_, RowIndex::kCapacity);
    }
  }
  const std::int32_t s = free_;
  free_ = slots_[s].next;
  slots_[s].key = key;
  slots_[s].epoch = current_epoch_;
  slots_[s].tick = ++tick_;
  push_front(s);
  index_.set(key, s);
  ++live_;
  return true;
}

std::vector<EntryInfo> FixedCache::entries() const {
  std::vector<EntryInfo> out;
  out.reserve(live_);
  for (std::int32_t s = head_; s != -1; s = slots_[s].next)
    out.push_back({slots_[s].key, kEntryBytes, 0.0, slots_[s].tick});
  return out;
}

}  // namespace atlc::clampi
