#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "atlc/util/check.hpp"

namespace atlc::clampi {

/// Layout of the cache's memory buffer.
///
/// CLaMPI stores free regions in an AVL tree to support variable-size
/// entries. Here a flat pool holds EVERY block of the buffer, free or
/// occupied, doubly linked in offset order, so the blocks tile
/// [0, capacity) and a block's neighbours are one link away: coalescing on
/// release, the merge benefit of an eviction and the cache's contiguous-run
/// search are all link walks, and an occupied block is addressed by its
/// handle (no offset lookup). A second index orders the free blocks by size
/// for best-fit allocation; each free block stores its position there, so
/// no erase scans the blocks of equal size. Equal sizes keep insertion
/// order, which fixes which of several equally good blocks best fit picks.
/// External fragmentation (free space split into unusably small pieces) is
/// exactly the failure mode the positional eviction score mitigates.
///
/// A scored FreeSpace (the UserScore cache's) also records each occupied
/// block's fixed score and keeps a gate index: a binary min-heap of the free
/// blocks keyed by their successor's score (+inf for the last block). Free
/// blocks coalesce, so a free block's successor is occupied, and a run that
/// starts at a free block F and needs more than F's bytes costs at least
/// F's key. any_run_below uses that to decide whether any run costs less
/// than a newcomer by walking only the runs whose first entry does, which
/// is how the cache rejects most admissions without the full run search.
class FreeSpace {
 public:
  /// Owner of a free block.
  static constexpr std::int32_t kFree = -1;

  /// A block's index in the pool. An occupied block keeps its handle until
  /// it is released; free blocks' handles change as they coalesce.
  using Handle = std::uint32_t;
  static constexpr Handle kNone = ~Handle{0};

  struct Block {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::int32_t owner = kFree;  ///< occupying entry's pool index, or kFree
    Handle prev = kNone;         ///< neighbour at the lower offset
    Handle next = kNone;         ///< neighbour at the higher offset
    /// Position in the gate index (free blocks of a scored FreeSpace only).
    /// It sits in what would otherwise be padding.
    std::uint32_t gate_pos = 0;
    /// Position in the by-size index (free blocks only).
    std::multimap<std::uint64_t, Handle>::iterator by_size{};
  };
#if defined(__LP64__)
  // The offsets cache holds tens of thousands of blocks per rank, so every
  // byte added here shows up in the benchmark's peak_rss_mb.
  static_assert(sizeof(Block) <= 40, "FreeSpace::Block must stay 40 bytes");
#endif

  /// `scored`: record each occupied block's score and keep the gate index
  /// that any_run_below reads.
  explicit FreeSpace(std::uint64_t capacity, bool scored = false);

  /// Best-fit allocation of `bytes` for the entry with pool index `owner`
  /// (never kFree) and fixed score `score` (kept only if scored). Returns
  /// the new block's handle, or nullopt if `bytes` is 0 or no single free
  /// block can hold `bytes` (even if total_free() >= bytes — that is
  /// external fragmentation).
  std::optional<Handle> allocate(std::uint64_t bytes, std::int32_t owner,
                                 double score = 0.0);

  /// Free the occupied block `h`, coalescing it with free neighbours. `h` is
  /// dead afterwards.
  void release(Handle h);

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t total_free() const { return total_free_; }
  [[nodiscard]] std::uint64_t largest_free() const {
    return by_size_.empty() ? 0 : by_size_.rbegin()->first;
  }

  /// Free bytes adjacent to the occupied block `h` — the "merge benefit" of
  /// evicting the entry living there (positional score input).
  [[nodiscard]] std::uint64_t adjacent_free(Handle h) const;

  /// The layout in offset order: first() then each block's `next`, up to
  /// kNone (kNone at once when the capacity is 0).
  [[nodiscard]] Handle first() const { return head_; }
  [[nodiscard]] const Block& block(Handle h) const { return blocks_[h]; }
  [[nodiscard]] std::size_t num_blocks() const {
    return blocks_.size() - spare_.size();
  }

  /// The cheapest contiguous run of blocks spanning at least `bytes`.
  /// Runs start at the first block and at every free block, in offset
  /// order, and extend block by block until they span `bytes`. A run's cost
  /// is the max of 0 and `cost(owner, handle)` over its occupied blocks;
  /// `cost` is called once for every occupied block the search visits. The
  /// first cheapest run wins. On success `victims` holds the run's owners in
  /// offset order and the run's cost is returned; nullopt if no run spans
  /// `bytes`. One pass: a sliding window whose max is kept in a monotonic
  /// deque, with scratch storage reused across calls.
  template <typename Cost>
  std::optional<double> cheapest_run(std::uint64_t bytes, Cost&& cost,
                                     std::vector<std::int32_t>& victims);

  /// Scored FreeSpace only: whether some run cheapest_run considers costs
  /// less than `s`, i.e. whether cheapest_run(bytes, cost, ·) would return a
  /// cost below `s`, given that `cost` returns each occupied block's
  /// recorded score. Exact, without walking the whole layout: it tries the
  /// first block if occupied, then only the free blocks keyed below `s`,
  /// each walked forward until its run spans `bytes` (pass) or reaches an
  /// entry costing `s` or more (fail). `cost` is called for every occupied
  /// block a walk visits.
  template <typename Cost>
  bool any_run_below(std::uint64_t bytes, double s, Cost&& cost);

  /// Drop everything and return to a single free block.
  void reset();

 private:
  struct Ranked {
    Handle block;
    double cost;
  };
  struct GateNode {
    double key;  ///< the score of the block after `block`, or +inf
    Handle block;
  };

  /// A fresh pool slot (recycled if one is spare). May reallocate blocks_.
  Handle new_block();
  /// Unlink `h` from the layout and make its slot spare.
  void drop_block(Handle h);
  /// Mark `h` free and enter it in the by-size index.
  void index_free(Handle h);

  // The gate index (scored only). A free block's key is gate_key(h).
  [[nodiscard]] double gate_key(Handle h) const;
  void gate_push(Handle h);
  void gate_erase(Handle h);
  /// `to` takes over `from`'s slot and key.
  void gate_move(Handle from, Handle to);
  /// Re-read `h`'s key after its successor changed.
  void gate_rekey(Handle h);
  void gate_set(std::size_t i, GateNode n);
  /// Restore the heap order around slot `i`.
  void gate_fix(std::size_t i);
  void gate_sift_up(std::size_t i);
  void gate_sift_down(std::size_t i);

  std::uint64_t capacity_;
  bool scored_;
  std::uint64_t total_free_ = 0;
  std::vector<Block> blocks_;
  std::vector<Handle> spare_;  ///< dead pool slots
  Handle head_ = kNone;
  std::multimap<std::uint64_t, Handle> by_size_;  // size -> free block
  std::vector<Ranked> window_max_;  ///< cheapest_run's deque (scratch)
  std::vector<double> score_;       ///< occupied block -> score (if scored)
  std::vector<GateNode> gate_;      ///< gate index: min-heap on key
  std::vector<std::size_t> gate_dfs_;  ///< any_run_below's stack (scratch)
};

template <typename Cost>
std::optional<double> FreeSpace::cheapest_run(
    std::uint64_t bytes, Cost&& cost, std::vector<std::int32_t>& victims) {
  // The window [lo, hi) is the run of the current start. Its minimal end
  // never moves left as the start moves right (a later start's run of the
  // same end spans fewer bytes), so each block enters and leaves the window
  // at most once. window_max_[front..] holds the window's occupied blocks
  // whose cost no later block in the window reaches, costs descending.
  window_max_.clear();
  std::size_t front = 0;
  Handle lo = head_, hi = head_;
  std::uint64_t span = 0;
  std::optional<double> best;
  Handle best_start = kNone;
  for (Handle start = head_; start != kNone;) {
    while (lo != start) {
      if (lo == hi) {
        hi = blocks_[hi].next;  // empty window: its end moves along
      } else {
        span -= blocks_[lo].bytes;
        if (front < window_max_.size() && window_max_[front].block == lo)
          ++front;
      }
      lo = blocks_[lo].next;
    }
    for (; span < bytes && hi != kNone; hi = blocks_[hi].next) {
      const Block& b = blocks_[hi];
      span += b.bytes;
      if (b.owner == kFree) continue;
      const double c = cost(b.owner, hi);
      while (window_max_.size() > front && window_max_.back().cost <= c)
        window_max_.pop_back();
      window_max_.push_back({hi, c});
    }
    if (span < bytes) break;  // no later start spans more
    const double run_cost =
        std::max(0.0, front < window_max_.size() ? window_max_[front].cost
                                                 : 0.0);
    if (!best || run_cost < *best) {
      best = run_cost;
      best_start = start;
    }
    do start = blocks_[start].next;
    while (start != kNone && blocks_[start].owner != kFree);
  }
  victims.clear();
  span = 0;
  for (Handle h = best ? best_start : kNone; h != kNone && span < bytes;
       h = blocks_[h].next) {
    span += blocks_[h].bytes;
    if (blocks_[h].owner != kFree) victims.push_back(blocks_[h].owner);
  }
  return best;
}

template <typename Cost>
bool FreeSpace::any_run_below(std::uint64_t bytes, double s, Cost&& cost) {
  ATLC_DCHECK(scored_, "any_run_below needs a scored FreeSpace");
  if (s <= 0.0) return false;  // every run costs at least 0
  if (largest_free() >= bytes) return true;  // a free block alone costs 0
  const auto passes = [&](Handle h) {
    std::uint64_t span = 0;
    for (; h != kNone; h = blocks_[h].next) {
      const Block& b = blocks_[h];
      if (b.owner != kFree && cost(b.owner, h) >= s) return false;
      if ((span += b.bytes) >= bytes) return true;
    }
    return false;
  };
  if (head_ != kNone && blocks_[head_].owner != kFree && passes(head_))
    return true;
  // Every other run starts at a free block, which is smaller than `bytes`,
  // so it contains the entry after that block: only starts keyed below `s`
  // can pass, and a heap node keyed at `s` or more has no such descendant.
  gate_dfs_.clear();
  if (!gate_.empty()) gate_dfs_.push_back(0);
  while (!gate_dfs_.empty()) {
    const std::size_t i = gate_dfs_.back();
    gate_dfs_.pop_back();
    if (gate_[i].key >= s) continue;
    if (passes(gate_[i].block)) return true;
    for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < gate_.size(); ++c)
      gate_dfs_.push_back(c);
  }
  return false;
}

}  // namespace atlc::clampi
