#include "atlc/clampi/free_space.hpp"

#include <limits>

#include "atlc/util/check.hpp"

namespace atlc::clampi {

FreeSpace::FreeSpace(std::uint64_t capacity, bool scored)
    : capacity_(capacity), scored_(scored) {
  reset();
}

FreeSpace::Handle FreeSpace::new_block() {
  if (spare_.empty()) {
    blocks_.emplace_back();
    return static_cast<Handle>(blocks_.size() - 1);
  }
  const Handle h = spare_.back();
  spare_.pop_back();
  blocks_[h] = Block{};
  return h;
}

void FreeSpace::drop_block(Handle h) {
  Block& b = blocks_[h];
  if (b.prev != kNone)
    blocks_[b.prev].next = b.next;
  else
    head_ = b.next;
  if (b.next != kNone) blocks_[b.next].prev = b.prev;
  b = Block{};
  spare_.push_back(h);
}

void FreeSpace::index_free(Handle h) {
  blocks_[h].owner = kFree;
  blocks_[h].by_size = by_size_.emplace(blocks_[h].bytes, h);
}

double FreeSpace::gate_key(Handle h) const {
  const Handle next = blocks_[h].next;
  return next == kNone ? std::numeric_limits<double>::infinity()
                       : score_[next];
}

void FreeSpace::gate_push(Handle h) {
  gate_.push_back({gate_key(h), h});
  gate_sift_up(gate_.size() - 1);
}

void FreeSpace::gate_erase(Handle h) {
  const std::size_t i = blocks_[h].gate_pos;
  const GateNode last = gate_.back();
  gate_.pop_back();
  if (i == gate_.size()) return;
  gate_set(i, last);
  gate_fix(i);
}

void FreeSpace::gate_move(Handle from, Handle to) {
  const std::size_t i = blocks_[from].gate_pos;
  gate_set(i, {gate_[i].key, to});
}

void FreeSpace::gate_rekey(Handle h) {
  const std::size_t i = blocks_[h].gate_pos;
  gate_[i].key = gate_key(h);
  gate_fix(i);
}

void FreeSpace::gate_set(std::size_t i, GateNode n) {
  gate_[i] = n;
  blocks_[n.block].gate_pos = static_cast<std::uint32_t>(i);
}

void FreeSpace::gate_fix(std::size_t i) {
  if (i > 0 && gate_[i].key < gate_[(i - 1) / 2].key)
    gate_sift_up(i);
  else
    gate_sift_down(i);
}

void FreeSpace::gate_sift_up(std::size_t i) {
  const GateNode n = gate_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(n.key < gate_[parent].key)) break;
    gate_set(i, gate_[parent]);
    i = parent;
  }
  gate_set(i, n);
}

void FreeSpace::gate_sift_down(std::size_t i) {
  const GateNode n = gate_[i];
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= gate_.size()) break;
    if (c + 1 < gate_.size() && gate_[c + 1].key < gate_[c].key) ++c;
    if (!(gate_[c].key < n.key)) break;
    gate_set(i, gate_[c]);
    i = c;
  }
  gate_set(i, n);
}

std::optional<FreeSpace::Handle> FreeSpace::allocate(std::uint64_t bytes,
                                                     std::int32_t owner,
                                                     double score) {
  ATLC_CHECK(owner != kFree, "allocation needs an owner");
  // A zero-byte block would share its offset with the block after it.
  if (bytes == 0) return std::nullopt;
  const auto fit = by_size_.lower_bound(bytes);  // smallest block >= bytes
  if (fit == by_size_.end()) return std::nullopt;
  const Handle h = fit->second;
  by_size_.erase(fit);
  if (const std::uint64_t rest = blocks_[h].bytes - bytes; rest > 0) {
    const Handle r = new_block();
    Block& b = blocks_[h];
    blocks_[r].offset = b.offset + bytes;
    blocks_[r].bytes = rest;
    blocks_[r].prev = h;
    blocks_[r].next = b.next;
    if (b.next != kNone) blocks_[b.next].prev = r;
    b.next = r;
    index_free(r);
    // The remainder ends where h did, so it inherits h's key.
    if (scored_) gate_move(h, r);
  } else if (scored_) {
    gate_erase(h);
  }
  blocks_[h].bytes = bytes;
  blocks_[h].owner = owner;
  if (scored_) {
    if (score_.size() < blocks_.size()) score_.resize(blocks_.size());
    score_[h] = score;
  }
  total_free_ -= bytes;
  return h;
}

void FreeSpace::release(Handle h) {
  ATLC_CHECK(h < blocks_.size() && blocks_[h].owner != kFree,
             "release of a block that is not allocated");
  total_free_ += blocks_[h].bytes;
  // Coalesce with the following block, then with the preceding one. `h`
  // takes over a free successor's gate slot (it now ends where that block
  // did), a free predecessor keeps its own slot, and the merged block's
  // key is then set from its new successor.
  bool in_gate = false;
  if (const Handle next = blocks_[h].next;
      next != kNone && blocks_[next].owner == kFree) {
    blocks_[h].bytes += blocks_[next].bytes;
    by_size_.erase(blocks_[next].by_size);
    if (scored_) gate_move(next, h);
    in_gate = true;
    drop_block(next);
  }
  if (const Handle prev = blocks_[h].prev;
      prev != kNone && blocks_[prev].owner == kFree) {
    blocks_[prev].bytes += blocks_[h].bytes;
    by_size_.erase(blocks_[prev].by_size);
    if (scored_ && in_gate) gate_erase(h);
    in_gate = true;
    drop_block(h);
    h = prev;
  }
  index_free(h);
  if (!scored_) return;
  if (in_gate)
    gate_rekey(h);
  else
    gate_push(h);
}

std::uint64_t FreeSpace::adjacent_free(Handle h) const {
  ATLC_DCHECK(h < blocks_.size() && blocks_[h].owner != kFree,
              "no occupied block at this handle");
  std::uint64_t adj = 0;
  if (const Handle next = blocks_[h].next;
      next != kNone && blocks_[next].owner == kFree)
    adj += blocks_[next].bytes;
  if (const Handle prev = blocks_[h].prev;
      prev != kNone && blocks_[prev].owner == kFree)
    adj += blocks_[prev].bytes;
  return adj;
}

void FreeSpace::reset() {
  blocks_.clear();
  spare_.clear();
  by_size_.clear();
  score_.clear();
  gate_.clear();
  head_ = kNone;
  total_free_ = capacity_;
  if (capacity_ > 0) {
    head_ = new_block();
    blocks_[head_].bytes = capacity_;
    index_free(head_);
    if (scored_) gate_push(head_);
  }
}

}  // namespace atlc::clampi
