#include "atlc/clampi/free_space.hpp"

#include "atlc/util/check.hpp"

namespace atlc::clampi {

FreeSpace::FreeSpace(std::uint64_t capacity) : capacity_(capacity) {
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

std::optional<FreeSpace::Handle> FreeSpace::allocate(std::uint64_t bytes,
                                                     std::int32_t owner) {
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
  }
  blocks_[h].bytes = bytes;
  blocks_[h].owner = owner;
  total_free_ -= bytes;
  return h;
}

void FreeSpace::release(Handle h) {
  ATLC_CHECK(h < blocks_.size() && blocks_[h].owner != kFree,
             "release of a block that is not allocated");
  total_free_ += blocks_[h].bytes;
  // Coalesce with the following block, then with the preceding one.
  if (const Handle next = blocks_[h].next;
      next != kNone && blocks_[next].owner == kFree) {
    blocks_[h].bytes += blocks_[next].bytes;
    by_size_.erase(blocks_[next].by_size);
    drop_block(next);
  }
  if (const Handle prev = blocks_[h].prev;
      prev != kNone && blocks_[prev].owner == kFree) {
    blocks_[prev].bytes += blocks_[h].bytes;
    by_size_.erase(blocks_[prev].by_size);
    drop_block(h);
    h = prev;
  }
  index_free(h);
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
  head_ = kNone;
  total_free_ = capacity_;
  if (capacity_ > 0) {
    head_ = new_block();
    blocks_[head_].bytes = capacity_;
    index_free(head_);
  }
}

}  // namespace atlc::clampi
