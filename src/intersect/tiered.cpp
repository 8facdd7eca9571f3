#include "atlc/intersect/tiered.hpp"

#include <bit>

#include "atlc/util/check.hpp"

namespace atlc::intersect {

void RowBitmap::build(std::span<const VertexId> row, VertexId universe) {
  const std::size_t want_words = (static_cast<std::size_t>(universe) + 63) / 64;
  if (words_.size() < want_words) {
    words_.resize(want_words, 0);
  } else {
    // Clear only the bits the previous row set — O(previous row), not
    // O(universe) — so hub-row rebuilds stay proportional to degree.
    for (const VertexId v : set_bits_) words_[v >> 6] = 0;
  }
  set_bits_.assign(row.begin(), row.end());
  for (const VertexId v : row) {
    ATLC_DCHECK(v < universe, "row id outside the bitmap universe");
    words_[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  row_data_ = row.data();
  row_size_ = row.size();
  built_ = true;
}

std::uint64_t RowBitmap::count_in(std::span<const VertexId> list) const {
  std::uint64_t count = 0;
  std::size_t i = 0;
  while (i < list.size()) {
    const std::size_t w = list[i] >> 6;
    ATLC_DCHECK(w < words_.size(), "probe id outside the bitmap universe");
    // Gather every candidate landing in this 64-bit word into one mask,
    // then resolve them all with a single AND + popcount.
    std::uint64_t mask = 0;
    do {
      mask |= std::uint64_t{1} << (list[i] & 63);
      ++i;
    } while (i < list.size() && (list[i] >> 6) == w);
    count += static_cast<std::uint64_t>(std::popcount(words_[w] & mask));
  }
  return count;
}

TieredIntersector::Outcome TieredIntersector::intersect(
    std::span<const VertexId> row, std::span<const VertexId> other) {
  return run(select_tier_kernel(row.size(), other.size(), policy_, true),
             row, other);
}

TieredIntersector::Outcome TieredIntersector::intersect_transient(
    std::span<const VertexId> a, std::span<const VertexId> b) {
  // No stable row, so no bitmap: skewed pairs gallop, the rest merge,
  // however long either list is.
  return run(select_tier_kernel(a.size(), b.size(), policy_, false), a, b);
}

TieredIntersector::Outcome TieredIntersector::run(
    TierKernel k, std::span<const VertexId> row,
    std::span<const VertexId> other) {
  Outcome out;
  out.kernel = k;
  switch (k) {
    case TierKernel::Bitmap:
      if (!bitmap_.built_for(row)) {
        bitmap_.build(row, universe_);
        out.seconds += cost_.seconds_bitmap_build(row.size());
        ++stats_.bitmap_builds;
      }
      out.common = bitmap_.count_in(other);
      ++stats_.bitmap_pairs;
      break;
    case TierKernel::Gallop:
      out.common = count_binary(row, other);
      ++stats_.gallop_pairs;
      break;
    case TierKernel::MergeVec:
      out.common = count_ssi(row, other);
      ++stats_.merge_pairs;
      break;
  }
  out.seconds += cost_.seconds_tiered(k, row.size(), other.size());
  return out;
}

}  // namespace atlc::intersect
