#pragma once

// The Tiered dispatch (ROADMAP item 1, DESIGN.md §9). It runs the same
// two counting kernels as the Paper tier and adds one of its own, choosing
// per list shape the way engineered triangle counters do (Sanders & Uhl;
// RapidsAtHKUST, PAPERS.md):
//
//   - TierKernel::MergeVec: count_ssi, the block merge (8x8 AVX2 where the
//     CPU has it, else 4x4 SSE2), for the long tail of similar-length
//     pairs;
//   - TierKernel::Gallop: count_binary, the block-galloping search, for
//     highly skewed pairs, O(|short| log(|long|/|short|));
//   - TierKernel::Bitmap: RowBitmap, a dense bitmap over the vertex universe
//     built once per hub row and probed word-at-a-time with popcount for
//     every edge of that row.
//
// So Paper and Tiered differ in dispatch, the row bitmap and pricing, not
// in the merge or search code. TieredIntersector packages the per-pair
// dispatch (select_tier_kernel), the bitmap-reuse lifetime, and the
// virtual-time pricing behind one call; the engine reaches it through
// intersect::Intersector (intersector.hpp). All kernels are exact —
// tests/test_intersect_diff.cpp cross-checks every tier against
// std::set_intersection over ~10k randomized pairs.

#include <cstdint>
#include <span>
#include <vector>

#include "atlc/intersect/cost_model.hpp"
#include "atlc/intersect/intersect.hpp"

namespace atlc::intersect {

/// Dense bitmap over the vertex universe [0, universe). Built from one
/// sorted adjacency row, then probed by sorted candidate lists: probes are
/// batched per 64-bit word (all candidates falling in one word OR into a
/// mask, resolved with a single AND + popcount), which exploits the
/// clustering sorted adjacencies exhibit. Rebuilding clears only the
/// previously set bits (O(previous row length), not O(universe)).
class RowBitmap {
 public:
  /// (Re)build for `row`. All ids in `row` — and every later probe — must
  /// be < `universe`. Keeps its own copy of the set positions, so `row`
  /// need not outlive the call.
  void build(std::span<const VertexId> row, VertexId universe);

  /// True iff the current contents were built from exactly this span
  /// (pointer + length identity). The engine's local adjacency rows are
  /// stable for a whole run, so span identity keys the per-row reuse. The
  /// `built_` flag guards the fresh-bitmap case: an empty span's data() is
  /// nullptr, which would otherwise match the default member state and let
  /// a caller probe a never-sized word array.
  [[nodiscard]] bool built_for(std::span<const VertexId> row) const {
    return built_ && row.data() == row_data_ && row.size() == row_size_;
  }

  [[nodiscard]] bool test(VertexId v) const {
    return (words_[v >> 6] >> (v & 63)) & 1u;
  }

  /// |row ∩ list| for a sorted, duplicate-free `list` (word-batched
  /// popcount probes; see class comment).
  [[nodiscard]] std::uint64_t count_in(std::span<const VertexId> list) const;

  [[nodiscard]] std::size_t row_size() const { return row_size_; }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<VertexId> set_bits_;  ///< copy of the row, for O(row) clears
  const VertexId* row_data_ = nullptr;
  std::size_t row_size_ = 0;
  bool built_ = false;
};

/// Per-rank stateful dispatcher for the Tiered kernel generation: picks a
/// kernel per (row, other) pair via select_tier_kernel, owns the RowBitmap
/// whose lifetime spans all consecutive edges of the current row, and
/// reports the modeled virtual-time cost of the work performed (including
/// any bitmap build it triggered). The `row` side must be the stable one —
/// in the engine that is the rank's local adjacency, which outlives the
/// run; the transient fetched side is only ever probed, never cached, so
/// the fetcher's ring-slot lifetime rules are not implicated (DESIGN.md §9).
class TieredIntersector {
 public:
  /// `universe` bounds every vertex id that will appear in rows or probe
  /// lists (the engine passes the global vertex count).
  TieredIntersector(const TierPolicy& policy, const CostModel& cost,
                    VertexId universe)
      : policy_(policy), cost_(cost), universe_(universe) {}

  struct Outcome {
    std::uint64_t common = 0;
    double seconds = 0.0;  ///< modeled cost, including any bitmap build
    TierKernel kernel = TierKernel::MergeVec;
  };

  /// |row ∩ other| with per-pair kernel selection. `row` is the reusable
  /// side (bitmap candidate); `other` the transient side.
  [[nodiscard]] Outcome intersect(std::span<const VertexId> row,
                                  std::span<const VertexId> other);

  /// |a ∩ b| when NEITHER side is stable — both may alias fetch-ring slots
  /// (the 2D segment engine, where even "this rank's" row segments arrive
  /// through the ring from sibling ranks). Span identity is meaningless for
  /// recycled slots — the same pointer holds different contents a few
  /// fetches later — so the bitmap tier (whose amortisation *is* that
  /// span-identity reuse) is never selected: select_tier_kernel with
  /// stable_row == false, so pairs at or above the gallop ratio gallop and
  /// every other pair merges, whatever the list lengths, and each is priced
  /// as the kernel that ran. Never touches the per-row bitmap state, so
  /// transient and row-reuse calls can interleave safely.
  [[nodiscard]] Outcome intersect_transient(std::span<const VertexId> a,
                                            std::span<const VertexId> b);

  /// Dispatch counters for bench reporting.
  struct Stats {
    std::uint64_t bitmap_builds = 0;
    std::uint64_t bitmap_pairs = 0;
    std::uint64_t gallop_pairs = 0;
    std::uint64_t merge_pairs = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Run kernel `k` on the pair and price it (the bitmap keyed on `row`).
  Outcome run(TierKernel k, std::span<const VertexId> row,
              std::span<const VertexId> other);

  TierPolicy policy_;
  CostModel cost_;
  VertexId universe_;
  RowBitmap bitmap_;
  Stats stats_;
};

}  // namespace atlc::intersect
