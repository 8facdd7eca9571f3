#pragma once

// The Tiered dispatch (ROADMAP item 1, DESIGN.md §9). It runs the same two
// counting kernels as the Paper tier, choosing per list shape the way
// engineered triangle counters do (Sanders & Uhl; RapidsAtHKUST,
// PAPERS.md):
//
//   - TierKernel::MergeVec: count_ssi, the block merge (8x8 AVX2 where the
//     CPU has it, else 4x4 SSE2), for the long tail of similar-length
//     pairs;
//   - TierKernel::Gallop: count_binary, the block-galloping search, for
//     highly skewed pairs, O(|short| log(|long|/|short|)).
//
// So Paper and Tiered differ in dispatch and pricing, not in the merge or
// search code. TieredIntersector packages the per-pair dispatch
// (select_tier_kernel) and the virtual-time pricing behind one call; the
// engine reaches it through intersect::Intersector (intersector.hpp). Both
// kernels are exact — tests/test_intersect_diff.cpp cross-checks every
// tier against std::set_intersection over ~10k randomized pairs.

#include <cstdint>
#include <span>

#include "atlc/intersect/cost_model.hpp"
#include "atlc/intersect/intersect.hpp"

namespace atlc::intersect {

/// Stateless dispatcher for the Tiered kernel generation: picks a kernel
/// per pair via select_tier_kernel and reports the modeled virtual-time
/// cost of the work performed. Neither span is kept beyond the call, so
/// either may alias a pipeline buffer.
class TieredIntersector {
 public:
  /// `universe` is ignored: no kernel needs the vertex count.
  TieredIntersector(const TierPolicy& policy, const CostModel& cost,
                    VertexId /*universe*/ = 0)
      : policy_(policy), cost_(cost) {}

  struct Outcome {
    std::uint64_t common = 0;
    double seconds = 0.0;  ///< modeled cost of the kernel that ran
    TierKernel kernel = TierKernel::MergeVec;
  };

  /// |a ∩ b|: pairs at or above the gallop ratio gallop and every other
  /// pair merges, whatever the list lengths; each is priced
  /// (CostModel::seconds_tiered) as the kernel that ran.
  [[nodiscard]] Outcome intersect_transient(std::span<const VertexId> a,
                                            std::span<const VertexId> b) const;

 private:
  TierPolicy policy_;
  CostModel cost_;
};

}  // namespace atlc::intersect
