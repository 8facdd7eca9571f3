#include "atlc/intersect/tiered.hpp"

namespace atlc::intersect {

TieredIntersector::Outcome TieredIntersector::intersect_transient(
    std::span<const VertexId> a, std::span<const VertexId> b) const {
  Outcome out;
  out.kernel = select_tier_kernel(a.size(), b.size(), policy_);
  out.common = out.kernel == TierKernel::Gallop ? count_binary(a, b)
                                                : count_ssi(a, b);
  out.seconds = cost_.seconds_tiered(out.kernel, a.size(), b.size());
  return out;
}

}  // namespace atlc::intersect
