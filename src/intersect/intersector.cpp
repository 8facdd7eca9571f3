#include "atlc/intersect/intersector.hpp"

namespace atlc::intersect {

namespace {

/// Trace event name per tiered kernel (atlc_trace histograms intersection
/// sizes per kernel from these instants).
const char* tier_event_name(TierKernel k) {
  switch (k) {
    case TierKernel::Gallop: return "intersect_gallop";
    case TierKernel::MergeVec: return "intersect_merge";
  }
  return "intersect";
}

}  // namespace

Intersector::Intersector(Method method, Tier tier, const TierPolicy& policy,
                         const CostModel& cost)
    : method_(method), cost_(cost) {
  if (tier == Tier::Tiered) tiered_.emplace(policy, cost);
}

Intersector::Outcome Intersector::count(std::span<const VertexId> lhs,
                                        std::span<const VertexId> rhs) const {
  if (!tiered_)
    return {count_common(lhs, rhs, method_),
            cost_.seconds(method_, lhs.size(), rhs.size())};
  const TieredIntersector::Outcome t = tiered_->intersect_transient(lhs, rhs);
  return {t.common, t.seconds, tier_event_name(t.kernel)};
}

}  // namespace atlc::intersect
