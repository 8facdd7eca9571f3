#pragma once

// The one place an intersection is counted AND priced (DESIGN.md §9). Every
// analytic that intersects two adjacency lists — LCC/TC, the similarity
// measures, the incremental stream counter, serve's LCC query — asks a
// per-rank Intersector, so each pricing rule exists exactly once:
//
//   - Tier::Paper: count_common(method), priced CostModel::seconds(method);
//   - Tier::Tiered: TieredIntersector::intersect_transient, on every
//     partition kind;
//   - for_each_common: the enumerating SSI walk, priced as SSI under either
//     tier (it visits every common element, so there is no kernel choice).
//
// Both tiers count with the same count_ssi and count_binary; Tiered
// chooses by list shape instead of by Eq. (3). Counts are exact on every
// path; only the charged seconds differ.

#include <cstdint>
#include <optional>
#include <span>

#include "atlc/intersect/tiered.hpp"

namespace atlc::intersect {

class Intersector {
 public:
  Intersector(Method method, Tier tier, const TierPolicy& policy,
              const CostModel& cost);

  struct Outcome {
    std::uint64_t common = 0;
    double seconds = 0.0;             ///< modeled cost of the work done
    const char* label = "intersect";  ///< trace event name of the kernel
  };

  /// |lhs ∩ rhs| with the configured tier and method.
  [[nodiscard]] Outcome count(std::span<const VertexId> lhs,
                              std::span<const VertexId> rhs) const;

  /// Visit every element of a ∩ b in ascending order (the SSI walk) and
  /// price the walk as one SSI intersection.
  template <typename F>
    requires std::invocable<F&, VertexId>
  Outcome for_each_common(std::span<const VertexId> a,
                          std::span<const VertexId> b, F&& visit) const {
    Outcome out;
    intersect::for_each_common(a, b, [&](VertexId w) {
      ++out.common;
      visit(w);
    });
    out.seconds = cost_.seconds(Method::SSI, a.size(), b.size());
    return out;
  }

 private:
  Method method_;
  CostModel cost_;
  std::optional<TieredIntersector> tiered_;  ///< engaged under Tier::Tiered
};

}  // namespace atlc::intersect
