#pragma once

// The one place an intersection is counted AND priced (DESIGN.md §9). Every
// analytic that intersects two adjacency lists — LCC/TC, the similarity
// measures, the incremental stream counter, serve's LCC query — asks a
// per-rank Intersector, so each pricing rule exists exactly once:
//
//   - Tier::Paper: count_common(method), priced CostModel::seconds(method);
//   - Tier::Tiered: TieredIntersector::intersect when the lhs is a stable
//     row, TieredIntersector::intersect_transient otherwise;
//   - for_each_common: the enumerating SSI walk, priced as SSI under either
//     tier (it visits every common element, so there is no kernel choice).
//
// Both tiers count with the same count_ssi and count_binary; Tiered adds
// the row bitmap and chooses by list shape instead of by Eq. (3). Counts
// are exact on every path; only the charged seconds differ.

#include <cstdint>
#include <optional>
#include <span>

#include "atlc/intersect/tiered.hpp"

namespace atlc::intersect {

class Intersector {
 public:
  /// `universe` bounds every vertex id (the global vertex count).
  /// `stable_lhs` says the lhs span of every count() outlives the pass that
  /// reads it — the rank's local row on a 1D partition — so the Tiered
  /// bitmap may be keyed on its span identity. It is false when the lhs may
  /// alias a recycled fetch-ring slot (2D segments).
  Intersector(Method method, Tier tier, const TierPolicy& policy,
              const CostModel& cost, VertexId universe, bool stable_lhs);

  struct Outcome {
    std::uint64_t common = 0;
    double seconds = 0.0;             ///< modeled cost of the work done
    const char* label = "intersect";  ///< trace event name of the kernel
  };

  /// |lhs ∩ rhs| with the configured tier and method.
  [[nodiscard]] Outcome count(std::span<const VertexId> lhs,
                              std::span<const VertexId> rhs);

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
  bool stable_lhs_;
  std::optional<TieredIntersector> tiered_;  ///< engaged under Tier::Tiered
};

}  // namespace atlc::intersect
