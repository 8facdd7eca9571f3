#include "atlc/graph/hub_replica.hpp"

#include <algorithm>
#include <cmath>

#include "atlc/graph/csr.hpp"
#include "atlc/graph/degree_stats.hpp"
#include "atlc/util/check.hpp"

namespace atlc::graph {

HubReplica HubReplica::build(const CSRGraph& g, double fraction) {
  HubReplica h;
  if (fraction <= 0.0 || g.num_vertices() == 0) return h;
  // Also refuses NaN: it, or a fraction far above 1, would make the
  // size_t cast below undefined.
  ATLC_CHECK(fraction <= 1.0, "hub fraction must be in [0, 1]");
  const auto n = static_cast<std::size_t>(g.num_vertices());
  // Ceil so any positive δ replicates at least one hub even on tiny graphs.
  const auto count = std::min(
      n, static_cast<std::size_t>(
             std::ceil(fraction * static_cast<double>(g.num_vertices()))));

  const std::vector<VertexId> order = vertices_by_degree_desc(g);
  h.ids_.assign(order.begin(), order.begin() + static_cast<long>(count));
  std::sort(h.ids_.begin(), h.ids_.end());
  h.rows_.reserve(count);
  for (const VertexId v : h.ids_) {
    const auto nbrs = g.neighbors(v);
    h.rows_.emplace_back(nbrs.begin(), nbrs.end());
  }
  return h;
}

std::size_t HubReplica::find(VertexId v) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), v);
  if (it == ids_.end() || *it != v) return npos;
  return static_cast<std::size_t>(it - ids_.begin());
}

std::uint64_t HubReplica::apply(VertexId v, VertexId nbr, bool insert) {
  const std::size_t slot = find(v);
  if (slot == npos) return 0;
  std::vector<VertexId>& row = rows_[slot];
  const auto it = std::lower_bound(row.begin(), row.end(), nbr);
  if (insert) {
    ATLC_DCHECK(it == row.end() || *it != nbr,
                "hub replica: effective insert of a present edge");
    row.insert(it, nbr);
  } else {
    ATLC_DCHECK(it != row.end() && *it == nbr,
                "hub replica: effective delete of an absent edge");
    row.erase(it);
  }
  return row.size() * sizeof(VertexId);
}

}  // namespace atlc::graph
