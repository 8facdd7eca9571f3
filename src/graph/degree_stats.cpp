#include "atlc/graph/degree_stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "atlc/util/check.hpp"

namespace atlc::graph {

DegreeStats degree_stats(const CSRGraph& g, VertexId xmin) {
  DegreeStats s;
  const VertexId n = g.num_vertices();
  if (n == 0) return s;

  std::vector<VertexId> deg(n);
  for (VertexId v = 0; v < n; ++v) deg[v] = g.degree(v);

  s.min = *std::min_element(deg.begin(), deg.end());
  s.max = *std::max_element(deg.begin(), deg.end());
  s.mean = static_cast<double>(g.num_edges()) / static_cast<double>(n);

  // Power-law MLE: alpha = 1 + n' / sum(ln(d_i / (xmin - 0.5))) over d >= xmin.
  double log_sum = 0.0;
  std::uint64_t count = 0;
  for (VertexId d : deg) {
    if (d >= xmin && d > 0) {
      log_sum += std::log(static_cast<double>(d) /
                          (static_cast<double>(xmin) - 0.5));
      ++count;
    }
  }
  s.power_law_alpha =
      count > 0 && log_sum > 0.0 ? 1.0 + static_cast<double>(count) / log_sum
                                 : 0.0;

  // Gini over sorted degrees.
  std::sort(deg.begin(), deg.end());
  double cum = 0.0, weighted = 0.0;
  for (VertexId i = 0; i < n; ++i) {
    cum += deg[i];
    weighted += static_cast<double>(i + 1) * static_cast<double>(deg[i]);
  }
  if (cum > 0.0)
    s.gini = (2.0 * weighted) / (static_cast<double>(n) * cum) -
             (static_cast<double>(n) + 1.0) / static_cast<double>(n);
  return s;
}

std::vector<VertexId> vertices_by_degree_desc(const CSRGraph& g) {
  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return g.degree(a) > g.degree(b);
  });
  return order;
}

double top_degree_share(const CSRGraph& g,
                        const std::vector<std::uint64_t>& weights,
                        double fraction) {
  const auto order = vertices_by_degree_desc(g);
  std::uint64_t total = 0;
  for (auto w : weights) total += w;
  if (total == 0) return 0.0;
  const auto top = static_cast<std::size_t>(
      fraction * static_cast<double>(order.size()));
  std::uint64_t top_sum = 0;
  for (std::size_t i = 0; i < top && i < order.size(); ++i)
    top_sum += weights[order[i]];
  return static_cast<double>(top_sum) / static_cast<double>(total);
}

std::vector<std::uint64_t> remote_reads(const CSRGraph& g,
                                        const Partition& partition) {
  ATLC_CHECK(partition.col_blocks() == 1,
             "remote_reads: needs a 1D partition (whole rows per owner)");
  std::vector<std::uint64_t> reads(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t home = partition.owner(v);
    for (const VertexId j : g.neighbors(v))
      if (partition.owner(j) != home) ++reads[j];
  }
  return reads;
}

}  // namespace atlc::graph
