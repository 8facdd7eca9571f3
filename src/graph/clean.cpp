#include "atlc/graph/clean.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "atlc/graph/relabel.hpp"

namespace atlc::graph {

namespace {

/// One pass of degree<2 removal. Returns the number of removed vertices and
/// compacts ids. Degree counts both orientations so that directed inputs
/// keep vertices involved in any triangle-capable pattern.
VertexId remove_low_degree_once(EdgeList& edges) {
  const VertexId n = edges.num_vertices();
  std::vector<VertexId> degree(n, 0);
  for (const Edge& e : edges.edges()) {
    ++degree[e.u];
    if (edges.directedness() == Directedness::Directed) ++degree[e.v];
  }
  // Undirected edge lists store both orientations, so out-degree alone is
  // already the symmetric degree.

  std::vector<VertexId> remap(n, 0);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v)
    remap[v] = degree[v] >= 2 ? next++ : static_cast<VertexId>(-1);
  const VertexId removed = n - next;
  if (removed == 0) return 0;

  std::erase_if(edges.edges(), [&](const Edge& e) {
    return remap[e.u] == static_cast<VertexId>(-1) ||
           remap[e.v] == static_cast<VertexId>(-1);
  });
  for (Edge& e : edges.edges()) {
    e.u = remap[e.u];
    e.v = remap[e.v];
  }
  edges.set_num_vertices(next);
  return removed;
}

}  // namespace

CleanReport clean(EdgeList& edges, const CleanOptions& options) {
  CleanReport report;

  std::size_t before = edges.num_edges();
  edges.remove_self_loops();
  report.self_loops_removed = before - edges.num_edges();

  before = edges.num_edges();
  edges.sort_and_dedup();
  report.multi_edges_removed = before - edges.num_edges();

  if (options.remove_degree_lt2)
    report.vertices_removed = remove_low_degree_once(edges);

  if (options.relabel_seed != 0) {
    relabel_random(edges, options.relabel_seed);
  }

  return report;
}

}  // namespace atlc::graph
