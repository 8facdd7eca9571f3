#include "atlc/graph/clean.hpp"

#include <algorithm>

#include "atlc/graph/relabel.hpp"

namespace atlc::graph {

std::vector<VertexId> clean_ids(std::span<const VertexId> degree,
                                const CleanOptions& options) {
  std::vector<VertexId> ids(degree.size());
  VertexId next = 0;
  for (std::size_t v = 0; v < degree.size(); ++v)
    ids[v] = !options.remove_degree_lt2 || degree[v] >= 2 ? next++
                                                          : kRemovedVertex;
  if (options.relabel_seed != 0) {
    const std::vector<VertexId> perm =
        random_permutation(next, options.relabel_seed);
    for (VertexId& id : ids)
      if (id != kRemovedVertex) id = perm[id];
  }
  return ids;
}

CleanReport clean(EdgeList& edges, const CleanOptions& options) {
  CleanReport report;

  std::size_t before = edges.num_edges();
  edges.remove_self_loops();
  report.self_loops_removed = before - edges.num_edges();

  before = edges.num_edges();
  edges.sort_and_dedup();
  report.multi_edges_removed = before - edges.num_edges();

  const bool directed = edges.directedness() == Directedness::Directed;
  std::vector<VertexId> degree(edges.num_vertices(), 0);
  for (const Edge& e : edges.edges()) {
    ++degree[e.u];
    if (directed) ++degree[e.v];
  }
  const std::vector<VertexId> ids = clean_ids(degree, options);

  std::vector<Edge>& list = edges.edges();
  std::size_t kept = 0;
  for (const Edge& e : list) {
    const Edge mapped{ids[e.u], ids[e.v]};
    if (mapped.u != kRemovedVertex && mapped.v != kRemovedVertex)
      list[kept++] = mapped;
  }
  list.resize(kept);
  report.vertices_removed = static_cast<VertexId>(
      std::count(ids.begin(), ids.end(), kRemovedVertex));
  edges.set_num_vertices(edges.num_vertices() - report.vertices_removed);
  return report;
}

}  // namespace atlc::graph
