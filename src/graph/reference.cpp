#include "atlc/graph/reference.hpp"

#include "atlc/intersect/intersect.hpp"

namespace atlc::graph {

double lcc_score(std::uint64_t t, VertexId out_degree) {
  if (out_degree < 2) return 0.0;
  const double pairs = static_cast<double>(out_degree) *
                       (static_cast<double>(out_degree) - 1.0);
  // Undirected Eq. (2): C = 2*tri/ (d(d-1)) with tri = t/2  ==>  t / (d(d-1)).
  // Directed   Eq. (1): C = t / (d+(d+-1)).
  // Both collapse to the same expression in terms of the edge-centric t.
  return static_cast<double>(t) / pairs;
}

LccResult reference_lcc(const CSRGraph& g) {
  const VertexId n = g.num_vertices();
  LccResult r;
  r.triangles.assign(n, 0);
  r.lcc.assign(n, 0.0);

  for (VertexId v = 0; v < n; ++v) {
    const auto adj_v = g.neighbors(v);
    std::uint64_t t = 0;
    // Counted through the scalar visitor walk, which no engine count path
    // uses, so a bug in the count kernels cannot hide on both sides of an
    // engine-vs-reference comparison.
    for (VertexId j : adj_v)
      intersect::for_each_common(adj_v, g.neighbors(j), [&](VertexId) { ++t; });
    r.triangles[v] = t;
    r.lcc[v] = lcc_score(t, g.degree(v));
  }

  std::uint64_t sum = 0;
  for (auto t : r.triangles) sum += t;
  // Undirected: every distinct triangle is counted twice at each of its three
  // vertices (once per incident orientation) => divide by 6. Directed: t(v)
  // counts each transitive triad exactly once at its apex => sum directly.
  r.global_triangles = g.directedness() == Directedness::Undirected ? sum / 6 : sum;
  return r;
}

LccResult naive_lcc(const CSRGraph& g) {
  const VertexId n = g.num_vertices();
  LccResult r;
  r.triangles.assign(n, 0);
  r.lcc.assign(n, 0.0);

  for (VertexId v = 0; v < n; ++v) {
    const auto adj_v = g.neighbors(v);
    std::uint64_t t = 0;
    for (VertexId j : adj_v)
      for (VertexId k : adj_v)
        if (j != k && g.has_edge(j, k)) ++t;
    r.triangles[v] = t;
    r.lcc[v] = lcc_score(t, g.degree(v));
  }

  std::uint64_t sum = 0;
  for (auto t : r.triangles) sum += t;
  r.global_triangles = g.directedness() == Directedness::Undirected ? sum / 6 : sum;
  return r;
}

}  // namespace atlc::graph
