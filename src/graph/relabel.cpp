#include "atlc/graph/relabel.hpp"

#include <numeric>

#include "atlc/util/check.hpp"
#include "atlc/util/rng.hpp"

namespace atlc::graph {

std::vector<VertexId> random_permutation(VertexId n, std::uint64_t seed) {
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  util::Xoshiro256 rng(seed);
  for (VertexId i = n; i > 1; --i) {
    const auto j = static_cast<VertexId>(rng.next_below(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

void relabel(EdgeList& edges, const std::vector<VertexId>& perm) {
  ATLC_CHECK(perm.size() == edges.num_vertices(),
             "permutation size must match vertex count");
  for (Edge& e : edges.edges()) {
    e.u = perm[e.u];
    e.v = perm[e.v];
  }
}

}  // namespace atlc::graph
