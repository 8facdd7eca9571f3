#pragma once

#include <cstdint>
#include <vector>

#include "atlc/graph/edge_list.hpp"

namespace atlc::graph {

/// Deterministic pseudo-random permutation of 0..n-1 (Fisher–Yates driven by
/// Xoshiro). Shared by `clean_ids` (the Section II-B relabel),
/// `serve::ZipfSampler` and the tests that must invert it.
[[nodiscard]] std::vector<VertexId> random_permutation(VertexId n,
                                                       std::uint64_t seed);

/// Apply an explicit permutation: new id of v is `perm[v]`.
void relabel(EdgeList& edges, const std::vector<VertexId>& perm);

}  // namespace atlc::graph
