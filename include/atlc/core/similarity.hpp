#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "atlc/core/edge_pipeline.hpp"

namespace atlc::core {

/// Per-edge neighborhood-similarity measures — the paper's future-work
/// direction (Section VI (ii), citing the communication-efficient Jaccard
/// work [12]). Their access pattern is LCC's — for each local edge (u, v),
/// read adj(v) (possibly remote) and intersect it with adj(u) — so each
/// measure is a score formula over one EdgePipeline kernel, and every
/// intersection is counted and priced by the rank's Intersector (so the
/// measures honour EngineConfig::intersect_tier like LCC does).
///
/// `score[k]` belongs to the k-th entry of the graph's adjacencies array
/// (the edge u->v where u owns slot k); link-prediction applications rank
/// candidate edges by it. The inherited EdgeAnalyticStats block is
/// aggregated by run_edge_analytic identically to every other analytic.
/// Measures run on the same EngineConfig as LCC (method, tier, caching,
/// pipeline depth, 1D partitioning).
struct SimilarityResult : EdgeAnalyticStats {
  std::vector<double> score;  ///< one per adjacency slot
};

/// Jaccard similarity per edge:
///
///   J(u, v) = |adj(u) ∩ adj(v)| / |adj(u) ∪ adj(v)|
[[nodiscard]] SimilarityResult run_distributed_jaccard(
    const CSRGraph& g, std::uint32_t ranks, const EngineConfig& config = {},
    const rma::NetworkModel& net = {},
    graph::PartitionKind partition = graph::PartitionKind::Block1D);

/// Overlap (Szymkiewicz–Simpson) coefficient per edge:
///
///   O(u, v) = |adj(u) ∩ adj(v)| / min(|adj(u)|, |adj(v)|)
///
/// The normalisation by the smaller neighborhood makes hub-leaf edges
/// comparable to hub-hub edges, which plain Jaccard suppresses.
[[nodiscard]] SimilarityResult run_distributed_overlap(
    const CSRGraph& g, std::uint32_t ranks, const EngineConfig& config = {},
    const rma::NetworkModel& net = {},
    graph::PartitionKind partition = graph::PartitionKind::Block1D);

/// Adamic–Adar index per edge:
///
///   AA(u, v) = sum over w in adj(u) ∩ adj(v) of 1 / ln(deg(w))
///
/// weighting each common neighbor by the inverse log of its (global)
/// out-degree — rare shared neighbors count more. Common neighbors of
/// out-degree < 2 contribute 0 (ln(1) = 0 has no meaningful inverse; they
/// only occur on directed graphs, since cleaning removes them otherwise).
/// Needs deg(w) for arbitrary global w, so each rank replicates the degree
/// vector once at setup by reading every peer's offsets window — a one-shot
/// O(|V|) transfer charged to the virtual clock, after which the per-edge
/// loop is the standard pipeline with the Intersector's enumerating
/// (SSI-priced) walk.
[[nodiscard]] SimilarityResult run_distributed_adamic_adar(
    const CSRGraph& g, std::uint32_t ranks, const EngineConfig& config = {},
    const rma::NetworkModel& net = {},
    graph::PartitionKind partition = graph::PartitionKind::Block1D);

/// The Adamic–Adar weight of one common neighbor: 1 / ln(degree), and 0
/// for degree < 2. The one formula behind run_distributed_adamic_adar, its
/// reference, and serve's topk_adamic_adar queries.
inline double adamic_adar_weight(std::uint64_t degree) {
  return degree < 2 ? 0.0 : 1.0 / std::log(static_cast<double>(degree));
}

/// Single-node references for validation (same slot layout and, for
/// Adamic–Adar, the same ascending summation order, so distributed results
/// match bit-for-bit).
[[nodiscard]] std::vector<double> reference_jaccard(const CSRGraph& g);
[[nodiscard]] std::vector<double> reference_overlap(const CSRGraph& g);
[[nodiscard]] std::vector<double> reference_adamic_adar(const CSRGraph& g);

}  // namespace atlc::core
