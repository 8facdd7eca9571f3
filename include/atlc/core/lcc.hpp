#pragma once

#include <cstdint>
#include <vector>

#include "atlc/clampi/cache.hpp"
#include "atlc/core/edge_pipeline.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/rma/network_model.hpp"

namespace atlc::core {

/// Per-rank outcome of the compute phase.
struct RankResult {
  std::vector<std::uint64_t> triangles;  ///< edge-centric t(v), local vertices
  std::vector<double> lcc;               ///< LCC scores, local vertices
};

/// Paper Algorithm 3 body for one rank, as an EdgePipeline kernel: count
/// triangles for every locally owned vertex, reading remote adjacency lists
/// through the two-get RMA protocol (optionally cached), and derive LCC
/// scores. Drives the caller's pipeline and fills only the per-vertex
/// outputs; the caller harvests the pipeline counters itself.
[[nodiscard]] RankResult compute_lcc_rank(rma::RankCtx& ctx,
                                          const DistGraph& dg,
                                          const EngineConfig& config,
                                          EdgePipeline& pipeline);

/// Aggregated outcome of a full distributed run: the per-analytic outputs
/// plus the stats block every edge analytic shares (edge_pipeline.hpp).
struct RunResult : EdgeAnalyticStats {
  std::vector<std::uint64_t> triangles;  ///< per global vertex
  std::vector<double> lcc;               ///< per global vertex
  std::uint64_t global_triangles = 0;    ///< distinct triangles (undirected)
};

/// Convenience driver: partition `g` over `ranks` simulated ranks, run the
/// engine on each, and gather per-vertex results. The entry point the
/// examples and benches use.
[[nodiscard]] RunResult run_distributed_lcc(
    const CSRGraph& g, std::uint32_t ranks, const EngineConfig& config = {},
    const rma::NetworkModel& net = {},
    graph::PartitionKind partition = graph::PartitionKind::Block1D);

/// Global triangle count via the same machinery, in `global_triangles`:
/// for undirected graphs the number of distinct triangles. Two
/// de-duplication paths: the paper's upper-triangle floor trick (default),
/// or — with `orient_dodg` — a degree-ordered orientation pass
/// (graph::orient_dodg) that enumerates each triangle exactly once with no
/// per-edge trimming and caps every row at O(sqrt(m)) (DESIGN.md §9). Only
/// TC takes the orientation: LCC and the similarity measures need full
/// undirected neighborhoods. The whole RunResult comes back (makespan,
/// comm/cache stats, per-vertex counts) — the `dodg` bench scenario
/// compares the paths on it. Note that on the DODG path `triangles[v]` is
/// the count of triangles whose (deg, id)-least edge starts at v, NOT the
/// edge-centric t(v); `global_triangles` is exact either way.
[[nodiscard]] RunResult run_distributed_tc_result(
    const CSRGraph& g, std::uint32_t ranks, EngineConfig config = {},
    const rma::NetworkModel& net = {},
    graph::PartitionKind partition = graph::PartitionKind::Block1D,
    bool orient_dodg = false);

}  // namespace atlc::core
