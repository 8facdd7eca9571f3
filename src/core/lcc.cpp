#include "atlc/core/lcc.hpp"

#include <span>
#include <vector>

#include "atlc/graph/dodg.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/util/check.hpp"

namespace atlc::core {

namespace {

/// This rank's partial t(v) for every local vertex: the whole count on a
/// 1D partition, the column-block partial under 2D. The kernel is paper
/// Algorithm 3's inner loop over (edge, block) items: intersect seg(v, b)
/// with seg(j, b) and charge the Intersector's price. With
/// `upper_triangle` (paper Section II-C, global TC on undirected
/// graphs) only common neighbors k > j count, which halves the work; LCC
/// needs the full count. Summed over blocks this is the whole-row count
/// (the blocks partition the neighbor id range, and suffix_above
/// distributes over that partition); on a 1D partition there is one block
/// and seg_v is adj(v). Trimmed, the blocks below the rank's own column
/// count nothing (each of their ids lies below the j of every local edge),
/// so the pipeline starts at grid_col(rank): it neither fetches nor visits
/// them. grid_col is 0 on every 1D kind.
std::vector<std::uint64_t> count_rank(rma::RankCtx& ctx, const DistGraph& dg,
                                      const EngineConfig& config,
                                      EdgePipeline& pipeline,
                                      bool upper_triangle) {
  std::vector<std::uint64_t> triangles(dg.num_local(), 0);
  intersect::Intersector isect = make_intersector(config);
  pipeline.run_segments(
      [&](VertexId lv, VertexId j, std::uint32_t /*block*/,
          std::span<const VertexId> seg_v, std::span<const VertexId> seg_j) {
        auto lhs = seg_v;
        auto rhs = seg_j;
        if (upper_triangle) {
          lhs = intersect::suffix_above(lhs, j);
          rhs = intersect::suffix_above(rhs, j);
        }
        const intersect::Intersector::Outcome out = isect.count(lhs, rhs);
        if (ctx.tracer().enabled())
          ctx.tracer().instant(out.label, {"size", lhs.size() + rhs.size()});
        ctx.charge_compute(out.seconds);
        triangles[lv] += out.common;
      },
      upper_triangle ? dg.partition.grid_col(ctx.rank()) : 0);
  return triangles;
}

}  // namespace

RankResult compute_lcc_rank(rma::RankCtx& ctx, const DistGraph& dg,
                            const EngineConfig& config,
                            EdgePipeline& pipeline) {
  ATLC_CHECK(dg.partition.col_blocks() == 1,
             "compute_lcc_rank is the whole-row (1D) path; Grid2D runs go "
             "through run_distributed_lcc/tc, which reduce block partials "
             "across the grid row");
  RankResult r;
  r.triangles = count_rank(ctx, dg, config, pipeline, false);
  r.lcc.resize(dg.num_local());
  for (VertexId v = 0; v < dg.num_local(); ++v)
    r.lcc[v] = graph::lcc_score(r.triangles[v], dg.local_degree(v));
  return r;
}

namespace {

RunResult run_engine(const CSRGraph& g, std::uint32_t ranks,
                     const EngineConfig& config, const rma::NetworkModel& net,
                     graph::PartitionKind partition_kind,
                     bool upper_triangle) {
  RunResult out;
  out.triangles.assign(g.num_vertices(), 0);
  out.lcc.assign(g.num_vertices(), 0.0);

  // Every rank accumulates partial t(v) for its local vertices; the driver
  // reduces them after the SPMD region, through the one partition the run
  // used. Under 1D the partials are disjoint and the reduction is a
  // scatter; under Grid2D the pc ranks of a grid row hold block partials
  // for the SAME vertices, and their sum is the whole-row count.
  const Partition part =
      graph::make_partition(g, partition_kind, ranks, upper_triangle);
  std::vector<std::vector<std::uint64_t>> partials(ranks);
  static_cast<EdgeAnalyticStats&>(out) = run_edge_analytic(
      g, part, config, net,
      [&](rma::RankCtx& ctx, const DistGraph& dg, EdgePipeline& pipeline) {
        partials[ctx.rank()] =
            count_rank(ctx, dg, config, pipeline, upper_triangle);
      });

  for (std::uint32_t r = 0; r < ranks; ++r)
    for (VertexId lv = 0; lv < static_cast<VertexId>(partials[r].size()); ++lv)
      out.triangles[part.global_id(r, lv)] += partials[r][lv];
  // LCC denominators come from the global graph: under 2D only the full
  // degree, which no single segment store sees, is right.
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    out.lcc[v] = graph::lcc_score(out.triangles[v], g.degree(v));

  std::uint64_t sum = 0;
  for (auto t : out.triangles) sum += t;
  if (upper_triangle) {
    // Each undirected triangle is counted once per vertex => /3.
    out.global_triangles =
        g.directedness() == Directedness::Undirected ? sum / 3 : sum;
  } else {
    // Each undirected triangle is counted twice per vertex => /6; for
    // directed graphs the edge-centric sum counts transitive triads once.
    out.global_triangles =
        g.directedness() == Directedness::Undirected ? sum / 6 : sum;
  }
  return out;
}

}  // namespace

RunResult run_distributed_lcc(const CSRGraph& g, std::uint32_t ranks,
                              const EngineConfig& config,
                              const rma::NetworkModel& net,
                              graph::PartitionKind partition) {
  return run_engine(g, ranks, config, net, partition, false);
}

RunResult run_distributed_tc_result(const CSRGraph& g, std::uint32_t ranks,
                                    EngineConfig config,
                                    const rma::NetworkModel& net,
                                    graph::PartitionKind partition,
                                    bool orient_dodg) {
  if (orient_dodg && g.directedness() == Directedness::Undirected) {
    // DODG path: each triangle appears exactly once as a common
    // out-neighbor of its (deg, id)-least edge, so the engine runs over the
    // oriented graph with NO per-edge suffix trimming and the raw t(v) sum
    // IS the distinct-triangle count (run_engine's directed branch).
    // Orientation is preprocessing, priced like partitioning: outside the
    // ranks' virtual clocks (DESIGN.md §9).
    const CSRGraph oriented = graph::orient_dodg(g);
    // A slice source stores the UNORIENTED rows; ranks must slice the
    // oriented graph, which is already in memory.
    config.slice_source = nullptr;
    return run_engine(oriented, ranks, config, net, partition, false);
  }
  // Paper path: upper-triangle de-duplication only applies to undirected
  // graphs (Section II-C); directed transitive triads need the full scan.
  return run_engine(g, ranks, config, net, partition,
                    g.directedness() == Directedness::Undirected);
}

}  // namespace atlc::core
