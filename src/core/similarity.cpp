#include "atlc/core/similarity.hpp"

#include <algorithm>
#include <span>

#include "atlc/intersect/intersect.hpp"
#include "atlc/util/check.hpp"

namespace atlc::core {

namespace {

double jaccard_from_counts(std::uint64_t common, std::size_t deg_u,
                           std::size_t deg_v) {
  const std::uint64_t uni = deg_u + deg_v - common;
  return uni == 0 ? 0.0 : static_cast<double>(common) / static_cast<double>(uni);
}

double overlap_from_counts(std::uint64_t common, std::size_t deg_u,
                           std::size_t deg_v) {
  const std::size_t mn = std::min(deg_u, deg_v);
  return mn == 0 ? 0.0 : static_cast<double>(common) / static_cast<double>(mn);
}

/// Replicate the global out-degree vector on this rank by differencing
/// every peer's offsets window — the one-shot setup transfer Adamic–Adar
/// needs (deg(w) for arbitrary global w in the kernel). Stays within the
/// RMA channels the runtime exposes: local parts are read directly, remote
/// parts with one flushed bulk get per peer, priced by the network model.
std::vector<VertexId> replicate_degrees(rma::RankCtx& ctx,
                                        const DistGraph& dg) {
  const Partition& part = dg.partition;
  std::vector<VertexId> degree(part.num_vertices(), 0);
  std::vector<EdgeIndex> offsets;
  for (std::uint32_t r = 0; r < part.num_ranks(); ++r) {
    const VertexId n_r = part.part_size(r);
    std::span<const EdgeIndex> offs;
    if (r == ctx.rank()) {
      offs = dg.offsets;
    } else {
      offsets.resize(n_r + 1);
      ctx.flush(dg.w_offsets.get(r, 0, n_r + 1, offsets.data()));
      offs = offsets;
    }
    for (VertexId lv = 0; lv < n_r; ++lv)
      degree[part.global_id(r, lv)] =
          static_cast<VertexId>(offs[lv + 1] - offs[lv]);
  }
  return degree;
}

/// One edge's score and the modeled seconds of the work behind it.
struct Scored {
  double score;
  double seconds;
};

/// The one per-edge measure driver. `score` is laid out per adjacency slot
/// of the *global* CSR (the edge u->v where u owns slot k); `setup(ctx,
/// dg)` runs once per rank before the pipeline and its result is handed to
/// every `score_edge(isect, state, adj_v, adj_j)` call, which scores one
/// edge through the rank's Intersector.
template <typename Setup, typename ScoreEdge>
SimilarityResult run_measure(const CSRGraph& g, std::uint32_t ranks,
                             const EngineConfig& config,
                             const rma::NetworkModel& net,
                             graph::PartitionKind partition_kind,
                             Setup&& setup, ScoreEdge&& score_edge) {
  ATLC_CHECK(partition_kind != graph::PartitionKind::Grid2D,
             "per-edge score analytics are 1D-only: their kernels need the "
             "whole adjacency row per edge (denominators use full degrees), "
             "not the per-block segments Grid2D streams");
  SimilarityResult out;
  out.score.assign(g.num_edges(), 0.0);
  static_cast<EdgeAnalyticStats&>(out) = run_edge_analytic(
      g, graph::make_partition(g, partition_kind, ranks), config, net,
      [&](rma::RankCtx& ctx, const DistGraph& dg, EdgePipeline& pipeline) {
        auto state = setup(ctx, dg);
        intersect::Intersector isect = make_intersector(config);
        // Global slot of each local edge: adjacency slots are laid out per
        // owning vertex, so local slot ei of local vertex lv maps to
        // offsets(global v) + (ei - local offsets(lv)).
        EdgeIndex ei = 0;
        pipeline.run([&](VertexId lv, VertexId, std::span<const VertexId> adj_v,
                         std::span<const VertexId> adj_j) {
          const VertexId v_global = dg.partition.global_id(ctx.rank(), lv);
          const Scored s = score_edge(isect, state, adj_v, adj_j);
          ctx.charge_compute(s.seconds);
          out.score[g.offsets()[v_global] + (ei - dg.offsets[lv])] = s.score;
          ++ei;
        });
      });
  return out;
}

/// A measure that is a formula of (|adj(u) ∩ adj(v)|, |adj(u)|, |adj(v)|).
SimilarityResult run_count_measure(const CSRGraph& g, std::uint32_t ranks,
                                   const EngineConfig& config,
                                   const rma::NetworkModel& net,
                                   graph::PartitionKind partition,
                                   double (*formula)(std::uint64_t,
                                                     std::size_t,
                                                     std::size_t)) {
  return run_measure(
      g, ranks, config, net, partition,
      [](rma::RankCtx&, const DistGraph&) { return 0; },
      [formula](intersect::Intersector& isect, int,
                std::span<const VertexId> adj_v,
                std::span<const VertexId> adj_j) {
        const auto o = isect.count(adj_v, adj_j);
        return Scored{formula(o.common, adj_v.size(), adj_j.size()),
                      o.seconds};
      });
}

/// Single-node reference: `score(adj(u), adj(v))` per adjacency slot.
template <typename Score>
std::vector<double> reference_scores(const CSRGraph& g, Score&& score) {
  std::vector<double> out(g.num_edges(), 0.0);
  std::size_t k = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto adj_u = g.neighbors(u);
    for (VertexId v : adj_u) out[k++] = score(adj_u, g.neighbors(v));
  }
  return out;
}

}  // namespace

SimilarityResult run_distributed_jaccard(const CSRGraph& g,
                                         std::uint32_t ranks,
                                         const EngineConfig& config,
                                         const rma::NetworkModel& net,
                                         graph::PartitionKind partition) {
  return run_count_measure(g, ranks, config, net, partition,
                           jaccard_from_counts);
}

SimilarityResult run_distributed_overlap(const CSRGraph& g,
                                         std::uint32_t ranks,
                                         const EngineConfig& config,
                                         const rma::NetworkModel& net,
                                         graph::PartitionKind partition) {
  return run_count_measure(g, ranks, config, net, partition,
                           overlap_from_counts);
}

SimilarityResult run_distributed_adamic_adar(const CSRGraph& g,
                                             std::uint32_t ranks,
                                             const EngineConfig& config,
                                             const rma::NetworkModel& net,
                                             graph::PartitionKind partition) {
  return run_measure(
      g, ranks, config, net, partition,
      [](rma::RankCtx& ctx, const DistGraph& dg) {
        return replicate_degrees(ctx, dg);
      },
      [](intersect::Intersector& isect, const std::vector<VertexId>& degree,
         std::span<const VertexId> adj_v, std::span<const VertexId> adj_j) {
        double aa = 0.0;
        const auto walk = isect.for_each_common(
            adj_v, adj_j,
            [&](VertexId w) { aa += adamic_adar_weight(degree[w]); });
        return Scored{aa, walk.seconds};
      });
}

std::vector<double> reference_jaccard(const CSRGraph& g) {
  return reference_scores(g, [](auto adj_u, auto adj_v) {
    return jaccard_from_counts(intersect::count_hybrid(adj_u, adj_v),
                               adj_u.size(), adj_v.size());
  });
}

std::vector<double> reference_overlap(const CSRGraph& g) {
  return reference_scores(g, [](auto adj_u, auto adj_v) {
    return overlap_from_counts(intersect::count_hybrid(adj_u, adj_v),
                               adj_u.size(), adj_v.size());
  });
}

std::vector<double> reference_adamic_adar(const CSRGraph& g) {
  return reference_scores(g, [&g](auto adj_u, auto adj_v) {
    double aa = 0.0;
    intersect::for_each_common(adj_u, adj_v, [&](VertexId w) {
      aa += adamic_adar_weight(g.degree(w));
    });
    return aa;
  });
}

}  // namespace atlc::core
