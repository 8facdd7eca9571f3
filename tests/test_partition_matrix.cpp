// Cross-partition equivalence matrix (ISSUE 7 tentpole safety net): sweep
// seeded graphs × every PartitionKind × rank counts × {cached, uncached} ×
// {Paper, Tiered} and assert TC counts and FULL LCC vectors are identical
// to the single-node reference. The fetcher contract was rewritten under
// every analytic for segment-granular (Grid2D) fetching, so this is the
// differential harness that proves the 1D paths unchanged and the 2D path
// exact — the same pattern that caught a real OOB in the intersect-kernel
// differential sweep (PR 6), promoted to the distribution layer.
//
// Seeds: fixed by default (deterministic tier-1 gate); the nightly CI job
// rotates ATLC_MATRIX_SEED and the chosen seed is printed below so any
// failure is replayable with `ATLC_MATRIX_SEED=<n> ./test_partition_matrix`.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "atlc/core/lcc.hpp"
#include "atlc/graph/relabel.hpp"
#include "test_support.hpp"

namespace atlc {
namespace {

using core::EngineConfig;
using graph::PartitionKind;
using testsupport::expect_matches_reference;
using testsupport::paper_example;
using testsupport::rmat_graph;

constexpr PartitionKind kKinds[] = {
    PartitionKind::Block1D, PartitionKind::Cyclic1D,
    PartitionKind::DegreeBalanced1D, PartitionKind::Grid2D};
constexpr std::uint32_t kRankCounts[] = {1, 2, 4, 8};

std::uint64_t matrix_seed() {
  static const std::uint64_t seed = [] {
    std::uint64_t s = 20250807;  // fixed default: deterministic tier-1 gate
    if (const char* env = std::getenv("ATLC_MATRIX_SEED"); env && *env)
      s = std::strtoull(env, nullptr, 10);
    // Printed (not logged at -q levels gtest hides) so nightly rotating-seed
    // failures are replayable: ATLC_MATRIX_SEED=<seed> ./test_partition_matrix
    std::printf("[matrix] seed = %llu (set ATLC_MATRIX_SEED to replay)\n",
                static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

EngineConfig matrix_config(const graph::CSRGraph& g, bool cached,
                           bool tiered) {
  EngineConfig cfg;
  if (tiered) cfg.intersect_tier = intersect::Tier::Tiered;
  if (cached) {
    cfg.use_cache = true;
    cfg.cache_sizing =
        core::CacheSizing::paper_default(g.num_vertices(), 1 << 18);
  }
  return cfg;
}

/// The full sweep for one graph: every kind × rank count × cache mode ×
/// kernel generation, LCC vectors and TC counts against the reference.
void sweep_graph(const graph::CSRGraph& g, const char* name) {
  const auto ref = graph::reference_lcc(g);
  for (const PartitionKind kind : kKinds) {
    for (const std::uint32_t ranks : kRankCounts) {
      for (const bool cached : {false, true}) {
        for (const bool tiered : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << name << " kind=" << graph::partition_kind_name(kind)
                       << " ranks=" << ranks << " cached=" << cached
                       << " tiered=" << tiered);
          const EngineConfig cfg = matrix_config(g, cached, tiered);
          const auto lcc = core::run_distributed_lcc(g, ranks, cfg, {}, kind);
          expect_matches_reference(g, lcc);
          // TC exercises the upper-triangle trimming (1D) / per-segment
          // suffix trimming (Grid2D) paths the LCC run does not.
          EXPECT_EQ(core::run_distributed_tc_result(g, ranks, cfg, {}, kind)
                        .global_triangles,
                    ref.global_triangles);
        }
      }
    }
  }
}

TEST(PartitionMatrix, PaperExampleAllConfigs) {
  sweep_graph(paper_example(), "paper_example");
}

TEST(PartitionMatrix, RmatSkewedAllConfigs) {
  sweep_graph(rmat_graph(7, 8, matrix_seed()), "rmat_s7_ef8");
}

TEST(PartitionMatrix, RmatDenserAllConfigs) {
  sweep_graph(rmat_graph(6, 16, matrix_seed() + 1), "rmat_s6_ef16");
}

// The DODG orientation path (directed rows, no suffix trimming, raw t(v)
// sums) composes with every partition kind — under Grid2D the oriented rows
// are segmented like any others.
TEST(PartitionMatrix, DodgTcAcrossKinds) {
  const auto g = rmat_graph(7, 8, matrix_seed() + 2);
  const auto ref = graph::reference_lcc(g);
  for (const PartitionKind kind : kKinds) {
    for (const std::uint32_t ranks : kRankCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "kind=" << graph::partition_kind_name(kind)
                   << " ranks=" << ranks);
      const EngineConfig cfg =
          matrix_config(g, /*cached=*/true, /*tiered=*/true);
      EXPECT_EQ(core::run_distributed_tc_result(g, ranks, cfg, {}, kind,
                                                /*orient_dodg=*/true)
                    .global_triangles,
                ref.global_triangles);
    }
  }
}

// Hub replication composes with every kind: under Grid2D a replicated row
// serves segment requests by slicing to the column block's id range.
TEST(PartitionMatrix, HubReplicationAcrossKinds) {
  const auto g = rmat_graph(7, 8, matrix_seed() + 3);
  for (const PartitionKind kind : kKinds) {
    SCOPED_TRACE(graph::partition_kind_name(kind));
    EngineConfig cfg = matrix_config(g, /*cached=*/true, /*tiered=*/false);
    cfg.hub_fraction = 0.25;
    const auto lcc = core::run_distributed_lcc(g, 4, cfg, {}, kind);
    expect_matches_reference(g, lcc);
    if (kind == PartitionKind::Grid2D)
      EXPECT_GT(lcc.run.total().hub_local_hits, 0u);
  }
}

// Satellite: vertex-relabel invariance. A random permutation of vertex ids
// must leave the TC count unchanged and map the LCC/triangle vectors
// through the permutation, for every PartitionKind (this is exactly the
// relabel step Grid2D assumes balances its row/column blocks).
TEST(PartitionMatrix, RelabelInvarianceAcrossKinds) {
  const std::uint64_t seed = matrix_seed() + 4;
  auto edges = graph::generate_rmat({.scale = 7,
                                     .edge_factor = 8,
                                     .seed = seed,
                                     .directedness =
                                         graph::Directedness::Undirected});
  graph::clean(edges);
  const auto g = graph::CSRGraph::from_edges(edges);
  const auto perm =
      graph::random_permutation(g.num_vertices(), seed ^ 0x9e3779b9ULL);
  graph::relabel(edges, perm);
  graph::clean(edges);  // re-sort rows under the new ids
  const auto g2 = graph::CSRGraph::from_edges(edges);

  for (const PartitionKind kind : kKinds) {
    SCOPED_TRACE(graph::partition_kind_name(kind));
    const EngineConfig cfg = matrix_config(g, /*cached=*/true, /*tiered=*/true);
    const auto base = core::run_distributed_lcc(g, 4, cfg, {}, kind);
    const auto rel = core::run_distributed_lcc(g2, 4, cfg, {}, kind);
    EXPECT_EQ(rel.global_triangles, base.global_triangles);
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(rel.triangles[perm[v]], base.triangles[v]) << "vertex " << v;
      ASSERT_DOUBLE_EQ(rel.lcc[perm[v]], base.lcc[v]) << "vertex " << v;
    }
  }
}

}  // namespace
}  // namespace atlc
