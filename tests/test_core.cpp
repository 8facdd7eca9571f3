// Integration tests for the asynchronous distributed LCC/TC engine
// (paper Algorithm 3): correctness against the single-node reference across
// rank counts, caching modes, partitionings, and pipelines.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "atlc/core/dist_graph.hpp"
#include "atlc/core/fetcher.hpp"
#include "atlc/core/lcc.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/reference.hpp"
#include "test_support.hpp"

namespace atlc::core {
namespace {

using graph::CSRGraph;
using graph::Directedness;
using graph::EdgeList;
using testsupport::expect_matches_reference;
using testsupport::paper_example;
using testsupport::rmat_graph;

// ------------------------------------------------------------ dist graph ---

TEST(DistGraph, PartitionsCoverGlobalCsr) {
  const CSRGraph g = rmat_graph(8, 8, 1);
  const graph::Partition part(graph::PartitionKind::Block1D, g.num_vertices(),
                              4);
  rma::Runtime::Options o;
  o.ranks = 4;
  std::atomic<std::uint64_t> total_edges{0};
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    const DistGraph dg = build_dist_graph(ctx, g, part);
    EXPECT_EQ(dg.num_local(), part.part_size(ctx.rank()));
    total_edges += dg.adjacencies.size();
    // Local slices replicate the global adjacency lists verbatim.
    for (VertexId lv = 0; lv < dg.num_local(); ++lv) {
      const VertexId v = part.global_id(ctx.rank(), lv);
      const auto local = dg.local_neighbors(lv);
      const auto global = g.neighbors(v);
      ASSERT_EQ(local.size(), global.size());
      for (std::size_t i = 0; i < local.size(); ++i)
        ASSERT_EQ(local[i], global[i]);
    }
  });
  EXPECT_EQ(total_edges.load(), g.num_edges());
}

TEST(DistGraph, RemoteOffsetProtocolReadsCorrectAdjacency) {
  const CSRGraph g = rmat_graph(7, 8, 2);
  const graph::Partition part(graph::PartitionKind::Block1D, g.num_vertices(),
                              3);
  rma::Runtime::Options o;
  o.ranks = 3;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    const DistGraph dg = build_dist_graph(ctx, g, part);
    // Every rank reads ALL vertices via the two-get protocol and compares
    // with the shared global CSR.
    EngineConfig cfg;
    AdjacencyFetcher fetcher(ctx, dg, cfg);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto got = fetcher.finish(fetcher.begin(v));
      const auto want = g.neighbors(v);
      ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "vertex " << v << " slot " << i;
    }
    ctx.barrier();  // windows expose dg's vectors; free collectively
  });
}

TEST(AdjacencyFetcher, CacheHitIsAViewOfTheOwnersExposedPart) {
  const CSRGraph g = rmat_graph(7, 8, 2);
  const graph::Partition part(graph::PartitionKind::Block1D, g.num_vertices(),
                              3);
  rma::Runtime::Options o;
  o.ranks = 3;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    const DistGraph dg = build_dist_graph(ctx, g, part);
    EngineConfig cfg;
    cfg.use_cache = true;
    AdjacencyFetcher fetcher(ctx, dg, cfg);
    // Pass 1 misses and admits every remote row; pass 2 hits them.
    for (int pass = 0; pass < 2; ++pass) {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto owner = part.owner(v);
        const auto got = fetcher.finish(fetcher.begin(v));
        ASSERT_TRUE(std::ranges::equal(got, g.neighbors(v))) << "vertex " << v;
        if (pass == 0 || owner == ctx.rank() || got.empty()) continue;
        const auto exposed =
            dg.w_adj.view(owner, 0, dg.w_adj.part_size(owner));
        EXPECT_GE(got.data(), exposed.data()) << "vertex " << v;
        EXPECT_LE(got.data() + got.size(), exposed.data() + exposed.size())
            << "vertex " << v;
      }
    }
    EXPECT_GT(fetcher.adj_cache().stats().hits, 0u);
    ctx.barrier();  // windows expose dg's vectors; free collectively
  });
}

// ----------------------------------------------------------- correctness ---

class LccAcrossRanks : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LccAcrossRanks, MatchesReferenceOnPaperExample) {
  const CSRGraph g = paper_example();
  expect_matches_reference(g, run_distributed_lcc(g, GetParam()));
}

TEST_P(LccAcrossRanks, MatchesReferenceOnRmat) {
  const CSRGraph g = rmat_graph(9, 8, 3);
  expect_matches_reference(g, run_distributed_lcc(g, GetParam()));
}

TEST_P(LccAcrossRanks, MatchesReferenceOnDirectedRmat) {
  const CSRGraph g = rmat_graph(8, 8, 4, Directedness::Directed);
  expect_matches_reference(g, run_distributed_lcc(g, GetParam()));
}

TEST_P(LccAcrossRanks, MatchesReferenceWithCaching) {
  const CSRGraph g = rmat_graph(9, 8, 5);
  EngineConfig cfg;
  cfg.use_cache = true;
  cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 20);
  expect_matches_reference(g, run_distributed_lcc(g, GetParam(), cfg));
}

TEST_P(LccAcrossRanks, MatchesReferenceWithUserScores) {
  const CSRGraph g = rmat_graph(9, 8, 6);
  EngineConfig cfg;
  cfg.use_cache = true;
  cfg.victim_policy = clampi::VictimPolicy::UserScore;
  cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 18);
  expect_matches_reference(g, run_distributed_lcc(g, GetParam(), cfg));
}

TEST_P(LccAcrossRanks, MatchesReferenceWithCyclicPartition) {
  const CSRGraph g = rmat_graph(8, 8, 7);
  expect_matches_reference(
      g, run_distributed_lcc(g, GetParam(), {}, {},
                             graph::PartitionKind::Cyclic1D));
}

TEST_P(LccAcrossRanks, MatchesReferenceWithDegreeBalancedPartition) {
  const CSRGraph g = rmat_graph(8, 8, 7);
  expect_matches_reference(
      g, run_distributed_lcc(g, GetParam(), {}, {},
                             graph::PartitionKind::DegreeBalanced1D));
}

TEST_P(LccAcrossRanks, MatchesReferenceWithHubReplication) {
  const CSRGraph g = rmat_graph(9, 8, 9);
  EngineConfig cfg;
  cfg.hub_fraction = 0.02;
  expect_matches_reference(g, run_distributed_lcc(g, GetParam(), cfg));
}

TEST_P(LccAcrossRanks, MatchesReferenceWithHubsCacheAndDegreePartition) {
  // The full skew-aware stack at once: degree-balanced cuts, replicated
  // hubs, CLaMPI caches, degree victim scores.
  const CSRGraph g = rmat_graph(9, 8, 11);
  EngineConfig cfg;
  cfg.hub_fraction = 0.05;
  cfg.use_cache = true;
  cfg.victim_policy = clampi::VictimPolicy::UserScore;
  cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 18);
  expect_matches_reference(
      g, run_distributed_lcc(g, GetParam(), cfg, {},
                             graph::PartitionKind::DegreeBalanced1D));
}

INSTANTIATE_TEST_SUITE_P(Ranks, LccAcrossRanks,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(Lcc, HubReplicationTradesRemoteGetsForLocalHits) {
  const CSRGraph g = rmat_graph(9, 8, 10);
  EngineConfig plain, hubbed;
  hubbed.hub_fraction = 0.01;
  const auto a = run_distributed_lcc(g, 4, plain);
  const auto b = run_distributed_lcc(g, 4, hubbed);
  // Same answers; replication is a pure traffic optimisation.
  EXPECT_EQ(a.triangles, b.triangles);
  EXPECT_EQ(a.global_triangles, b.global_triangles);
  // δ=0 runs never touch the hub path; δ>0 serves hub rows locally and
  // nets fewer remote gets even counting the build-time replication.
  EXPECT_EQ(a.run.total().hub_local_hits, 0u);
  EXPECT_GT(b.run.total().hub_local_hits, 0u);
  EXPECT_LT(b.run.total().remote_gets, a.run.total().remote_gets);
  // Virtual time stays deterministic with hubs enabled.
  const auto b2 = run_distributed_lcc(g, 4, hubbed);
  EXPECT_DOUBLE_EQ(b.run.makespan, b2.run.makespan);
  EXPECT_EQ(b.run.total().hub_local_hits, b2.run.total().hub_local_hits);
}

TEST(Lcc, TinyCacheStillCorrect) {
  // A cache under severe eviction pressure must never corrupt results.
  const CSRGraph g = rmat_graph(9, 8, 8);
  EngineConfig cfg;
  cfg.use_cache = true;
  cfg.cache_sizing.offsets_bytes = 256;
  cfg.cache_sizing.adj_bytes = 512;
  expect_matches_reference(g, run_distributed_lcc(g, 4, cfg));
}

TEST(Lcc, NoDoubleBufferSameResult) {
  const CSRGraph g = rmat_graph(8, 8, 9);
  EngineConfig cfg;
  cfg.pipeline_depth = 1;  // no overlap
  expect_matches_reference(g, run_distributed_lcc(g, 4, cfg));
}

TEST(Lcc, AllIntersectionMethodsAgree) {
  const CSRGraph g = rmat_graph(8, 8, 10);
  for (auto m : {intersect::Method::Binary, intersect::Method::SSI,
                 intersect::Method::Hybrid}) {
    EngineConfig cfg;
    cfg.method = m;
    expect_matches_reference(g, run_distributed_lcc(g, 2, cfg));
  }
}

TEST(Lcc, CirclesGraphAllModes) {
  auto e = graph::generate_circles({.num_vertices = 512, .seed = 3});
  graph::clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  for (bool cache : {false, true}) {
    EngineConfig cfg;
    cfg.use_cache = cache;
    expect_matches_reference(g, run_distributed_lcc(g, 4, cfg));
  }
}

// ------------------------------------------------------------- global TC ---

TEST(Tc, UpperTriangleGlobalCountMatches) {
  for (std::uint64_t seed : {11, 12, 13}) {
    const CSRGraph g = rmat_graph(8, 8, seed);
    const auto ref = graph::reference_lcc(g);
    EXPECT_EQ(run_distributed_tc(g, 4), ref.global_triangles) << seed;
  }
}

TEST(Tc, DirectedTransitiveTriads) {
  const CSRGraph g = rmat_graph(7, 8, 14, Directedness::Directed);
  const auto ref = graph::reference_lcc(g);
  EXPECT_EQ(run_distributed_tc(g, 3), ref.global_triangles);
}

// -------------------------------------------------------- paper behaviour ---

TEST(Behaviour, RemoteEdgeFractionGrowsWithRanks) {
  const CSRGraph g = rmat_graph(10, 8, 15);
  const auto r2 = run_distributed_lcc(g, 2);
  const auto r8 = run_distributed_lcc(g, 8);
  // Section IV-D2: more partitions => more cross-partition edges.
  EXPECT_GT(r8.remote_edge_fraction(), r2.remote_edge_fraction());
  EXPECT_GT(r2.remote_edge_fraction(), 0.0);
}

TEST(Behaviour, CachingReducesCommTimeOnSkewedGraph) {
  const CSRGraph g = rmat_graph(10, 16, 16);
  EngineConfig cached;
  cached.use_cache = true;
  cached.cache_sizing = CacheSizing::paper_default(
      g.num_vertices(), g.csr_bytes());  // generous cache
  const auto plain = run_distributed_lcc(g, 4);
  const auto with_cache = run_distributed_lcc(g, 4, cached);
  const auto comm = [](const RunResult& r) {
    double total = 0;
    for (const auto& s : r.run.stats) total += s.comm_seconds;
    return total;
  };
  EXPECT_LT(comm(with_cache), comm(plain));
  EXPECT_GT(with_cache.adj_cache_total.hits, 0u);
}

TEST(Behaviour, CacheHitsReduceRemoteGets) {
  const CSRGraph g = rmat_graph(9, 16, 17);
  EngineConfig cached;
  cached.use_cache = true;
  cached.cache_sizing = CacheSizing::paper_default(g.num_vertices(),
                                                   g.csr_bytes());
  const auto plain = run_distributed_lcc(g, 4);
  const auto with_cache = run_distributed_lcc(g, 4, cached);
  EXPECT_LT(with_cache.run.total().remote_gets,
            plain.run.total().remote_gets);
}

TEST(Behaviour, TrackedRemoteReadsSumToRemoteEdges) {
  const CSRGraph g = rmat_graph(8, 8, 18);
  EngineConfig cfg;
  cfg.track_remote_reads = true;
  const auto r = run_distributed_lcc(g, 4, cfg);
  std::uint64_t sum = 0;
  for (auto c : r.remote_reads) sum += c;
  EXPECT_EQ(sum, r.remote_edges);
  EXPECT_GT(sum, 0u);
}

TEST(Behaviour, DoubleBufferNeverSlower) {
  const CSRGraph g = rmat_graph(9, 16, 19);
  EngineConfig over, none;  // over: the default depth 2
  none.pipeline_depth = 1;
  const double t_over = run_distributed_lcc(g, 4, over).run.makespan;
  const double t_none = run_distributed_lcc(g, 4, none).run.makespan;
  EXPECT_LE(t_over, t_none + 1e-12);
}

TEST(Behaviour, DeterministicVirtualTime) {
  const CSRGraph g = rmat_graph(8, 8, 20);
  const double a = run_distributed_lcc(g, 4).run.makespan;
  const double b = run_distributed_lcc(g, 4).run.makespan;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Behaviour, CacheSizingPaperRule) {
  const auto s = CacheSizing::paper_default(1000, 1 << 20);
  // 0.4*|V| (start,end) entries of 16 B each.
  EXPECT_EQ(s.offsets_bytes, 400u * 16u);
  EXPECT_EQ(s.adj_bytes, (1u << 20) - 400u * 16u);
  // Budget smaller than the offsets demand: split the budget instead.
  const auto tight = CacheSizing::paper_default(1u << 20, 1 << 10);
  EXPECT_LE(tight.offsets_bytes + tight.adj_bytes, (1u << 10) + 1024u);
}

}  // namespace
}  // namespace atlc::core
