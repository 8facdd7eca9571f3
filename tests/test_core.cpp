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
#include "atlc/graph/degree_stats.hpp"
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
    std::vector<VertexId> buffer;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto got = fetcher.finish(fetcher.begin(v, 0, buffer));
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
    std::vector<VertexId> buffer;
    // Pass 1 misses and admits every remote row; pass 2 hits them.
    for (int pass = 0; pass < 2; ++pass) {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto owner = part.owner(v);
        const auto got = fetcher.finish(fetcher.begin(v, 0, buffer));
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

TEST(AdjacencyFetcher, CacheTablesKeepTheSizesTheyAreBuiltWith) {
  // Nothing resizes a CLaMPI hash table at run time, so the slot count the
  // fetcher derives is the one a whole run keeps. C_adj: the paper's
  // n * f^2 power-law estimate (Section III-B1), floored at 4x the entries
  // its buffer holds at this rank's mean row size. C_offsets has no hash
  // table: its FixedCache holds one 16-byte (start,end) pair per 16 bytes
  // of its budget.
  const CSRGraph g = rmat_graph(8, 8, 1);
  constexpr std::uint32_t kRanks = 4;
  const graph::Partition part(graph::PartitionKind::Block1D, g.num_vertices(),
                              kRanks);
  for (const std::uint64_t budget : {g.csr_bytes() / 8, g.csr_bytes() / 2}) {
    for (const auto policy : {clampi::VictimPolicy::LruPositional,
                              clampi::VictimPolicy::UserScore}) {
      EngineConfig cfg;
      cfg.use_cache = true;
      cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), budget);
      cfg.victim_policy = policy;
      rma::Runtime::Options o;
      o.ranks = kRanks;
      rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
        const DistGraph dg = build_dist_graph(ctx, g, part);
        AdjacencyFetcher fetcher(ctx, dg, cfg);
        const double adj_bytes =
            static_cast<double>(dg.adjacencies.size()) * sizeof(VertexId);
        const double f = static_cast<double>(cfg.cache_sizing.adj_bytes) /
                         (adj_bytes * kRanks);
        const double mean_row_bytes =
            std::max(8.0, adj_bytes / static_cast<double>(dg.num_local()));
        const auto capacity = static_cast<std::size_t>(
            static_cast<double>(cfg.cache_sizing.adj_bytes) / mean_row_bytes);
        const clampi::CacheConfig& adj = fetcher.adj_cache().config();
        EXPECT_EQ(adj.hash_slots,
                  std::max(clampi::Cache::suggest_hash_slots_power_law(
                               g.num_vertices(), f),
                           4 * std::max<std::size_t>(16, capacity)));
        EXPECT_EQ(adj.policy, policy);
        EXPECT_EQ(fetcher.offsets_cache().capacity(),
                  cfg.cache_sizing.offsets_bytes / 16);
        ctx.barrier();  // windows expose dg's vectors; free collectively
      });
    }
  }
}

TEST(AdjacencyFetcher, OffsetsCacheRefusesEveryEntrySizeButOnePair) {
  // Every C_offsets entry is one 16-byte (start,end) pair. An insert of any
  // other size is a caller error: it counts an insert failure and leaves
  // the residents, every other counter and the miss log as they were.
  const CSRGraph g = rmat_graph(7, 8, 2);
  const graph::Partition part(graph::PartitionKind::Block1D, g.num_vertices(),
                              2);
  EngineConfig cfg;
  cfg.use_cache = true;
  cfg.cache_sizing = {.offsets_bytes = 16 * 8, .adj_bytes = 0};
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    const DistGraph dg = build_dist_graph(ctx, g, part);
    AdjacencyFetcher fetcher(ctx, dg, cfg);
    std::vector<VertexId> buffer;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      (void)fetcher.finish(fetcher.begin(v, 0, buffer));
    clampi::FixedCache& cache = fetcher.offsets_cache();
    ASSERT_EQ(cache.num_entries(), 8u);  // full: evictions happened
    ASSERT_GT(cache.stats().evictions_space, 0u);
    const clampi::CacheStats before = cache.stats();
    const auto entries_before = cache.entries();
    const std::uint32_t peer = 1 - ctx.rank();
    const clampi::Key resident = entries_before.back().key;  // next victim
    const clampi::Key fresh{peer, part.part_size(peer) + 5};  // never seen
    for (const std::uint64_t bytes : {0, 8, 15, 17, 24, 32})
      for (const clampi::Key k : {resident, fresh})
        EXPECT_FALSE(cache.insert(k, bytes)) << bytes << " bytes";
    clampi::CacheStats want = before;
    want.insert_failures += 12;
    EXPECT_EQ(cache.stats(), want);
    const auto entries_after = cache.entries();
    ASSERT_EQ(entries_after.size(), entries_before.size());
    for (std::size_t i = 0; i < entries_after.size(); ++i) {
      EXPECT_EQ(entries_after[i].key, entries_before[i].key) << i;
      EXPECT_EQ(entries_after[i].last_tick, entries_before[i].last_tick) << i;
    }
    // The refused key's miss is still compulsory (the log is unchanged) and
    // the resident still hits.
    EXPECT_FALSE(cache.lookup(fresh, 16));
    EXPECT_EQ(cache.stats().compulsory_misses, before.compulsory_misses + 1);
    EXPECT_TRUE(cache.lookup(resident, 16));
    ctx.barrier();  // windows expose dg's vectors; free collectively
  });
}

TEST(AdjacencyFetcher, WindowIsCachedIffCachingIsOnAndItsBudgetIsNonZero) {
  // No per-window switch: a zero CacheSizing budget leaves that window
  // uncached (paper Fig. 7 caches one window at a time this way).
  const CSRGraph g = rmat_graph(7, 8, 1);
  const graph::Partition part(graph::PartitionKind::Block1D, g.num_vertices(),
                              2);
  constexpr std::uint64_t kBudgets[] = {0, 4096};
  for (const bool use_cache : {false, true}) {
    for (const std::uint64_t offsets_bytes : kBudgets) {
      for (const std::uint64_t adj_bytes : kBudgets) {
        EngineConfig cfg;
        cfg.use_cache = use_cache;
        cfg.cache_sizing = {.offsets_bytes = offsets_bytes,
                            .adj_bytes = adj_bytes};
        rma::Runtime::Options o;
        o.ranks = 2;
        rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
          const DistGraph dg = build_dist_graph(ctx, g, part);
          const AdjacencyFetcher fetcher(ctx, dg, cfg);
          EXPECT_EQ(fetcher.has_offsets_cache(),
                    use_cache && offsets_bytes > 0);
          EXPECT_EQ(fetcher.has_adj_cache(), use_cache && adj_bytes > 0);
          ctx.barrier();  // windows expose dg's vectors; free collectively
        });
      }
    }
  }
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
    EXPECT_EQ(run_distributed_tc_result(g, 4).global_triangles,
              ref.global_triangles)
        << seed;
  }
}

TEST(Tc, DirectedTransitiveTriads) {
  const CSRGraph g = rmat_graph(7, 8, 14, Directedness::Directed);
  const auto ref = graph::reference_lcc(g);
  EXPECT_EQ(run_distributed_tc_result(g, 3).global_triangles,
            ref.global_triangles);
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

TEST(Behaviour, RemoteReadsSumToRemoteEdges) {
  const CSRGraph g = rmat_graph(8, 8, 18);
  obs::TraceCollector trace;
  EngineConfig cfg;
  cfg.trace = &trace;
  const auto r = run_distributed_lcc(g, 4, cfg);
  const auto reads = graph::remote_reads(
      g, graph::Partition(graph::PartitionKind::Block1D, g.num_vertices(), 4));
  EXPECT_EQ(reads, testsupport::traced_remote_reads(trace, g.num_vertices()));
  std::uint64_t sum = 0;
  for (auto c : reads) sum += c;
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
  EXPECT_EQ(tight.offsets_bytes, 512u);
  EXPECT_EQ(tight.offsets_bytes + tight.adj_bytes, 1u << 10);
  // A zero budget leaves both windows uncached.
  const auto none = CacheSizing::paper_default(1000, 0);
  EXPECT_EQ(none.offsets_bytes, 0u);
  EXPECT_EQ(none.adj_bytes, 0u);
}

}  // namespace
}  // namespace atlc::core
