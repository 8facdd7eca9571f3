// Cross-module integration property sweeps: every engine (async cached /
// uncached, TriC plain / buffered) must agree with the single-node
// reference on every graph family, rank count, and partitioning — and the
// accounting invariants (edges, remote reads, cache stats, virtual time)
// must hold structurally.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "atlc/core/lcc.hpp"
#include "atlc/core/similarity.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/degree_stats.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/stream/stream_engine.hpp"
#include "atlc/tric/tric.hpp"
#include "test_support.hpp"

namespace atlc {
namespace {

using graph::CSRGraph;
using graph::Directedness;
using graph::EdgeList;

enum class Family { Rmat, RmatDense, Uniform, Circles, RmatDirected };

struct Case {
  Family family;
  std::uint32_t ranks;
  bool cache;
  graph::PartitionKind partition;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  std::string s;
  switch (c.family) {
    case Family::Rmat: s = "Rmat"; break;
    case Family::RmatDense: s = "RmatDense"; break;
    case Family::Uniform: s = "Uniform"; break;
    case Family::Circles: s = "Circles"; break;
    case Family::RmatDirected: s = "RmatDirected"; break;
  }
  s += "_p" + std::to_string(c.ranks);
  s += c.cache ? "_cached" : "_plain";
  s += c.partition == graph::PartitionKind::Block1D ? "_block" : "_cyclic";
  return s;
}

const CSRGraph& graph_for(Family family) {
  static std::map<Family, CSRGraph> cache;
  auto it = cache.find(family);
  if (it != cache.end()) return it->second;
  EdgeList e;
  switch (family) {
    case Family::Rmat:
      e = graph::generate_rmat({.scale = 9, .edge_factor = 8, .seed = 71});
      break;
    case Family::RmatDense:
      e = graph::generate_rmat({.scale = 8, .edge_factor = 24, .seed = 72});
      break;
    case Family::Uniform:
      e = graph::generate_uniform(
          {.num_vertices = 512, .num_edges = 4096, .seed = 73});
      break;
    case Family::Circles:
      e = graph::generate_circles({.num_vertices = 512, .seed = 74});
      break;
    case Family::RmatDirected:
      e = graph::generate_rmat({.scale = 8, .edge_factor = 8, .seed = 75,
                                .directedness = Directedness::Directed});
      break;
  }
  graph::clean(e);
  return cache.emplace(family, CSRGraph::from_edges(e)).first->second;
}

class EngineMatrix : public ::testing::TestWithParam<Case> {};

TEST_P(EngineMatrix, MatchesReference) {
  const auto& c = GetParam();
  const CSRGraph& g = graph_for(c.family);
  core::EngineConfig cfg;
  cfg.use_cache = c.cache;
  if (c.cache) {
    cfg.victim_policy = clampi::VictimPolicy::UserScore;
    cfg.cache_sizing =
        core::CacheSizing::paper_default(g.num_vertices(), g.csr_bytes() / 3);
  }
  const auto result =
      core::run_distributed_lcc(g, c.ranks, cfg, {}, c.partition);
  const auto ref = graph::reference_lcc(g);
  ASSERT_EQ(result.triangles, ref.triangles);
  EXPECT_EQ(result.global_triangles, ref.global_triangles);
  for (std::size_t v = 0; v < ref.lcc.size(); ++v)
    ASSERT_DOUBLE_EQ(result.lcc[v], ref.lcc[v]) << "vertex " << v;
}

TEST_P(EngineMatrix, AccountingInvariants) {
  const auto& c = GetParam();
  const CSRGraph& g = graph_for(c.family);
  obs::TraceCollector trace;
  core::EngineConfig cfg;
  cfg.use_cache = c.cache;
  cfg.trace = &trace;
  if (c.cache)
    cfg.cache_sizing =
        core::CacheSizing::paper_default(g.num_vertices(), g.csr_bytes() / 3);
  const auto r = core::run_distributed_lcc(g, c.ranks, cfg, {}, c.partition);

  // Every edge is processed exactly once across ranks.
  EXPECT_EQ(r.edges_processed, g.num_edges());
  // Remote + local fetches partition the edge set.
  EXPECT_LE(r.remote_edges, r.edges_processed);
  // The remote reads the trace saw are the ones the partition implies, and
  // they sum to the remote edge count.
  const auto traced = testsupport::traced_remote_reads(trace, g.num_vertices());
  std::uint64_t reads = 0;
  for (auto x : traced) reads += x;
  EXPECT_EQ(reads, r.remote_edges);
  const graph::Partition part(c.partition, g.num_vertices(), c.ranks);
  EXPECT_EQ(traced, graph::remote_reads(g, part));
  // A vertex is never remotely read by its own partition.
  if (c.ranks == 1) EXPECT_EQ(reads, 0u) << "remote read with a single rank";
  // Virtual clocks: makespan is the max, and nonnegative components.
  double mx = 0;
  for (double clk : r.run.clocks) mx = std::max(mx, clk);
  EXPECT_DOUBLE_EQ(r.run.makespan, mx);
  for (const auto& s : r.run.stats) {
    EXPECT_GE(s.comm_seconds, 0.0);
    EXPECT_GE(s.compute_seconds, 0.0);
  }
  if (c.cache) {
    const auto& cs = r.adj_cache_total;
    EXPECT_EQ(cs.hits + cs.misses, cs.accesses());
    EXPECT_LE(cs.compulsory_misses + cs.capacity_misses + cs.conflict_misses +
                  cs.flush_misses,
              cs.misses);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineMatrix,
    ::testing::Values(
        Case{Family::Rmat, 1, false, graph::PartitionKind::Block1D},
        Case{Family::Rmat, 2, false, graph::PartitionKind::Block1D},
        Case{Family::Rmat, 5, false, graph::PartitionKind::Block1D},
        Case{Family::Rmat, 16, false, graph::PartitionKind::Block1D},
        Case{Family::Rmat, 16, true, graph::PartitionKind::Block1D},
        Case{Family::Rmat, 4, true, graph::PartitionKind::Cyclic1D},
        Case{Family::RmatDense, 4, false, graph::PartitionKind::Block1D},
        Case{Family::RmatDense, 4, true, graph::PartitionKind::Block1D},
        Case{Family::RmatDense, 7, true, graph::PartitionKind::Cyclic1D},
        Case{Family::Uniform, 4, false, graph::PartitionKind::Block1D},
        Case{Family::Uniform, 8, true, graph::PartitionKind::Block1D},
        Case{Family::Circles, 3, false, graph::PartitionKind::Cyclic1D},
        Case{Family::Circles, 8, true, graph::PartitionKind::Block1D},
        Case{Family::RmatDirected, 4, false, graph::PartitionKind::Block1D},
        Case{Family::RmatDirected, 6, true, graph::PartitionKind::Block1D}),
    case_name);

// ------------------------------------------------- TriC vs async engines ---

class TricMatrix : public ::testing::TestWithParam<std::tuple<Family, int>> {};

TEST_P(TricMatrix, TricAgreesWithAsyncEngine) {
  const auto [family, ranks] = GetParam();
  if (family == Family::RmatDirected) GTEST_SKIP() << "TriC is undirected";
  const CSRGraph& g = graph_for(family);
  const auto async = core::run_distributed_lcc(
      g, static_cast<std::uint32_t>(ranks));
  const auto tric =
      tric::run_tric(g, static_cast<std::uint32_t>(ranks));
  EXPECT_EQ(tric.global_triangles, async.global_triangles);
  for (std::size_t v = 0; v < async.triangles.size(); ++v) {
    ASSERT_EQ(2 * tric.per_vertex[v], async.triangles[v]) << "vertex " << v;
    ASSERT_DOUBLE_EQ(tric.lcc[v], async.lcc[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TricMatrix,
    ::testing::Combine(::testing::Values(Family::Rmat, Family::Uniform,
                                         Family::Circles),
                       ::testing::Values(1, 3, 8)));

// ------------------------------------------------------ determinism sweep ---

TEST(Determinism, VirtualTimeStableAcrossRepeatsAndModes) {
  const CSRGraph& g = graph_for(Family::Rmat);
  for (const bool cache : {false, true}) {
    core::EngineConfig cfg;
    cfg.use_cache = cache;
    const auto a = core::run_distributed_lcc(g, 6, cfg);
    const auto b = core::run_distributed_lcc(g, 6, cfg);
    EXPECT_DOUBLE_EQ(a.run.makespan, b.run.makespan) << "cache=" << cache;
    EXPECT_EQ(a.run.total().remote_gets, b.run.total().remote_gets);
    EXPECT_EQ(a.adj_cache_total.hits, b.adj_cache_total.hits);
  }
}

TEST(Determinism, ResultsIndependentOfRankCount) {
  const CSRGraph& g = graph_for(Family::Circles);
  const auto r1 = core::run_distributed_lcc(g, 1);
  for (std::uint32_t p : {2u, 3u, 7u, 12u}) {
    const auto rp = core::run_distributed_lcc(g, p);
    ASSERT_EQ(rp.triangles, r1.triangles) << "p=" << p;
  }
}

TEST(Determinism, LccIndependentOfRankCountCyclic) {
  // The Block1D sweep above has a Cyclic1D twin: per-vertex results must
  // be invariant to BOTH the rank count and the partitioning scheme.
  const CSRGraph& g = graph_for(Family::Circles);
  const auto ref = core::run_distributed_lcc(g, 1);
  for (std::uint32_t p : {1u, 2u, 4u, 8u}) {
    const auto rp = core::run_distributed_lcc(g, p, {}, {},
                                              graph::PartitionKind::Cyclic1D);
    ASSERT_EQ(rp.triangles, ref.triangles) << "p=" << p;
    EXPECT_EQ(rp.global_triangles, ref.global_triangles) << "p=" << p;
    for (std::size_t v = 0; v < ref.lcc.size(); ++v)
      ASSERT_DOUBLE_EQ(rp.lcc[v], ref.lcc[v]) << "p=" << p << " v=" << v;
  }
}

TEST(Determinism, TcIndependentOfPartitionKind) {
  const CSRGraph& g = graph_for(Family::Rmat);
  const auto expected = graph::reference_lcc(g).global_triangles;
  for (std::uint32_t p : {1u, 2u, 4u, 8u}) {
    for (const auto kind :
         {graph::PartitionKind::Block1D, graph::PartitionKind::Cyclic1D}) {
      EXPECT_EQ(
          core::run_distributed_tc_result(g, p, {}, {}, kind).global_triangles,
          expected)
          << "p=" << p
          << (kind == graph::PartitionKind::Cyclic1D ? " cyclic" : " block");
    }
  }
}

TEST(Determinism, SimilarityAnalyticsIndependentOfPartitionKind) {
  // Jaccard / overlap / Adamic–Adar report per-adjacency-slot scores whose
  // layout is partition-independent; the Cyclic1D runs must reproduce the
  // single-rank scores bit-for-bit like the Block1D runs do.
  const CSRGraph& g = graph_for(Family::RmatDense);
  const auto jac1 = core::run_distributed_jaccard(g, 1);
  const auto ovl1 = core::run_distributed_overlap(g, 1);
  const auto aa1 = core::run_distributed_adamic_adar(g, 1);
  for (std::uint32_t p : {2u, 4u, 8u}) {
    const auto kind = graph::PartitionKind::Cyclic1D;
    const auto jac = core::run_distributed_jaccard(g, p, {}, {}, kind);
    const auto ovl = core::run_distributed_overlap(g, p, {}, {}, kind);
    const auto aa = core::run_distributed_adamic_adar(g, p, {}, {}, kind);
    ASSERT_EQ(jac.score.size(), jac1.score.size());
    for (std::size_t k = 0; k < jac1.score.size(); ++k) {
      ASSERT_DOUBLE_EQ(jac.score[k], jac1.score[k])
          << "jaccard p=" << p << " slot=" << k;
      ASSERT_DOUBLE_EQ(ovl.score[k], ovl1.score[k])
          << "overlap p=" << p << " slot=" << k;
      ASSERT_DOUBLE_EQ(aa.score[k], aa1.score[k])
          << "adamic-adar p=" << p << " slot=" << k;
    }
  }
}

TEST(Determinism, StreamingIndependentOfPartitionKind) {
  // The dynamic engine joins the same invariant: identical final state for
  // every (ranks, partition) combination.
  const CSRGraph& g = graph_for(Family::Rmat);
  stream::WorkloadConfig wl;
  wl.num_batches = 2;
  wl.batch_size = 64;
  wl.seed = 5;
  const auto batches = stream::generate_batches(g, wl);
  const auto base = stream::run_streaming_lcc(g, batches, 1, {});
  for (std::uint32_t p : {2u, 4u, 8u}) {
    for (const auto kind :
         {graph::PartitionKind::Block1D, graph::PartitionKind::Cyclic1D}) {
      stream::StreamOptions opts;
      opts.partition = kind;
      const auto r = stream::run_streaming_lcc(g, batches, p, opts);
      ASSERT_EQ(r.triangles, base.triangles) << "p=" << p;
      EXPECT_EQ(r.global_triangles, base.global_triangles) << "p=" << p;
    }
  }
}

// --------------------------------------------------- behaviour vs metrics ---

TEST(Scaling, MakespanDecreasesWithRanksOnLargeGraph) {
  // Strong scaling must hold in the simulator for a comm-bound run.
  auto e = graph::generate_rmat({.scale = 11, .edge_factor = 16, .seed = 99});
  graph::clean(e);
  const auto g = CSRGraph::from_edges(e);
  const double t4 = core::run_distributed_lcc(g, 4).run.makespan;
  const double t16 = core::run_distributed_lcc(g, 16).run.makespan;
  const double t64 = core::run_distributed_lcc(g, 64).run.makespan;
  EXPECT_LT(t16, t4);
  EXPECT_LT(t64, t16);
}

TEST(Scaling, UniformGraphBalancesBetterThanSkewed) {
  // 1D block partitioning imbalance (paper Sec. IV-D2 blames it for
  // Orkut's weaker scaling): max/mean rank time is higher for R-MAT.
  auto imbalance = [](const CSRGraph& g) {
    const auto r = core::run_distributed_lcc(g, 8);
    double mx = 0, sum = 0;
    for (double c : r.run.clocks) {
      mx = std::max(mx, c);
      sum += c;
    }
    return mx / (sum / static_cast<double>(r.run.clocks.size()));
  };
  EXPECT_GT(imbalance(graph_for(Family::Rmat)),
            imbalance(graph_for(Family::Uniform)) - 0.05);
}

TEST(CacheBehaviour, HitRateGrowsWithBudget) {
  const CSRGraph& g = graph_for(Family::RmatDense);
  double prev_hit = -1.0;
  for (const double frac : {0.05, 0.25, 1.0}) {
    core::EngineConfig cfg;
    cfg.use_cache = true;
    cfg.cache_sizing = core::CacheSizing::paper_default(
        g.num_vertices(),
        static_cast<std::uint64_t>(frac * static_cast<double>(g.csr_bytes())));
    const auto r = core::run_distributed_lcc(g, 4, cfg);
    const double hit = r.adj_cache_total.hit_rate();
    EXPECT_GE(hit, prev_hit - 1e-9) << "frac=" << frac;
    prev_hit = hit;
  }
  EXPECT_GT(prev_hit, 0.5);  // ample cache serves most re-accesses
}

TEST(CacheBehaviour, CompulsoryMissesInvariantToPolicy) {
  // Compulsory misses are a property of the access stream, not the policy.
  const CSRGraph& g = graph_for(Family::Rmat);
  std::uint64_t compulsory[2];
  int i = 0;
  for (auto policy : {clampi::VictimPolicy::LruPositional,
                      clampi::VictimPolicy::UserScore}) {
    core::EngineConfig cfg;
    cfg.use_cache = true;
    cfg.victim_policy = policy;
    cfg.cache_sizing =
        core::CacheSizing::paper_default(g.num_vertices(), g.csr_bytes() / 8);
    compulsory[i++] =
        core::run_distributed_lcc(g, 4, cfg).adj_cache_total.compulsory_misses;
  }
  EXPECT_EQ(compulsory[0], compulsory[1]);
}

TEST(CacheBehaviour, UpperBoundIsOneMinusCompulsory) {
  const CSRGraph& g = graph_for(Family::RmatDense);
  core::EngineConfig cfg;
  cfg.use_cache = true;
  cfg.cache_sizing = core::CacheSizing::paper_default(
      g.num_vertices(), 4 * g.csr_bytes());  // effectively infinite
  const auto r = core::run_distributed_lcc(g, 4, cfg);
  const auto& cs = r.adj_cache_total;
  // With an infinite cache, every non-compulsory access hits.
  EXPECT_EQ(cs.hits, cs.accesses() - cs.compulsory_misses);
  EXPECT_EQ(cs.evictions_space + cs.evictions_conflict, 0u);
}

}  // namespace
}  // namespace atlc
