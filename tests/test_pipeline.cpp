// Tests for the generic depth-k edge-pipeline engine (core::EdgePipeline):
// correctness at every depth, equivalence with the pre-refactor
// double-buffer loop in virtual time, the fetcher's caller-owned buffers,
// the item ring's transfers in flight, the row ring's one v-side fetch per
// 2D row, and the similarity analytics built as kernels on the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "atlc/core/edge_pipeline.hpp"
#include "atlc/core/fetcher.hpp"
#include "atlc/core/lcc.hpp"
#include "atlc/core/similarity.hpp"
#include "atlc/graph/degree_stats.hpp"
#include "atlc/graph/hub_replica.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/obs/trace.hpp"
#include "atlc/serve/query_engine.hpp"
#include "atlc/serve/workload.hpp"
#include "atlc/stream/stream_engine.hpp"
#include "atlc/util/recorder.hpp"
#include "test_support.hpp"

namespace atlc::core {
namespace {

using graph::CSRGraph;
using graph::Directedness;
using graph::EdgeList;
using testsupport::expect_matches_reference;
using testsupport::paper_example;
using testsupport::rmat_graph;

EngineConfig depth_config(std::size_t k) {
  EngineConfig cfg;
  cfg.pipeline_depth = k;
  return cfg;
}

/// Directed graph with zero-OUT-degree vertices that other ranks must
/// fetch remotely: the two-get protocol's empty-adjacency path (the fetch
/// resolves after step 1 without a transfer).
CSRGraph directed_with_sinks() {
  EdgeList e(8, {}, Directedness::Directed);
  // 3 and 7 are sinks (out-degree 0, in-degree > 0); triangles 0->1->2->0
  // transitive triads plus fan-in edges onto the sinks.
  for (auto [u, v] : std::initializer_list<std::pair<int, int>>{
           {0, 1}, {1, 2}, {0, 2}, {2, 3}, {0, 3}, {1, 3}, {4, 5}, {5, 6},
           {4, 6}, {6, 7}, {4, 7}, {2, 4}, {1, 7}})
    e.add_edge(u, v);
  return CSRGraph::from_edges(e);
}

// ------------------------------------------------------- depth sweep, LCC ---

class PipelineDepth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipelineDepth, LccMatchesReferenceOnPaperExample) {
  const CSRGraph g = paper_example();
  expect_matches_reference(
      g, run_distributed_lcc(g, 3, depth_config(GetParam())));
}

TEST_P(PipelineDepth, LccMatchesReferenceOnRmat) {
  const CSRGraph g = rmat_graph(9, 8, 31);
  expect_matches_reference(
      g, run_distributed_lcc(g, 4, depth_config(GetParam())));
}

TEST_P(PipelineDepth, LccMatchesReferenceOnDirectedRmat) {
  const CSRGraph g = rmat_graph(8, 8, 32, Directedness::Directed);
  expect_matches_reference(
      g, run_distributed_lcc(g, 4, depth_config(GetParam())));
}

TEST_P(PipelineDepth, LccMatchesReferenceSingleRank) {
  const CSRGraph g = rmat_graph(8, 8, 33);
  expect_matches_reference(
      g, run_distributed_lcc(g, 1, depth_config(GetParam())));
}

TEST_P(PipelineDepth, LccMatchesReferenceWithCaching) {
  const CSRGraph g = rmat_graph(9, 8, 34);
  EngineConfig cfg = depth_config(GetParam());
  cfg.use_cache = true;
  cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 19);
  expect_matches_reference(g, run_distributed_lcc(g, 4, cfg));
}

TEST_P(PipelineDepth, ZeroOutDegreeVerticesFetchedRemotely) {
  const CSRGraph g = directed_with_sinks();
  // 4 ranks over 8 vertices: the sinks (3, 7) are remote to most ranks.
  expect_matches_reference(
      g, run_distributed_lcc(g, 4, depth_config(GetParam())));
}

TEST_P(PipelineDepth, TcGlobalCountMatches) {
  const CSRGraph g = rmat_graph(8, 8, 35);
  const auto ref = graph::reference_lcc(g);
  EXPECT_EQ(run_distributed_tc_result(g, 4, depth_config(GetParam()))
                .global_triangles,
            ref.global_triangles);
}

TEST_P(PipelineDepth, JaccardMatchesReference) {
  const CSRGraph g = rmat_graph(8, 8, 36);
  const auto ref = reference_jaccard(g);
  const auto r = run_distributed_jaccard(g, 4, depth_config(GetParam()));
  ASSERT_EQ(r.score.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

INSTANTIATE_TEST_SUITE_P(Depths, PipelineDepth,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8}));

// --------------------------------------- virtual-time depth-2 equivalence ---

/// The pre-refactor Algorithm 3 loop, verbatim: a two-slot double buffer
/// driven directly against the fetcher (finish e_i; begin e_{i+1};
/// intersect e_i), or with `overlap` off the synchronous loop (begin e_i;
/// finish e_i; intersect e_i). The EdgePipeline at depth 2 (depth 1) must
/// issue the identical begin/finish/charge sequence, hence bit-identical
/// virtual makespans.
double legacy_makespan(const CSRGraph& g, std::uint32_t ranks,
                       const EngineConfig& config, bool overlap = true) {
  const graph::Partition partition(graph::PartitionKind::Block1D,
                                   g.num_vertices(), ranks);
  rma::Runtime::Options opts;
  opts.ranks = ranks;
  const auto run = rma::Runtime::run(opts, [&](rma::RankCtx& ctx) {
    const DistGraph dg = build_dist_graph(ctx, g, partition);
    AdjacencyFetcher fetcher(ctx, dg, config);
    const EdgeIndex m_local = dg.adjacencies.size();

    std::vector<VertexId> buffers[2];  // edge ei lands in buffers[ei % 2]
    AdjacencyFetcher::Token current;
    bool have_current = false;
    if (overlap && m_local > 0) {
      current = fetcher.begin(dg.adjacencies[0], 0, buffers[0]);
      have_current = true;
    }
    VertexId lv = 0;
    std::uint64_t sink = 0;
    for (EdgeIndex ei = 0; ei < m_local; ++ei) {
      while (dg.offsets[lv + 1] <= ei) ++lv;
      if (!have_current)
        current = fetcher.begin(dg.adjacencies[ei], 0, buffers[ei % 2]);
      const auto adj_j = fetcher.finish(current);
      have_current = false;
      if (overlap && ei + 1 < m_local) {
        current = fetcher.begin(dg.adjacencies[ei + 1], 0,
                                buffers[(ei + 1) % 2]);
        have_current = true;
      }
      const auto adj_v = dg.local_neighbors(lv);
      sink += intersect::count_common(adj_v, adj_j, config.method);
      ctx.charge_compute(
          config.cost.seconds(config.method, adj_v.size(), adj_j.size()));
    }
    EXPECT_GT(sink + 1, 0u);  // keep the loop observable
    ctx.barrier();
  });
  return run.makespan;
}

TEST(PipelineEquivalence, Depth2MakespanBitIdenticalToLegacyDoubleBuffer) {
  const CSRGraph g = rmat_graph(8, 8, 37);
  for (std::uint32_t ranks : {2u, 4u}) {
    EngineConfig cfg;  // pipeline_depth=2: paper engine
    const double engine = run_distributed_lcc(g, ranks, cfg).run.makespan;
    const double legacy = legacy_makespan(g, ranks, cfg);
    EXPECT_EQ(engine, legacy) << "ranks=" << ranks;
  }
}

TEST(PipelineEquivalence, Depth2MakespanBitIdenticalToLegacyCached) {
  const CSRGraph g = rmat_graph(8, 8, 38);
  EngineConfig cfg;
  cfg.use_cache = true;
  cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 18);
  const double engine = run_distributed_lcc(g, 4, cfg).run.makespan;
  const double legacy = legacy_makespan(g, 4, cfg);
  EXPECT_EQ(engine, legacy);
}

TEST(PipelineEquivalence, Depth1MakespanBitIdenticalToSynchronousLoop) {
  // Depth 1 is the no-overlap engine: each transfer completes before its
  // intersection, with nothing in flight underneath.
  const CSRGraph g = rmat_graph(8, 8, 39);
  EngineConfig cached = depth_config(1);
  cached.use_cache = true;
  cached.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 18);
  for (const EngineConfig& cfg : {depth_config(1), cached}) {
    const double t_k1 = run_distributed_lcc(g, 4, cfg).run.makespan;
    EXPECT_EQ(t_k1, legacy_makespan(g, 4, cfg, /*overlap=*/false));
  }
}

TEST(PipelineBehaviour, DeeperPipelineNeverSlower) {
  const CSRGraph g = rmat_graph(9, 16, 40);
  double prev = run_distributed_lcc(g, 4, depth_config(1)).run.makespan;
  for (std::size_t k : {2u, 4u, 8u}) {
    const double t = run_distributed_lcc(g, 4, depth_config(k)).run.makespan;
    EXPECT_LE(t, prev + 1e-12) << "depth " << k;
    prev = t;
  }
}

TEST(PipelineBehaviour, ResultsInvariantAcrossDepths) {
  const CSRGraph g = rmat_graph(9, 8, 41);
  const auto base = run_distributed_lcc(g, 4, depth_config(1));
  for (std::size_t k : {2u, 4u, 8u}) {
    const auto r = run_distributed_lcc(g, 4, depth_config(k));
    ASSERT_EQ(r.triangles, base.triangles) << "depth " << k;
    EXPECT_EQ(r.remote_edges, base.remote_edges) << "depth " << k;
  }
}

// ----------------------------------- one ring: 1D run_segments is run() ---

/// Every kernel call of one pass, per rank, with the spans' contents.
struct KernelCall {
  VertexId lv, j;
  std::vector<VertexId> adj_v, adj_j;
  bool operator==(const KernelCall&) const = default;
};

struct PassRecord {
  std::vector<std::vector<KernelCall>> calls;  ///< per rank, in call order
  double makespan = 0.0;
  std::vector<std::string> comm;  ///< per-rank CommStats as JSON
};

/// One pass over every local edge on `kind`, through run_segments or run,
/// with a kernel that records the call and charges the Paper price.
PassRecord record_pass(const CSRGraph& g, graph::PartitionKind kind,
                       const EngineConfig& cfg, bool segments) {
  constexpr std::uint32_t kRanks = 4;
  const graph::Partition part = graph::make_partition(g, kind, kRanks);
  PassRecord rec;
  rec.calls.resize(kRanks);
  rma::Runtime::Options o;
  o.ranks = kRanks;
  const auto run = rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    const DistGraph dg = build_dist_graph(ctx, g, part);
    EdgePipeline pipeline(ctx, dg, cfg);
    auto& calls = rec.calls[ctx.rank()];
    const auto visit = [&](VertexId lv, VertexId j,
                           std::span<const VertexId> adj_v,
                           std::span<const VertexId> adj_j) {
      calls.push_back({lv, j, {adj_v.begin(), adj_v.end()},
                       {adj_j.begin(), adj_j.end()}});
      ctx.charge_compute(
          cfg.cost.seconds(cfg.method, adj_v.size(), adj_j.size()));
    };
    if (segments) {
      pipeline.run_segments([&](VertexId lv, VertexId j, std::uint32_t block,
                                std::span<const VertexId> seg_v,
                                std::span<const VertexId> seg_j) {
        EXPECT_EQ(block, 0u);
        visit(lv, j, seg_v, seg_j);
      });
    } else {
      pipeline.run(visit);
    }
    ctx.barrier();
  });
  rec.makespan = run.makespan;
  for (const auto& s : run.stats) rec.comm.push_back(util::to_json(s).dump());
  return rec;
}

TEST(PipelineEquivalence, RunSegmentsIsRunOnEvery1DPartition) {
  // A 1D partition is the one-column-block case of the segment ring: same
  // kernel calls in the same order, same virtual makespan, same per-rank
  // communication — uncached and cached at a deeper ring.
  const CSRGraph g = rmat_graph(8, 8, 62);
  EngineConfig cached = depth_config(3);
  cached.use_cache = true;
  cached.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 17);
  for (const auto kind : {graph::PartitionKind::Block1D,
                          graph::PartitionKind::Cyclic1D,
                          graph::PartitionKind::DegreeBalanced1D}) {
    for (const EngineConfig& cfg : {EngineConfig{}, cached}) {
      SCOPED_TRACE(graph::partition_kind_name(kind));
      const PassRecord rows = record_pass(g, kind, cfg, false);
      const PassRecord segs = record_pass(g, kind, cfg, true);
      EXPECT_TRUE(rows.calls == segs.calls);
      EXPECT_GT(rows.calls[0].size(), 0u);
      EXPECT_EQ(rows.makespan, segs.makespan);
      EXPECT_EQ(rows.comm, segs.comm);
    }
  }
}

// ------------------------------------ fetcher: buffers are the caller's ---

TEST(AdjacencyFetcher, OnlyTransfersWriteTheCallersBuffer) {
  // A transfer (uncached fetch or C_adj miss) lands in `dest`; local, hub,
  // C_adj-hit and empty rows resolve at begin() and leave `dest` as it was.
  const std::vector<VertexId> before{7, 7, 7};
  const CSRGraph g = rmat_graph(7, 8, 43, Directedness::Directed);
  const graph::Partition part(graph::PartitionKind::Block1D, g.num_vertices(),
                              2);
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cached" : "uncached");
    EngineConfig cfg;
    cfg.use_cache = cached;
    cfg.hub_fraction = 0.05;
    const auto hubs = graph::HubReplica::build(g, cfg.hub_fraction);
    std::atomic<std::uint64_t> transfers{0}, hub_rows{0}, hits{0}, empty{0};
    rma::Runtime::Options o;
    o.ranks = 2;
    rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
      const DistGraph dg = build_dist_graph(ctx, g, part, &hubs);
      AdjacencyFetcher fetcher(ctx, dg, cfg);
      // Pass 1 admits the rows pass 2 hits (cached only).
      for (int pass = 0; pass < 2; ++pass) {
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          const std::uint64_t hits_before =
              cached ? fetcher.adj_cache().stats().hits : 0;
          std::vector<VertexId> dest = before;
          const auto got = fetcher.finish(fetcher.begin(v, 0, dest));
          ASSERT_TRUE(std::ranges::equal(got, g.neighbors(v))) << v;
          const bool local = part.owner(v) == ctx.rank();
          const bool hub = !local && dg.hubs.find(v) != graph::HubReplica::npos;
          const bool hit =
              cached && fetcher.adj_cache().stats().hits > hits_before;
          const bool remote_empty = !local && !hub && got.empty();
          hub_rows += hub;
          hits += hit;
          empty += remote_empty;
          if (local || hub || hit || remote_empty) {
            EXPECT_EQ(dest, before) << "vertex " << v;
          } else {
            EXPECT_EQ(got.data(), dest.data()) << "vertex " << v;
            ++transfers;
          }
        }
      }
      ctx.barrier();  // windows expose dg's vectors; free collectively
    });
    EXPECT_GT(transfers.load(), 0u);
    EXPECT_GT(hub_rows.load(), 0u);
    EXPECT_GT(empty.load(), 0u);
    EXPECT_EQ(hits.load() > 0, cached);
  }
}

// --------------------------------------- item ring: transfers in flight ---

TEST(ItemRing, TransfersInFlightPeakAtTheLookahead) {
  // Block1D, uncached: every transfer is an item's j side, so the fetcher's
  // ring/in_flight counter (begun, unfinished transfers) peaks at the
  // lookahead k-1 (1 at depth 1, whose one transfer is begun and finished
  // per item) and drains to 0 on every rank.
  const CSRGraph g = rmat_graph(8, 8, 65);
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    obs::TraceCollector trace;
    EngineConfig cfg = depth_config(k);
    cfg.trace = &trace;
    expect_matches_reference(g, run_distributed_lcc(g, 4, cfg));
    std::uint64_t peak = 0;
    for (std::uint32_t r = 0; r < trace.ranks(); ++r) {
      std::uint64_t last = 0;
      for (const obs::TraceEvent& e : trace.events(r)) {
        if (e.phase != obs::EventPhase::Counter ||
            std::string_view(e.name) != "ring")
          continue;
        peak = std::max(peak, e.arg0.value);
        last = e.arg0.value;
      }
      EXPECT_EQ(last, 0u) << "depth " << k << " rank " << r;
    }
    EXPECT_EQ(peak, std::max<std::uint64_t>(k - 1, 1)) << "depth " << k;
  }
}

// ------------------------------------------ row ring: v side once per row ---

/// Remote segment fetches one Grid2D pass must make, counted from the
/// partition and the CSR alone (uncached, no hub replica). A rank in
/// column c visits the blocks [first, B): first is 0, or c when
/// `skip_below_own` (upper-triangle TC). For each rank's local row with at
/// least one stored entry, one v-side fetch per visited block other than
/// c; for each stored entry (v, j) and visited block b, one j-side fetch
/// unless the rank holds seg(j, b).
std::uint64_t expected_segment_gets(const CSRGraph& g,
                                    const graph::Partition& part,
                                    bool skip_below_own) {
  const std::uint32_t blocks = part.col_blocks();
  std::uint64_t gets = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (std::uint32_t c = 0; c < blocks; ++c) {
      const auto stored = part.row_segment(g.neighbors(v), c);
      if (stored.empty()) continue;
      const std::uint32_t rank = part.segment_owner(v, c);
      const std::uint32_t first = skip_below_own ? c : 0;
      gets += blocks - first - 1;
      for (const VertexId j : stored)
        for (std::uint32_t b = first; b < blocks; ++b)
          gets += part.segment_owner(j, b) != rank ? 1 : 0;
    }
  }
  return gets;
}

TEST(RowRing, Grid2DFetchesEachRowSegmentOncePerRow) {
  // LCC runs on the even grid and visits every block; upper-triangle TC
  // runs on the trimmed-work grid and visits only the blocks from its own
  // column on, on both the v side and the j side.
  const CSRGraph g = rmat_graph(8, 8, 64);
  const auto ref = graph::reference_lcc(g);
  constexpr auto kGrid = graph::PartitionKind::Grid2D;
  for (const std::uint32_t ranks : {4u, 6u}) {  // 2x2 and 2x3 grids
    const graph::Partition lcc_part = graph::make_partition(g, kGrid, ranks);
    const graph::Partition tc_part =
        graph::make_partition(g, kGrid, ranks, true);
    ASSERT_EQ(lcc_part.grid_rows(), 2u);
    const std::uint64_t lcc_gets = expected_segment_gets(g, lcc_part, false);
    const std::uint64_t tc_gets = expected_segment_gets(g, tc_part, true);
    for (const std::size_t k : {1u, 2u, 4u}) {
      SCOPED_TRACE("ranks " + std::to_string(ranks) + " depth " +
                   std::to_string(k));
      EngineConfig cfg = depth_config(k);  // uncached
      cfg.hub_fraction = 0.0;

      const RunResult lcc = run_distributed_lcc(g, ranks, cfg, {}, kGrid);
      expect_matches_reference(g, lcc);
      EXPECT_EQ(lcc.run.total().segment_gets, lcc_gets);
      EXPECT_EQ(lcc.remote_edges, lcc_gets);

      const RunResult tc = run_distributed_tc_result(g, ranks, cfg, {}, kGrid);
      EXPECT_EQ(tc.global_triangles, ref.global_triangles);
      EXPECT_EQ(tc.run.total().segment_gets, tc_gets);
      EXPECT_EQ(tc.remote_edges, tc_gets);
      EXPECT_EQ(tc.edges_processed, g.num_edges());
    }
  }
}

TEST(SegmentItems, FirstBlockSkipsTheBlocksBelowIt) {
  // A recording kernel on the upper-triangle TC grid, started at the
  // rank's own column as count_rank starts it, never sees a block below
  // grid_col(rank); started at 0, as LCC starts it, it sees every block.
  // Either way each local edge's items are its visited blocks in order,
  // with the segments of the global rows, and the edge counts once.
  const CSRGraph g = rmat_graph(8, 8, 66);
  const EngineConfig cfg = depth_config(3);
  for (const std::uint32_t ranks : {4u, 6u}) {
    const graph::Partition part =
        graph::make_partition(g, graph::PartitionKind::Grid2D, ranks, true);
    for (const bool tc : {true, false}) {
      SCOPED_TRACE(std::string(tc ? "tc" : "lcc") + " ranks " +
                   std::to_string(ranks));
      std::vector<std::uint64_t> edges(ranks, 0);
      std::atomic<std::uint64_t> wrong{0}, calls{0};
      rma::Runtime::Options o;
      o.ranks = ranks;
      rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
        const DistGraph dg = build_dist_graph(ctx, g, part);
        EdgePipeline pipeline(ctx, dg, cfg);
        const std::uint32_t first = tc ? part.grid_col(ctx.rank()) : 0;
        // The (edge, block) items the rank must see, in order.
        std::vector<std::pair<VertexId, std::uint32_t>> want, got;
        for (VertexId lv = 0; lv < dg.num_local(); ++lv)
          for (const VertexId j : dg.local_neighbors(lv))
            for (std::uint32_t b = first; b < part.col_blocks(); ++b)
              want.emplace_back(j, b);
        pipeline.run_segments(
            [&](VertexId lv, VertexId j, std::uint32_t b,
                std::span<const VertexId> seg_v,
                std::span<const VertexId> seg_j) {
              got.emplace_back(j, b);
              const VertexId v = part.global_id(ctx.rank(), lv);
              wrong += !std::ranges::equal(
                  seg_v, part.row_segment(g.neighbors(v), b));
              wrong += !std::ranges::equal(
                  seg_j, part.row_segment(g.neighbors(j), b));
              ++calls;
            },
            first);
        wrong += got != want;
        edges[ctx.rank()] = pipeline.harvest().edges_processed;
        EXPECT_EQ(edges[ctx.rank()], dg.adjacencies.size());
        ctx.barrier();
      });
      EXPECT_EQ(wrong.load(), 0u);
      EXPECT_GT(calls.load(), 0u);
      std::uint64_t total = 0;
      for (const std::uint64_t e : edges) total += e;
      EXPECT_EQ(total, g.num_edges());
    }
  }
}

// ------------------------------------------------- similarity analytics ---

TEST(Overlap, CompleteGraphClosedForm) {
  // K_6: |adj(u) ∩ adj(v)| = 4, min degree = 5 => O = 0.8 on every edge.
  const auto g = CSRGraph::from_edges(testsupport::complete_edges(6));
  const auto r = run_distributed_overlap(g, 3);
  ASSERT_EQ(r.score.size(), g.num_edges());
  for (double s : r.score) EXPECT_DOUBLE_EQ(s, 0.8);
}

TEST(AdamicAdar, CompleteGraphClosedForm) {
  // K_6: 4 common neighbors, each of degree 5 => AA = 4 / ln(5).
  const auto g = CSRGraph::from_edges(testsupport::complete_edges(6));
  const auto r = run_distributed_adamic_adar(g, 3);
  for (double s : r.score) EXPECT_DOUBLE_EQ(s, 4.0 / std::log(5.0));
}

class SimilarityRanks : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SimilarityRanks, OverlapMatchesReference) {
  const CSRGraph g = rmat_graph(8, 8, 44);
  const auto ref = reference_overlap(g);
  const auto r = run_distributed_overlap(g, GetParam());
  ASSERT_EQ(r.score.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

TEST_P(SimilarityRanks, AdamicAdarMatchesReference) {
  const CSRGraph g = rmat_graph(8, 8, 45);
  const auto ref = reference_adamic_adar(g);
  const auto r = run_distributed_adamic_adar(g, GetParam());
  ASSERT_EQ(r.score.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

TEST_P(SimilarityRanks, AdamicAdarMatchesReferenceCachedAndDeep) {
  const CSRGraph g = rmat_graph(8, 8, 46);
  const auto ref = reference_adamic_adar(g);
  EngineConfig cfg = depth_config(4);
  cfg.use_cache = true;
  cfg.victim_policy = clampi::VictimPolicy::UserScore;
  cfg.cache_sizing =
      CacheSizing::paper_default(g.num_vertices(), g.csr_bytes() / 4);
  const auto r = run_distributed_adamic_adar(g, GetParam(), cfg);
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

TEST_P(SimilarityRanks, MeasuresHonourTieredIntersection) {
  // The measures price through the rank's Intersector, so Tier::Tiered
  // changes their charged compute — never their scores.
  const CSRGraph g = rmat_graph(8, 8, 63);
  EngineConfig tiered;
  tiered.intersect_tier = intersect::Tier::Tiered;
  const auto jac = run_distributed_jaccard(g, GetParam(), tiered);
  const auto ovl = run_distributed_overlap(g, GetParam(), tiered);
  const auto aa = run_distributed_adamic_adar(g, GetParam(), tiered);
  EXPECT_EQ(jac.score, reference_jaccard(g));
  EXPECT_EQ(ovl.score, reference_overlap(g));
  EXPECT_EQ(aa.score, reference_adamic_adar(g));
  EXPECT_NE(jac.run.total().compute_seconds,
            run_distributed_jaccard(g, GetParam()).run.total().compute_seconds);
}

INSTANTIATE_TEST_SUITE_P(Ranks, SimilarityRanks,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(AdamicAdar, DirectedSinkContributesZero) {
  // Sinks have out-degree 0; common neighbors of out-degree < 2 weigh 0.
  const CSRGraph g = directed_with_sinks();
  const auto ref = reference_adamic_adar(g);
  const auto r = run_distributed_adamic_adar(g, 4);
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

TEST(Similarity, OverlapDominatesJaccard) {
  // min(|A|,|B|) <= |A ∪ B| always, so O(u,v) >= J(u,v) edge-wise.
  const CSRGraph g = rmat_graph(9, 8, 47);
  const auto jac = run_distributed_jaccard(g, 2).score;
  const auto ovl = run_distributed_overlap(g, 2).score;
  ASSERT_EQ(jac.size(), ovl.size());
  for (std::size_t k = 0; k < jac.size(); ++k)
    EXPECT_GE(ovl[k] + 1e-15, jac[k]) << "slot " << k;
}

// ----------------------------------------- unified stats (satellite fix) ---

TEST(AnalyticStats, JaccardAggregatesSameCountersAsLcc) {
  // The unified driver must fill the full EdgeAnalyticStats block for every
  // analytic: historically Jaccard dropped offsets-cache stats.
  const CSRGraph g = rmat_graph(9, 8, 48);
  EngineConfig cfg;
  cfg.use_cache = true;
  cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 19);

  obs::TraceCollector lcc_trace, jac_trace;
  cfg.trace = &lcc_trace;
  const auto lcc = run_distributed_lcc(g, 4, cfg);
  cfg.trace = &jac_trace;
  const auto jac = run_distributed_jaccard(g, 4, cfg);

  // Identical access pattern => identical comm/cache/remote-read counters.
  EXPECT_EQ(jac.remote_edges, lcc.remote_edges);
  EXPECT_EQ(jac.edges_processed, lcc.edges_processed);
  EXPECT_EQ(jac.offsets_cache_total.hits, lcc.offsets_cache_total.hits);
  EXPECT_GT(jac.offsets_cache_total.accesses(), 0u);
  EXPECT_EQ(jac.adj_cache_total.hits, lcc.adj_cache_total.hits);
  const auto lcc_reads =
      testsupport::traced_remote_reads(lcc_trace, g.num_vertices());
  const auto jac_reads =
      testsupport::traced_remote_reads(jac_trace, g.num_vertices());
  std::uint64_t sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(jac_reads[v], lcc_reads[v]) << "vertex " << v;
    sum += jac_reads[v];
  }
  EXPECT_EQ(sum, jac.remote_edges);
}

TEST(AnalyticStats, RemoteReadsFollowFromThePartition) {
  // graph::remote_reads derives the per-vertex reads of paper Figs. 1, 4
  // and 5 from the graph and a 1D partition; the trace's per-row fetch
  // tally is what the engine actually fetched. They agree vertex for
  // vertex, cached or not (a read is counted before any cache probe), for
  // LCC and Jaccard alike, and both sum to remote_edges.
  const CSRGraph g = rmat_graph(8, 8, 47);
  constexpr std::uint32_t kRanks = 4;
  EngineConfig cached;
  cached.use_cache = true;
  cached.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 17);
  for (const auto kind : {graph::PartitionKind::Block1D,
                          graph::PartitionKind::Cyclic1D,
                          graph::PartitionKind::DegreeBalanced1D}) {
    const auto expected =
        graph::remote_reads(g, graph::make_partition(g, kind, kRanks));
    std::uint64_t sum = 0;
    for (const auto c : expected) sum += c;
    EXPECT_GT(sum, 0u);
    for (EngineConfig cfg : {EngineConfig{}, cached}) {
      for (const bool jaccard : {false, true}) {
        SCOPED_TRACE(std::string(graph::partition_kind_name(kind)) +
                     (cfg.use_cache ? " cached" : " uncached") +
                     (jaccard ? " jaccard" : " lcc"));
        obs::TraceCollector trace;
        cfg.trace = &trace;
        const std::uint64_t remote_edges =
            jaccard ? run_distributed_jaccard(g, kRanks, cfg, {}, kind)
                          .remote_edges
                    : run_distributed_lcc(g, kRanks, cfg, {}, kind)
                          .remote_edges;
        EXPECT_EQ(testsupport::traced_remote_reads(trace, g.num_vertices()),
                  expected);
        EXPECT_EQ(sum, remote_edges);
      }
    }
  }

  // Grid2D fetches row segments, which have no per-vertex closed form;
  // the trace tally still sums to remote_edges.
  obs::TraceCollector trace;
  cached.trace = &trace;
  const auto grid = run_distributed_lcc(g, kRanks, cached, {},
                                        graph::PartitionKind::Grid2D);
  std::uint64_t traced = 0;
  for (const auto c :
       testsupport::traced_remote_reads(trace, g.num_vertices()))
    traced += c;
  EXPECT_EQ(traced, grid.remote_edges);
  EXPECT_GT(traced, 0u);
}

TEST(AnalyticStats, SimilarityReportsRemoteEdgeFraction) {
  const CSRGraph g = rmat_graph(8, 8, 49);
  const auto r = run_distributed_overlap(g, 4);
  EXPECT_GT(r.remote_edge_fraction(), 0.0);
  EXPECT_LE(r.remote_edge_fraction(), 1.0);
}

// ------------------------------- aggregation audit (ISSUE 7 satellite) ---

/// Assert `total` is the field-wise sum of the per-rank records for every
/// counter in S's list (summed in rank order, as the drivers do). With
/// `operator+=` derived from the same list, what this audits is the
/// aggregation itself: Runtime::Result::total() and absorb().
template <typename S>
void expect_sums_to_total(const S& total, const std::vector<S>& per_rank,
                          const char* which) {
  util::for_each_counter<S>([&](std::string_view name, auto member) {
    std::remove_cvref_t<decltype(total.*member)> sum{};
    for (const S& r : per_rank) sum += r.*member;
    EXPECT_EQ(total.*member, sum) << which << " field " << name;
  });
}

/// The per-rank comm and cache records of every analytic sum to its totals.
void expect_aggregation_consistent(const EdgeAnalyticStats& s,
                                   const char* analytic) {
  SCOPED_TRACE(analytic);
  expect_sums_to_total(s.run.total(), s.run.stats, "comm");
  ASSERT_EQ(s.offsets_cache_ranks.size(), s.run.stats.size());
  ASSERT_EQ(s.adj_cache_ranks.size(), s.run.stats.size());
  expect_sums_to_total(s.offsets_cache_total, s.offsets_cache_ranks,
                       "offsets_cache");
  expect_sums_to_total(s.adj_cache_total, s.adj_cache_ranks, "adj_cache");
}

TEST(AnalyticStats, PerRankCountersSumToTotalsForEveryAnalytic) {
  const CSRGraph g = rmat_graph(8, 8, 50);
  EngineConfig cfg;
  cfg.use_cache = true;
  cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 18);
  cfg.hub_fraction = 0.1;  // hub_local_hits must survive aggregation too

  expect_aggregation_consistent(run_distributed_lcc(g, 4, cfg), "lcc");
  expect_aggregation_consistent(run_distributed_tc_result(g, 4, cfg, {}),
                                "tc");
  EngineConfig flat = cfg;
  flat.hub_fraction = 0.0;  // per-edge scores reject nothing else here
  expect_aggregation_consistent(run_distributed_jaccard(g, 4, flat),
                                "jaccard");
  expect_aggregation_consistent(run_distributed_overlap(g, 4, flat),
                                "overlap");
  expect_aggregation_consistent(run_distributed_adamic_adar(g, 4, flat),
                                "adamic_adar");

  // The segment-fetch path: Grid2D runs count segment_gets, which must
  // aggregate like every other counter (this is the exact drop-a-counter
  // scenario the audit exists for).
  // The streaming engine: cold count plus incremental batches, whose
  // windows are refreshed (stale evictions must aggregate too).
  stream::WorkloadConfig wl;
  wl.num_batches = 3;
  wl.batch_size = 32;
  stream::StreamOptions sopts;
  sopts.engine = cfg;
  const auto streamed = stream::run_streaming_lcc(
      g, stream::generate_batches(g, wl), 4, sopts);
  expect_aggregation_consistent(streamed, "stream");
  EXPECT_GT(streamed.offsets_cache_total.stale_evictions +
                streamed.adj_cache_total.stale_evictions,
            0u);
  // Busy clocks exclude the waits at the per-batch barriers, so they
  // differ across ranks; recording the post-barrier clock would make
  // imbalance() exactly 1.
  ASSERT_EQ(streamed.busy_clocks.size(), 4u);
  for (const double c : streamed.busy_clocks) {
    EXPECT_GT(c, 0.0);
    EXPECT_LE(c, streamed.run.makespan);
  }
  EXPECT_GT(streamed.imbalance(), 1.0);

  const auto grid = run_distributed_lcc(g, 4, cfg, {},
                                        graph::PartitionKind::Grid2D);
  expect_aggregation_consistent(grid, "lcc_grid2d");
  EXPECT_GT(grid.run.total().segment_gets, 0u);
}

TEST(AnalyticStats, LauncherBusyClockExcludesCollectiveWaits) {
  // Rank r computes (r + 1) ms, waits at a barrier for the slowest rank,
  // then computes 2 ms more. Its busy clock is the compute alone, so the
  // ranks differ by exactly their pre-barrier work; the post-barrier
  // clock would be equal on every rank.
  constexpr std::uint32_t kRanks = 4;
  const CSRGraph g = paper_example();
  const EdgeAnalyticStats s = run_edge_analytic(
      g, graph::Partition(graph::PartitionKind::Block1D, g.num_vertices(),
                          kRanks),
      EngineConfig{}, rma::NetworkModel{},
      [](rma::RankCtx& ctx, DistGraph&, EdgePipeline&) {
        ctx.charge_compute(1e-3 * (ctx.rank() + 1));
        ctx.barrier();
        ctx.charge_compute(2e-3);
      });
  ASSERT_EQ(s.busy_clocks.size(), kRanks);
  for (std::uint32_t r = 0; r < kRanks; ++r)
    EXPECT_NEAR(s.busy_clocks[r] - s.busy_clocks[0], 1e-3 * r, 1e-12)
        << "rank " << r;
  EXPECT_GT(s.imbalance(), 1.0);
}

TEST(AnalyticStats, ServeQueryStatsAggregateLikeEdgeAnalytics) {
  // QueryStats derives from EdgeAnalyticStats precisely so the audit above
  // runs on the serving layer unchanged: a counter added to CommStats or
  // CacheStats cannot silently drop out of QueryEngine's aggregation.
  const CSRGraph g = rmat_graph(8, 8, 61);
  serve::QueryWorkloadConfig wc;
  wc.num_epochs = 3;
  wc.queries_per_epoch = 32;
  wc.batch_size = 16;
  wc.seed = 5;
  const auto epochs = serve::generate_query_stream(g, wc);

  serve::ServeOptions opts;
  opts.engine.use_cache = true;
  opts.engine.cache_sizing = CacheSizing::paper_default(g.num_vertices(),
                                                        1 << 18);
  const serve::ServeResult res = serve::QueryEngine(g, opts).run(epochs, 4);
  expect_aggregation_consistent(res.stats, "serve");
  ASSERT_EQ(res.stats.busy_clocks.size(), 4u);
  EXPECT_GT(res.stats.imbalance(), 1.0);  // waits at epoch barriers excluded

  // The query-level dimension on top of the base block: identity and
  // latency accounting close over the stream...
  EXPECT_EQ(res.stats.submitted, 3u * 32u);
  EXPECT_EQ(res.stats.submitted, res.stats.answered + res.stats.rejected);
  EXPECT_EQ(res.stats.latencies.size(), res.stats.answered);
  EXPECT_EQ(res.stats.per_query.size(), res.stats.answered);
  for (const double l : res.stats.latencies) EXPECT_GE(l, 0.0);
  EXPECT_GE(res.stats.latency_percentile(99),
            res.stats.latency_percentile(50));

  // ...and with the hot cache off, every pipeline item belongs to exactly
  // one query, so the per-query cost records sum to the pipeline totals.
  std::uint64_t edges = 0;
  std::uint64_t remote = 0;
  for (const QueryCost& qc : res.stats.per_query) {
    edges += qc.edges_processed;
    remote += qc.remote_edges;
  }
  EXPECT_EQ(edges, res.stats.edges_processed);
  EXPECT_EQ(remote, res.stats.remote_edges);

  // Hot-cache totals are audited the same field-wise way as CLaMPI's.
  serve::ServeOptions hot = opts;
  hot.hot_cache.entries = 64;
  const serve::ServeResult hres =
      serve::QueryEngine(g, hot).run(epochs, 4);
  EXPECT_GT(hres.hot_cache_total.probes, 0u);
  expect_sums_to_total(hres.hot_cache_total, hres.hot_cache_ranks,
                       "hot_cache");
}

}  // namespace
}  // namespace atlc::core
