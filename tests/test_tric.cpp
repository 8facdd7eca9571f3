// Tests for the TriC baseline reimplementation: correctness vs the
// reference, buffered-variant round behaviour, balanced partitioning, and
// the synchronisation cost structure the paper compares against.
#include <gtest/gtest.h>

#include "atlc/core/lcc.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/tric/tric.hpp"
#include "test_support.hpp"

namespace atlc::tric {
namespace {

using graph::CSRGraph;
using graph::Directedness;
using graph::EdgeList;
using testsupport::paper_example;
using testsupport::rmat_graph;

// ----------------------------------------------------------- correctness ---

class TricAcrossRanks : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TricAcrossRanks, GlobalCountMatchesReference) {
  const CSRGraph g = rmat_graph(8, 8, 1);
  const auto ref = graph::reference_lcc(g);
  const auto result = run_tric(g, GetParam());
  EXPECT_EQ(result.global_triangles, ref.global_triangles);
}

TEST_P(TricAcrossRanks, PerVertexCountsMatchReference) {
  const CSRGraph g = rmat_graph(7, 8, 2);
  const auto ref = graph::reference_lcc(g);
  const auto result = run_tric(g, GetParam());
  ASSERT_EQ(result.per_vertex.size(), ref.triangles.size());
  for (std::size_t v = 0; v < ref.triangles.size(); ++v) {
    // TriC counts distinct triangles; the reference's edge-centric t(v) is
    // twice that for undirected graphs.
    ASSERT_EQ(2 * result.per_vertex[v], ref.triangles[v]) << "vertex " << v;
    ASSERT_DOUBLE_EQ(result.lcc[v], ref.lcc[v]) << "vertex " << v;
  }
}

TEST_P(TricAcrossRanks, PaperExample) {
  const CSRGraph g = paper_example();
  const auto result = run_tric(g, GetParam());
  EXPECT_EQ(result.global_triangles, 3u);
  EXPECT_EQ(result.per_vertex[2], 2u);  // vertex 2 is in two triangles
  EXPECT_DOUBLE_EQ(result.lcc[2], 1.0 / 3.0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, TricAcrossRanks,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(Tric, ManyRoundsSameCount) {
  // More apex vertices per rank than one round enumerates (1024), so the
  // enumeration resumes across rounds.
  const CSRGraph g = rmat_graph(14, 4, 4);
  const auto ref = graph::reference_lcc(g);
  const auto result = run_tric(g, 2);
  EXPECT_EQ(result.global_triangles, ref.global_triangles);
  EXPECT_GT(result.rounds, 4u);
}

// --------------------------------------------------------------- buffered ---

TEST(TricBuffered, MatchesUnbuffered) {
  const CSRGraph g = rmat_graph(8, 8, 5);
  const auto ref = graph::reference_lcc(g);
  TricConfig buffered;
  buffered.buffer_entries = 512;  // tiny buffers -> many forced rounds
  const auto rb = run_tric(g, 4, buffered);
  EXPECT_EQ(rb.global_triangles, ref.global_triangles);
  for (std::size_t v = 0; v < ref.triangles.size(); ++v)
    ASSERT_EQ(2 * rb.per_vertex[v], ref.triangles[v]);
}

TEST(TricBuffered, SmallerBuffersMoreRounds) {
  const CSRGraph g = rmat_graph(9, 8, 6);
  TricConfig big, small;
  big.buffer_entries = 1u << 20;
  small.buffer_entries = 256;
  const auto r_big = run_tric(g, 4, big);
  const auto r_small = run_tric(g, 4, small);
  EXPECT_EQ(r_big.global_triangles, r_small.global_triangles);
  EXPECT_GT(r_small.rounds, r_big.rounds);
}

// ------------------------------------------------------------- partition ---

TEST(BalancedBoundaries, CoverAndOrder) {
  const CSRGraph g = rmat_graph(9, 8, 7);
  const auto bounds = balanced_boundaries(g, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), g.num_vertices());
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_LE(bounds[i - 1], bounds[i]);
}

TEST(BalancedBoundaries, EqualiseEdges) {
  const CSRGraph g = rmat_graph(10, 8, 8);
  const auto bounds = balanced_boundaries(g, 4);
  const auto offsets = g.offsets();
  std::uint64_t max_part = 0;
  for (std::size_t r = 0; r < 4; ++r)
    max_part = std::max<std::uint64_t>(
        max_part, offsets[bounds[r + 1]] - offsets[bounds[r]]);
  // No rank should own more than ~1.5x the average edge volume.
  EXPECT_LT(max_part, 1.5 * static_cast<double>(g.num_edges()) / 4.0);
}

TEST(BalancedBoundaries, PartitionOwnsExactlyEachBlock) {
  // TriC's ownership is the Partition made from these cuts: rank r owns v
  // iff bounds[r] <= v < bounds[r+1], also across empty blocks.
  EdgeList star(9, {}, Directedness::Undirected);
  for (VertexId leaf = 1; leaf < 9; ++leaf) star.add_edge(0, leaf);
  star.symmetrize();
  const std::pair<CSRGraph, std::uint32_t> cases[] = {
      {rmat_graph(9, 8, 7), 1}, {rmat_graph(9, 8, 7), 3},
      {rmat_graph(9, 8, 7), 16}, {CSRGraph::from_edges(star), 4}};
  for (const auto& [g, ranks] : cases) {
    SCOPED_TRACE(::testing::Message() << "ranks=" << ranks);
    const auto bounds = balanced_boundaries(g, ranks);
    const auto part = graph::Partition::from_cuts(bounds);
    ASSERT_EQ(part.num_ranks(), ranks);
    ASSERT_EQ(part.num_vertices(), g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      for (std::uint32_t r = 0; r < ranks; ++r)
        ASSERT_EQ(part.owner(v) == r, bounds[r] <= v && v < bounds[r + 1])
            << "vertex " << v << " rank " << r;
  }
}

// --------------------------------------------- paper comparison behaviour ---

TEST(Comparison, TricPaysMoreSynchronisationThanAsync) {
  // The paper's core claim (Section IV-D2): TriC's blocking all-to-all
  // rounds cost synchronisation the asynchronous RMA engine does not pay,
  // and its per-apex pair enumeration does Sum(deg^2) work vs the async
  // engine's Sum(deg) intersections — the gap that explodes on scale-free
  // graphs. Needs hubs big enough for deg^2 to dominate the per-get alphas.
  const CSRGraph g = rmat_graph(12, 32, 9);
  const auto tric_run = run_tric(g, 8);
  const auto async_run = core::run_distributed_lcc(g, 8);
  EXPECT_GT(tric_run.run.makespan, async_run.run.makespan);
  // TriC executed multiple synchronising rounds; the async engine's only
  // barriers are setup/teardown.
  EXPECT_GT(tric_run.rounds, 1u);
}

TEST(Comparison, QueryVolumeGrowsWithRanks) {
  const CSRGraph g = rmat_graph(9, 8, 10);
  const auto r2 = run_tric(g, 2);
  const auto r8 = run_tric(g, 8);
  EXPECT_GT(r8.query_entries, r2.query_entries);
  EXPECT_EQ(r2.global_triangles, r8.global_triangles);
}

TEST(Tric, RejectsDirectedInput) {
  testsupport::use_threadsafe_death_tests();
  auto e = graph::generate_rmat({.scale = 6, .edge_factor = 4, .seed = 11,
                                 .directedness = Directedness::Directed});
  graph::clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_DEATH((void)run_tric(g, 2), "undirected");
}

}  // namespace
}  // namespace atlc::tric
