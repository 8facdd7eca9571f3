// Tests for the distributed Jaccard similarity extension (paper Section VI
// future-work (ii) built on the same RMA+cache substrate as LCC).
#include <gtest/gtest.h>

#include "atlc/core/similarity.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/generators.hpp"

namespace atlc::core {
namespace {

using graph::CSRGraph;
using graph::Directedness;
using graph::EdgeList;

CSRGraph rmat_graph(unsigned scale, unsigned ef, std::uint64_t seed) {
  auto e = graph::generate_rmat({.scale = scale, .edge_factor = ef,
                                 .seed = seed});
  graph::clean(e);
  return CSRGraph::from_edges(e);
}

TEST(Jaccard, CompleteGraphClosedForm) {
  // K_n: adj(u) ∩ adj(v) = n-2, |adj| = n-1 each, union = n.
  EdgeList e(6, {}, Directedness::Undirected);
  for (graph::VertexId u = 0; u < 6; ++u)
    for (graph::VertexId v = u + 1; v < 6; ++v) e.add_edge(u, v);
  e.symmetrize();
  const auto g = CSRGraph::from_edges(e);
  const auto r = run_distributed_jaccard(g, 3);
  for (double j : r.score) EXPECT_DOUBLE_EQ(j, 4.0 / 6.0);
}

TEST(Jaccard, StarGraphEndpointsShareNothing) {
  // Star: center c adjacent to leaves; J(c, leaf) = 0 (adj(leaf) = {c},
  // adj(c) excludes c). Degree-1 leaves survive cleaning is not needed —
  // build CSR directly.
  EdgeList e(5, {}, Directedness::Undirected);
  for (graph::VertexId v = 1; v < 5; ++v) e.add_edge(0, v);
  e.symmetrize();
  const auto g = CSRGraph::from_edges(e);
  const auto r = run_distributed_jaccard(g, 2);
  for (double j : r.score) EXPECT_DOUBLE_EQ(j, 0.0);
}

class JaccardRanks : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(JaccardRanks, MatchesReference) {
  const auto g = rmat_graph(8, 8, 21);
  const auto ref = reference_jaccard(g);
  const auto r = run_distributed_jaccard(g, GetParam());
  ASSERT_EQ(r.score.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

TEST_P(JaccardRanks, MatchesReferenceCached) {
  const auto g = rmat_graph(8, 8, 22);
  const auto ref = reference_jaccard(g);
  EngineConfig cfg;
  cfg.use_cache = true;
  cfg.victim_policy = clampi::VictimPolicy::UserScore;
  cfg.cache_sizing =
      CacheSizing::paper_default(g.num_vertices(), g.csr_bytes() / 4);
  const auto r = run_distributed_jaccard(g, GetParam(), cfg);
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
  if (GetParam() > 1) EXPECT_GT(r.adj_cache_total.accesses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Ranks, JaccardRanks, ::testing::Values(1u, 2u, 4u, 8u));

TEST(Jaccard, ValuesAreProbabilities) {
  const auto g = rmat_graph(9, 8, 23);
  const auto r = run_distributed_jaccard(g, 4);
  for (double j : r.score) {
    EXPECT_GE(j, 0.0);
    EXPECT_LT(j, 1.0);  // open neighborhoods: u ∉ adj(u), so never 1 here
  }
}

TEST(Jaccard, SimilarityCorrelatesWithLcc) {
  // High-LCC regions (tight circles) should show higher edge similarity
  // than a uniform graph of comparable density.
  auto circles = graph::generate_circles({.num_vertices = 512, .seed = 9});
  graph::clean(circles);
  const auto gc = CSRGraph::from_edges(circles);
  auto uni = graph::generate_uniform(
      {.num_vertices = 512, .num_edges = gc.num_edges() / 2, .seed = 9});
  graph::clean(uni);
  const auto gu = CSRGraph::from_edges(uni);

  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  EXPECT_GT(mean(run_distributed_jaccard(gc, 2).score),
            2.0 * mean(run_distributed_jaccard(gu, 2).score));
}

TEST(Jaccard, CyclicPartitionAgrees) {
  const auto g = rmat_graph(8, 8, 24);
  const auto ref = reference_jaccard(g);
  const auto r = run_distributed_jaccard(g, 4, {}, {},
                                         graph::PartitionKind::Cyclic1D);
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

}  // namespace
}  // namespace atlc::core
