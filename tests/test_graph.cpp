// Unit tests for the graph substrate: edge lists, CSR, cleaning, relabeling,
// generators, IO, partitioning, degree statistics and reference LCC/TC.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "atlc/core/engine_config.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/degree_stats.hpp"
#include "atlc/graph/dodg.hpp"
#include "atlc/graph/edge_list.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/hub_replica.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/graph/relabel.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/util/rng.hpp"
#include "test_support.hpp"

namespace atlc::graph {
namespace {

using testsupport::complete_edges;
using testsupport::paper_example_edges;

EdgeList paper_example() { return paper_example_edges(); }
EdgeList complete(VertexId n) { return complete_edges(n); }

// ------------------------------------------------------------- EdgeList ---

TEST(EdgeList, SortAndDedupRemovesMultiEdges) {
  EdgeList e(3, {{0, 1}, {0, 1}, {1, 2}, {0, 1}}, Directedness::Directed);
  e.sort_and_dedup();
  EXPECT_EQ(e.num_edges(), 2u);
}

TEST(EdgeList, RemoveSelfLoops) {
  EdgeList e(3, {{0, 0}, {0, 1}, {2, 2}}, Directedness::Directed);
  e.remove_self_loops();
  EXPECT_EQ(e.num_edges(), 1u);
}

TEST(EdgeList, SymmetrizeAddsReverses) {
  EdgeList e(3, {{0, 1}, {1, 2}}, Directedness::Undirected);
  e.symmetrize();
  EXPECT_EQ(e.num_edges(), 4u);
  EXPECT_TRUE(e.is_symmetric());
}

TEST(EdgeList, SymmetrizeIdempotent) {
  EdgeList e(3, {{0, 1}, {1, 0}}, Directedness::Undirected);
  e.symmetrize();
  EXPECT_EQ(e.num_edges(), 2u);
}

TEST(EdgeList, SymmetrizeNoOpForDirected) {
  EdgeList e(3, {{0, 1}}, Directedness::Directed);
  e.symmetrize();
  EXPECT_EQ(e.num_edges(), 1u);
}

// symmetrize buckets by source id and sort_and_dedup skips sorted input;
// these oracles are the plain comparison sorts.
std::vector<Edge> sorted_unique(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::vector<Edge> symmetrized(std::vector<Edge> edges) {
  const std::size_t m = edges.size();
  for (std::size_t i = 0; i < m; ++i) edges.push_back({edges[i].v, edges[i].u});
  return sorted_unique(std::move(edges));
}

void expect_matches_oracles(const std::vector<Edge>& input) {
  EdgeList sorted(0, input, Directedness::Directed);
  sorted.sort_and_dedup();
  EXPECT_EQ(sorted.edges(), sorted_unique(input));
  EdgeList sym(0, input, Directedness::Undirected);
  sym.symmetrize();
  EXPECT_EQ(sym.edges(), symmetrized(input));
}

TEST(EdgeList, BucketPassMatchesComparisonSortOnRandomLists) {
  // Id ranges from a handful (mostly duplicates and self loops) through
  // dense (one bucket per source) to the full 32-bit range (several
  // sources per bucket).
  for (const std::uint64_t ids :
       {3ull, 50ull, 1000ull, 1ull << 20, 0xFFFFFFFFull}) {
    for (const std::size_t m : {1u, 2u, 17u, 300u, 5000u}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        util::Xoshiro256 rng(seed * 1000003 + m + ids);
        std::vector<Edge> input(m);
        for (Edge& e : input)
          e = {static_cast<VertexId>(rng() % ids),
               static_cast<VertexId>(rng() % ids)};
        SCOPED_TRACE("ids=" + std::to_string(ids) + " m=" + std::to_string(m) +
                     " seed=" + std::to_string(seed));
        expect_matches_oracles(input);
      }
    }
  }
}

TEST(EdgeList, BucketPassEdgeCases) {
  expect_matches_oracles({});
  expect_matches_oracles({{4, 2}});
  expect_matches_oracles({{7, 7}});
  expect_matches_oracles(std::vector<Edge>(100, Edge{5, 3}));
  expect_matches_oracles({{2, 2}, {1, 1}, {2, 2}, {0, 0}});
  expect_matches_oracles({{3, 1}, {1, 3}, {3, 1}, {0, 2}, {2, 0}});
}

TEST(EdgeList, SymmetrizeAtTheDenseSparseBoundary) {
  // m = 6 edges, 2m = 12 entries, with a self loop and a duplicate: largest
  // id 11 (id space = 2m) takes the counting passes, largest id 12 (2m + 1)
  // the reference sort. Both must equal the oracle.
  for (const VertexId top : {VertexId{11}, VertexId{12}}) {
    SCOPED_TRACE("largest id " + std::to_string(top));
    expect_matches_oracles(
        {{top, 0}, {3, 3}, {5, 1}, {top, 0}, {0, top}, {1, 5}});
  }
  // The same boundary on seeded lists big enough for long rows.
  for (const std::size_t m : {50u, 2000u}) {
    for (const std::uint64_t extra : {0ull, 1ull}) {
      util::Xoshiro256 rng(m + extra);
      const auto top = static_cast<VertexId>(2 * m - 1 + extra);
      std::vector<Edge> input(m);
      for (Edge& e : input)
        e = {static_cast<VertexId>(rng.next_below(top / 8 + 1)),
             static_cast<VertexId>(rng.next_below(top / 8 + 1))};
      input[0] = {top, top};         // self loop on the largest id
      input[1] = {0, top};
      input[2] = input[3] = {2, 1};  // duplicate
      SCOPED_TRACE("m=" + std::to_string(m) + " top=" + std::to_string(top));
      expect_matches_oracles(input);
    }
  }
}

TEST(EdgeList, SortAndDedupLeavesSortedInputUnchanged) {
  const std::vector<Edge> input{{0, 1}, {0, 4}, {1, 0}, {3, 2}, {3, 3}, {9, 0}};
  EdgeList e(10, input, Directedness::Directed);
  e.sort_and_dedup();
  EXPECT_EQ(e.edges(), input);
}

TEST(EdgeList, SortAndDedupDropsDuplicatesFromSortedInput) {
  // Non-decreasing but not strictly increasing: the early exit for sorted
  // input must not take this list.
  EdgeList e(4, {{0, 1}, {0, 1}, {1, 2}, {2, 3}, {2, 3}, {2, 3}},
             Directedness::Directed);
  e.sort_and_dedup();
  EXPECT_EQ(e.edges(), (std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(EdgeList, SparseIdsSortWithoutPerIdAllocation) {
  // One counter per id up to 0xFFFFFFFE would need 32 GiB; this passes
  // under `ulimit -v 4000000`.
  constexpr VertexId kTop = 0xFFFFFFFE;
  for (const std::vector<Edge>& input :
       {std::vector<Edge>{{0, kTop}}, std::vector<Edge>{{kTop, 1}},
        std::vector<Edge>{{kTop, 1}, {0, kTop}, {kTop, 0}, {1, 1}}})
    expect_matches_oracles(input);
  EdgeList e(0, {{kTop, 1}, {0, kTop}}, Directedness::Directed);
  e.sort_and_dedup();
  EXPECT_EQ(e.edges(), (std::vector<Edge>{{0, kTop}, {kTop, 1}}));
}

// ------------------------------------------------------------------ CSR ---

TEST(Csr, PaperFigure2Example) {
  // Fig. 2: node A of the Fig. 1 graph stores vertices 0..2 with
  // offsets [0,2,6] and adjacencies [1,2, 0,2,3,4, 0,1,4] (offset array in
  // the paper omits the trailing total; we store n+1 entries).
  EdgeList e(5, {}, Directedness::Directed);
  for (auto [u, v] : std::initializer_list<std::pair<int, int>>{
           {0, 1}, {0, 2}, {1, 0}, {1, 2}, {1, 3}, {1, 4}, {2, 0}, {2, 1},
           {2, 4}})
    e.add_edge(u, v);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_EQ(g.offsets()[0], 0u);
  EXPECT_EQ(g.offsets()[1], 2u);
  EXPECT_EQ(g.offsets()[2], 6u);
  EXPECT_EQ(g.offsets()[3], 9u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 4u);
  ASSERT_EQ(g.neighbors(1).size(), 4u);
  EXPECT_EQ(g.neighbors(1)[0], 0u);
  EXPECT_EQ(g.neighbors(1)[3], 4u);
}

TEST(Csr, AdjacencySortedAfterBuild) {
  EdgeList e(4, {{0, 3}, {0, 1}, {0, 2}, {2, 1}}, Directedness::Directed);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_TRUE(g.adjacency_sorted_unique());
}

TEST(Csr, HasEdge) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 5));
}

TEST(Csr, CsrBytesAccountsBothArrays) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  EXPECT_EQ(g.csr_bytes(), (g.num_vertices() + 1) * sizeof(EdgeIndex) +
                               g.num_edges() * sizeof(VertexId));
}

TEST(Csr, FromRawValidates) {
  testsupport::use_threadsafe_death_tests();
  EXPECT_DEATH(
      (void)CSRGraph::from_raw(2, {0, 1}, {1, 0}, Directedness::Directed),
      "offsets");
}

TEST(Csr, EmptyGraph) {
  EdgeList e(0, {}, Directedness::Undirected);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

// ---------------------------------------------------------------- clean ---

TEST(Clean, RemovesIsolatedAndDegreeOneVertices) {
  // Vertex 3 is isolated; vertex 2 has degree 1 (cannot close a triangle).
  EdgeList e(4, {{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}},
             Directedness::Undirected);
  EdgeList pendant(5, {}, Directedness::Undirected);
  pendant.add_edge(0, 1);
  pendant.add_edge(1, 0);
  pendant.add_edge(0, 2);
  pendant.add_edge(2, 0);
  pendant.add_edge(1, 2);
  pendant.add_edge(2, 1);
  pendant.add_edge(3, 0);
  pendant.add_edge(0, 3);  // vertex 3: degree 1; vertex 4: isolated
  const CleanReport rep = clean(pendant);
  EXPECT_EQ(rep.vertices_removed, 2u);
  EXPECT_EQ(pendant.num_vertices(), 3u);
  // Surviving ids must be compact and the triangle intact.
  const CSRGraph g = CSRGraph::from_edges(pendant);
  EXPECT_EQ(reference_lcc(g).global_triangles, 1u);
}

TEST(Clean, CountsSelfLoopsAndMultiEdges) {
  EdgeList e(3, {{0, 0}, {0, 1}, {0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2},
                 {2, 0}},
             Directedness::Undirected);
  const CleanReport rep = clean(e);
  EXPECT_EQ(rep.self_loops_removed, 1u);
  EXPECT_EQ(rep.multi_edges_removed, 1u);
}

TEST(Clean, PreservesTriangleCount) {
  auto e = generate_rmat({.scale = 8, .edge_factor = 8, .seed = 3});
  EdgeList copy = e;
  clean(copy);
  const auto before = reference_lcc(CSRGraph::from_edges([&] {
                        EdgeList x = e;
                        x.remove_self_loops();
                        x.sort_and_dedup();
                        return x;
                      }()))
                          .global_triangles;
  const auto after = reference_lcc(CSRGraph::from_edges(copy)).global_triangles;
  EXPECT_EQ(before, after);  // degree<2 vertices are in no triangle
}

TEST(CleanIds, RemovesDegreeBelowTwoAndKeepsIdOrder) {
  const std::vector<VertexId> degree{2, 0, 1, 3, 2, 5, 1};
  const std::vector<VertexId> want{0,  kRemovedVertex, kRemovedVertex, 1,
                                   2,  3,              kRemovedVertex};
  EXPECT_EQ(clean_ids(degree, {}), want);
  // Without the degree pass every vertex survives under its own id.
  std::vector<VertexId> all(degree.size());
  std::iota(all.begin(), all.end(), VertexId{0});
  EXPECT_EQ(clean_ids(degree, {.remove_degree_lt2 = false}), all);
  EXPECT_TRUE(clean_ids({}, {.relabel_seed = 3}).empty());
}

TEST(CleanIds, SeedMapsSurvivorsThroughRandomPermutation) {
  util::Xoshiro256 rng(41);
  std::vector<VertexId> degree(500);
  for (VertexId& d : degree) d = static_cast<VertexId>(rng.next_below(4));
  const std::vector<VertexId> compact = clean_ids(degree, {});
  const auto n1 = static_cast<VertexId>(
      degree.size() - std::count(compact.begin(), compact.end(),
                                 kRemovedVertex));
  ASSERT_GT(n1, 0u);
  ASSERT_LT(n1, degree.size());
  for (const std::uint64_t seed : {1ull, 17ull, 99ull}) {
    const std::vector<VertexId> perm = random_permutation(n1, seed);
    const std::vector<VertexId> ids = clean_ids(degree, {.relabel_seed = seed});
    for (std::size_t v = 0; v < degree.size(); ++v)
      EXPECT_EQ(ids[v],
                compact[v] == kRemovedVertex ? kRemovedVertex
                                             : perm[compact[v]])
          << "seed " << seed << " vertex " << v;
  }
  // clean() relabels through the same ids: seed s is seed 0 followed by
  // random_permutation(n', s), edge for edge.
  auto plain = generate_rmat({.scale = 8, .edge_factor = 4, .seed = 9});
  EdgeList seeded = plain;
  clean(plain);
  clean(seeded, {.relabel_seed = 23});
  relabel(plain, random_permutation(plain.num_vertices(), 23));
  EXPECT_EQ(seeded.num_vertices(), plain.num_vertices());
  EXPECT_TRUE(seeded.edges() == plain.edges());
}

TEST(CleanIds, DirectedDegreesCountBothEndpoints) {
  // 0 -> 1 -> 2 -> 0 is a directed cycle: each vertex has out 1 + in 1.
  // Vertex 3 has only out-degree 1 and vertex 4 only in-degree 1.
  EdgeList e(5, {{0, 1}, {1, 2}, {2, 0}, {3, 0}, {1, 4}},
             Directedness::Directed);
  const CleanReport rep = clean(e);
  EXPECT_EQ(rep.vertices_removed, 2u);
  EXPECT_EQ(e.num_vertices(), 3u);
  const std::vector<Edge> want{{0, 1}, {1, 2}, {2, 0}};
  EXPECT_TRUE(e.edges() == want);
}

// -------------------------------------------------------------- relabel ---

TEST(Relabel, PermutationIsBijective) {
  const auto perm = random_permutation(100, 42);
  std::set<VertexId> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Relabel, DeterministicPerSeed) {
  EXPECT_EQ(random_permutation(50, 7), random_permutation(50, 7));
  EXPECT_NE(random_permutation(50, 7), random_permutation(50, 8));
}

TEST(Relabel, PreservesTriangles) {
  auto e = generate_rmat({.scale = 7, .edge_factor = 8, .seed = 5});
  clean(e);
  const auto before = reference_lcc(CSRGraph::from_edges(e)).global_triangles;
  relabel(e, random_permutation(e.num_vertices(), 99));
  const auto after = reference_lcc(CSRGraph::from_edges(e)).global_triangles;
  EXPECT_EQ(before, after);
}

// ----------------------------------------------------------- generators ---

TEST(Rmat, SizesFollowScaleAndEdgeFactor) {
  const auto e = generate_rmat(
      {.scale = 10, .edge_factor = 4, .seed = 1,
       .directedness = Directedness::Directed});
  EXPECT_EQ(e.num_vertices(), 1u << 10);
  EXPECT_EQ(e.num_edges(), (1u << 10) * 4u);
}

TEST(Rmat, DeterministicPerSeed) {
  const auto a = generate_rmat({.scale = 8, .edge_factor = 4, .seed = 9});
  const auto b = generate_rmat({.scale = 8, .edge_factor = 4, .seed = 9});
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(Rmat, UndirectedOutputIsSymmetric) {
  const auto e = generate_rmat({.scale = 7, .edge_factor = 4, .seed = 2});
  EXPECT_TRUE(e.is_symmetric());
}

TEST(Rmat, SkewedDegreesVsUniform) {
  auto rmat = generate_rmat({.scale = 10, .edge_factor = 8, .seed = 3});
  clean(rmat);
  auto uni = generate_uniform({.num_vertices = 1u << 10,
                               .num_edges = 8u << 10,
                               .seed = 3});
  clean(uni);
  const auto s_rmat = degree_stats(CSRGraph::from_edges(rmat));
  const auto s_uni = degree_stats(CSRGraph::from_edges(uni));
  // The R-MAT parameters of the paper produce a heavy-tailed distribution;
  // the uniform control does not (paper Fig. 4 upper-left).
  EXPECT_GT(s_rmat.gini, s_uni.gini + 0.1);
  EXPECT_GT(s_rmat.max, s_uni.max);
}

TEST(Rmat, LargeCsrAdjacencySortedUnique) {
  // Large enough that from_edges' per-row sort runs its OpenMP path; the
  // parallelization must preserve the sorted-unique adjacency invariant
  // every intersection kernel relies on.
  auto e = generate_rmat({.scale = 12, .edge_factor = 8, .seed = 6});
  clean(e, {.relabel_seed = 17});
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_TRUE(g.adjacency_sorted_unique());
  EXPECT_EQ(g.num_vertices(), e.num_vertices());
  EXPECT_EQ(g.num_edges(), e.num_edges());
}

TEST(Csr, SortedAndShuffledInputsBuildIdenticalCsrs) {
  // clean() without relabelling emits (u, v) order, so from_edges finds
  // every row sorted and skips its sort; a shuffled copy of the same edges
  // takes the (parallel) sort. Both must build the same CSR.
  auto e = generate_rmat({.scale = 12, .edge_factor = 8, .seed = 7});
  clean(e);
  ASSERT_TRUE(std::ranges::is_sorted(e.edges(), [](Edge a, Edge b) {
    return std::pair(a.u, a.v) < std::pair(b.u, b.v);
  }));
  EdgeList shuffled = e;
  util::Xoshiro256 rng(8);
  std::ranges::shuffle(shuffled.edges(), rng);
  ASSERT_NE(shuffled.edges(), e.edges());

  const CSRGraph sorted_csr = CSRGraph::from_edges(e);
  const CSRGraph shuffled_csr = CSRGraph::from_edges(shuffled);
  EXPECT_TRUE(sorted_csr.adjacency_sorted_unique());
  EXPECT_TRUE(std::ranges::equal(sorted_csr.offsets(), shuffled_csr.offsets()));
  EXPECT_TRUE(std::ranges::equal(sorted_csr.adjacencies(),
                                 shuffled_csr.adjacencies()));
}

TEST(Uniform, EdgeCountAndRange) {
  const auto e = generate_uniform({.num_vertices = 100,
                                   .num_edges = 500,
                                   .seed = 1,
                                   .directedness = Directedness::Directed});
  EXPECT_EQ(e.num_edges(), 500u);
  for (const Edge& ed : e.edges()) {
    EXPECT_LT(ed.u, 100u);
    EXPECT_LT(ed.v, 100u);
  }
}

TEST(Circles, ProducesClusteredSkewedGraph) {
  auto e = generate_circles({.num_vertices = 1024, .seed = 11});
  clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  ASSERT_GT(g.num_vertices(), 500u);
  const auto ref = reference_lcc(g);
  // High clustering: mean LCC well above an ER graph of equal density.
  double mean_lcc = 0;
  for (double c : ref.lcc) mean_lcc += c;
  mean_lcc /= static_cast<double>(g.num_vertices());
  EXPECT_GT(mean_lcc, 0.15);
  // Skewed degrees (hub members exist).
  const auto stats = degree_stats(g);
  EXPECT_GT(static_cast<double>(stats.max), 4.0 * stats.mean);
}

// ------------------------------------------------------------------- IO ---

TEST(IdInterner, MatchesFirstAppearanceMapOnSeededStreams) {
  // A 1-byte input hint starts the table at its smallest size, so every
  // stream grows it several times. Streams mix repeats with 0, 2^64 - 1
  // and ids that share their low 40 bits.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Xoshiro256 rng(seed * 7919);
    IdInterner intern(1, 0xffffffffull, "stream");
    std::unordered_map<std::uint64_t, VertexId> first_seen;
    std::vector<std::uint64_t> seen;
    for (int i = 0; i < 20000; ++i) {
      std::uint64_t raw = 0;
      switch (rng.next_below(5)) {
        case 0: raw = rng.next_below(2) == 0 ? 0 : ~std::uint64_t{0}; break;
        case 1: raw = rng.next_below(4096) << 40; break;
        case 2: raw = rng(); break;
        default:
          raw = seen.empty() ? 7 : seen[rng.next_below(seen.size())];
          break;
      }
      const auto [it, fresh] = first_seen.try_emplace(
          raw, static_cast<VertexId>(first_seen.size()));
      if (fresh) seen.push_back(raw);
      ASSERT_EQ(intern(raw), it->second) << "seed " << seed << " step " << i;
    }
    EXPECT_EQ(intern.size(), first_seen.size());
  }
}

TEST(IdInterner, OverflowsAtExactlyCapPlusOneDistinctIds) {
  for (const std::uint64_t cap : {0ull, 1ull, 5ull, 300ull}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    IdInterner intern(1, cap, "capped.txt");
    for (std::uint64_t i = 0; i < cap; ++i)
      EXPECT_EQ(intern(i << 33), static_cast<VertexId>(i));
    if (cap > 0) EXPECT_EQ(intern(0), 0u);  // a repeat is not a new id
    EXPECT_EQ(intern.size(), static_cast<VertexId>(cap));
    try {
      (void)intern(~std::uint64_t{0});
      ADD_FAILURE() << "id " << cap + 1 << " did not throw";
    } catch (const std::runtime_error& ex) {
      EXPECT_EQ(std::string(ex.what()).rfind("atlc: vertex id space overflow",
                                             0),
                0u)
          << ex.what();
    }
  }
}

TEST(Io, TextRoundTrip) {
  auto e = generate_rmat({.scale = 6, .edge_factor = 4, .seed = 7});
  clean(e);
  const std::string path = ::testing::TempDir() + "atlc_text_edges.txt";
  save_text_edges(e, path);
  const EdgeList loaded = load_text_edges(path, Directedness::Undirected);
  // Vertex ids are compacted on load; triangle counts are invariant.
  EXPECT_EQ(reference_lcc(CSRGraph::from_edges(e)).global_triangles,
            reference_lcc(CSRGraph::from_edges(loaded)).global_triangles);
  std::remove(path.c_str());
}

/// Lines of a text edge file that are not '#' comments.
std::size_t data_lines(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  std::size_t lines = 0;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), f) != nullptr)
    if (buf[0] != '#') ++lines;
  std::fclose(f);
  return lines;
}

std::size_t self_loops(const EdgeList& e) {
  return static_cast<std::size_t>(
      std::count_if(e.edges().begin(), e.edges().end(),
                    [](const Edge& x) { return x.u == x.v; }));
}

TEST(Io, SymmetricListWrittenOncePerEdge) {
  const std::string path = ::testing::TempDir() + "atlc_once.txt";
  // Ids already in first-appearance order: the reload is the same list.
  EdgeList example = testsupport::paper_example_edges();
  example.add_edge(2, 2);
  example.sort_and_dedup();
  ASSERT_TRUE(example.is_symmetric());
  save_text_edges(example, path);
  EXPECT_EQ(data_lines(path), (example.num_edges() + 1) / 2);
  const EdgeList example_back = load_text_edges(path, Directedness::Undirected);
  EXPECT_EQ(example_back.num_vertices(), example.num_vertices());
  EXPECT_EQ(example_back.edges(), example.edges());

  // Any sorted symmetric list (here an R-MAT with self-loops, which the
  // loader keeps): the reload equals that of the edge-for-edge dump, so
  // dropping the u > v lines leaves the id interning order unchanged.
  auto rmat = generate_rmat({.scale = 7, .edge_factor = 6, .seed = 3});
  rmat.add_edge(5, 5);
  rmat.add_edge(9, 9);
  rmat.symmetrize();
  ASSERT_GE(self_loops(rmat), 2u);
  testsupport::save_every_edge(rmat, path);
  const EdgeList want = load_text_edges(path, Directedness::Undirected);
  const std::size_t lines = save_text_edges(rmat, path);
  EXPECT_EQ(lines, (rmat.num_edges() + self_loops(rmat)) / 2);
  EXPECT_EQ(data_lines(path), lines);
  const EdgeList got = load_text_edges(path, Directedness::Undirected);
  EXPECT_EQ(got.num_vertices(), want.num_vertices());
  EXPECT_EQ(got.edges(), want.edges());

  // A directed list, and an undirected one that is not symmetric, are
  // written edge for edge.
  const EdgeList directed(3, {{0, 1}, {1, 0}, {1, 2}}, Directedness::Directed);
  EXPECT_EQ(save_text_edges(directed, path), 3u);
  EXPECT_EQ(data_lines(path), 3u);
  const EdgeList one_way(3, {{0, 1}, {1, 2}}, Directedness::Undirected);
  save_text_edges(one_way, path);
  EXPECT_EQ(data_lines(path), 2u);
  std::remove(path.c_str());
}

TEST(Io, TextSkipsComments) {
  const std::string path = ::testing::TempDir() + "atlc_comments.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "# comment\n%% another\n0 1\n1 2\n2 0\n");
  std::fclose(f);
  const EdgeList e = load_text_edges(path, Directedness::Undirected);
  EXPECT_EQ(e.num_vertices(), 3u);
  EXPECT_EQ(reference_lcc(CSRGraph::from_edges(e)).global_triangles, 1u);
  std::remove(path.c_str());
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW((void)load_text_edges("/nonexistent/path.txt",
                                     Directedness::Undirected),
               std::runtime_error);
}

TEST(Io, TextRoundTripPreservesTriangles) {
  // The --convert workflow: a generated edge list written as text, before
  // cleaning, must clean to a graph with the generator's triangles.
  auto e = generate_rmat({.scale = 6, .edge_factor = 6, .seed = 9});
  const std::string path = ::testing::TempDir() + "atlc_rt.txt";
  save_text_edges(e, path);
  EdgeList loaded = load_text_edges(path, Directedness::Undirected);
  clean(e);
  clean(loaded);
  EXPECT_EQ(loaded.num_vertices(), e.num_vertices());
  EXPECT_EQ(loaded.num_edges(), e.num_edges());
  EXPECT_EQ(reference_lcc(CSRGraph::from_edges(loaded)).global_triangles,
            reference_lcc(CSRGraph::from_edges(e)).global_triangles);
  std::remove(path.c_str());
}

TEST(Io, LoadTextEdgesReadsText) {
  // A text file whose first bytes are digits goes down the text path.
  const std::string text_path = ::testing::TempDir() + "atlc_sniff.txt";
  std::FILE* f = std::fopen(text_path.c_str(), "w");
  std::fprintf(f, "0 1\n1 2\n2 0\n");
  std::fclose(f);
  const EdgeList t = load_text_edges(text_path, Directedness::Undirected);
  EXPECT_EQ(reference_lcc(CSRGraph::from_edges(t)).global_triangles, 1u);
  std::remove(text_path.c_str());
}

/// Write `bytes` to `path` verbatim.
void write_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Bounded seeded fuzz of the text loader: `cases` times, flip, insert or
/// delete one random byte of a small SNAP file and demand that
/// load_text_edges either throws an `atlc:` runtime_error or returns a list
/// that clean() and CSRGraph::from_edges turn into in-range, sorted,
/// duplicate-free rows. Every fourth case caps the id space at the source's
/// own id count, so a mutation that adds an id must take the overflow error.
void expect_text_mutations_fail_cleanly(int cases, std::uint64_t seed) {
  std::string bytes = "# fuzz source\n% a comment\n\n3\t7\r\n7 3 junk\n";
  const EdgeList source = paper_example();
  for (const Edge& e : source.edges())
    if (e.u < e.v)
      bytes += std::to_string(e.u) + " " + std::to_string(e.v) + "\n";
  bytes += "12 13\n13 14\n14 12\n4000000000 12\n";
  const std::string path = ::testing::TempDir() + "atlc_text_fuzz_" +
                           std::to_string(seed) + ".txt";
  write_bytes(path, bytes);
  const VertexId source_ids =
      load_text_edges(path, Directedness::Undirected).num_vertices();

  util::Xoshiro256 rng(seed);
  std::size_t rejected = 0, loaded = 0;
  for (int c = 0; c < cases; ++c) {
    std::string copy = bytes;
    const std::size_t at = rng.next_below(copy.size());
    const auto byte = static_cast<char>(rng.next_below(256));
    switch (c % 3) {
      case 0: copy[at] = static_cast<char>(copy[at] ^ (byte | 1)); break;
      case 1: copy.insert(at, 1, byte); break;
      default: copy.erase(at, 1); break;
    }
    write_bytes(path, copy);
    const std::uint64_t cap = c % 4 == 0 ? source_ids : 0xffffffffull;
    SCOPED_TRACE("case " + std::to_string(c) + ": byte " + std::to_string(at));
    try {
      EdgeList list = load_text_edges(path, Directedness::Undirected, cap);
      ++loaded;
      clean(list);
      const CSRGraph g = CSRGraph::from_edges(list);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto row = g.neighbors(v);
        ASSERT_TRUE(std::adjacent_find(row.begin(), row.end(),
                                       std::greater_equal<>()) == row.end())
            << "row " << v << " not strictly ascending";
        ASSERT_TRUE(row.empty() || row.back() < g.num_vertices())
            << "row " << v;
      }
    } catch (const std::runtime_error& ex) {
      EXPECT_EQ(std::string(ex.what()).rfind("atlc:", 0), 0u) << ex.what();
      ++rejected;
    }
  }
  std::remove(path.c_str());
  // Both outcomes occur: the loop exercises rejection and real loads.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded, 0u);
}

TEST(Io, SeededTextMutationsFailCleanlyOrCleanToValidRows) {
  expect_text_mutations_fail_cleanly(3000, 2026);
}

// The 12k-case run: ctest's test_graph_text_fuzz entry (label `fuzz`)
// selects it with --gtest_also_run_disabled_tests; CI runs it under
// ASan/UBSan.
TEST(Io, DISABLED_SeededTextMutationsFuzz12k) {
  expect_text_mutations_fail_cleanly(12000, 20261019);
}

// ------------------------------------------------------------ partition ---

class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<int, int, PartitionKind>> {};

TEST_P(PartitionProperty, CoversAllVerticesDisjointly) {
  const auto [n, p, kind] = GetParam();
  const Partition part(kind, static_cast<VertexId>(n),
                       static_cast<std::uint32_t>(p));
  std::vector<int> owner_count(n, 0);
  VertexId total = 0;
  for (std::uint32_t r = 0; r < part.num_ranks(); ++r) {
    total += part.part_size(r);
    for (VertexId l = 0; l < part.part_size(r); ++l) {
      const VertexId v = part.global_id(r, l);
      ASSERT_LT(v, static_cast<VertexId>(n));
      ++owner_count[v];
      EXPECT_EQ(part.owner(v), r);
      EXPECT_EQ(part.local_index(v), l);
    }
  }
  EXPECT_EQ(total, static_cast<VertexId>(n));
  for (int c : owner_count) EXPECT_EQ(c, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionProperty,
    ::testing::Combine(::testing::Values(1, 7, 64, 100, 1023),
                       ::testing::Values(1, 2, 5, 8, 16),
                       ::testing::Values(PartitionKind::Block1D,
                                         PartitionKind::Cyclic1D)));

TEST(Partition, BlockSizesDifferByAtMostOne) {
  const Partition part(PartitionKind::Block1D, 10, 4);
  VertexId mn = 10, mx = 0;
  for (std::uint32_t r = 0; r < 4; ++r) {
    mn = std::min(mn, part.part_size(r));
    mx = std::max(mx, part.part_size(r));
  }
  EXPECT_LE(mx - mn, 1u);
}

TEST(Partition, CyclicSpreadsConsecutiveVertices) {
  const Partition part(PartitionKind::Cyclic1D, 100, 4);
  EXPECT_EQ(part.owner(0), 0u);
  EXPECT_EQ(part.owner(1), 1u);
  EXPECT_EQ(part.owner(4), 0u);
}

TEST(Partition, EvenCutsFollowTheBlockRule) {
  // Block1D's blocks and both Grid2D axes start part r of [0, n) at
  // r*(n/parts) + min(r, n%parts), n < parts included: a rewrite of the
  // cut tables must not move one boundary.
  const auto start = [](VertexId n, std::uint32_t parts, std::uint32_t r) {
    return r * (n / parts) + std::min<VertexId>(r, n % parts);
  };
  for (const VertexId n : {0u, 1u, 3u, 7u, 100u, 1023u})
    for (const std::uint32_t p : {1u, 2u, 3u, 4u, 7u, 8u, 12u, 16u}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << p);
      const Partition block(PartitionKind::Block1D, n, p);
      for (std::uint32_t r = 0; r < p; ++r)
        ASSERT_EQ(block.block_begin(r), start(n, p, r)) << "rank " << r;
      const Partition grid(PartitionKind::Grid2D, n, p);
      const std::uint32_t pr = grid.grid_rows();
      const std::uint32_t pc = grid.grid_cols();
      for (std::uint32_t r = 0; r < pr; ++r)
        for (std::uint32_t c = 0; c < pc; ++c)
          ASSERT_EQ(grid.block_begin(r * pc + c), start(n, pr, r))
              << "grid row " << r;
      for (std::uint32_t b = 0; b < pc; ++b) {
        const auto [lo, hi] = grid.col_block_range(b);
        ASSERT_EQ(lo, start(n, pc, b)) << "column block " << b;
        ASSERT_EQ(hi, start(n, pc, b + 1)) << "column block " << b;
      }
    }
}

TEST(Partition, BlockBeginRefusesCyclic) {
  testsupport::use_threadsafe_death_tests();
  const Partition part(PartitionKind::Cyclic1D, 100, 4);
  EXPECT_DEATH((void)part.block_begin(1), "contiguous kinds only");
}

TEST(Partition, FromCutsOwnsEachRange) {
  const Partition part = Partition::from_cuts({0, 4, 4, 9, 10});
  EXPECT_EQ(part.kind(), PartitionKind::DegreeBalanced1D);
  EXPECT_EQ(part.num_vertices(), 10u);
  EXPECT_EQ(part.num_ranks(), 4u);
  EXPECT_EQ(part.part_size(1), 0u);
  EXPECT_EQ(part.owner(4), 2u);  // on a cut: the range that starts there
  testsupport::use_threadsafe_death_tests();
  EXPECT_DEATH((void)Partition::from_cuts({0, 5, 3}), "must not decrease");
  EXPECT_DEATH((void)Partition::from_cuts({1, 5}), "start at 0");
}

// ------------------------------------------------- degree-balanced cuts ---

/// Owner/local/global round trip + disjoint coverage, the same property
/// PartitionProperty asserts for Block1D and Cyclic1D.
void expect_partition_consistent(const Partition& part) {
  const VertexId n = part.num_vertices();
  std::vector<int> owner_count(n, 0);
  VertexId total = 0;
  for (std::uint32_t r = 0; r < part.num_ranks(); ++r) {
    total += part.part_size(r);
    for (VertexId l = 0; l < part.part_size(r); ++l) {
      const VertexId v = part.global_id(r, l);
      ASSERT_LT(v, n);
      ++owner_count[v];
      ASSERT_EQ(part.owner(v), r) << "vertex " << v;
      ASSERT_EQ(part.local_index(v), l) << "vertex " << v;
    }
  }
  EXPECT_EQ(total, n);
  for (int c : owner_count) EXPECT_EQ(c, 1);
}

TEST(DegreeBalanced, RoundTripOnSkewedSequence) {
  // One huge hub, a mid tier, and a long light tail.
  std::vector<std::uint64_t> w = {5000, 3, 40, 1, 900, 2, 2, 60, 1, 1,
                                  700,  4, 4,  4, 4,   8, 8, 1,  1, 1};
  for (const std::uint32_t p : {1u, 2u, 3u, 5u, 8u}) {
    const Partition part = Partition::degree_balanced(w, p);
    EXPECT_EQ(part.kind(), PartitionKind::DegreeBalanced1D);
    expect_partition_consistent(part);
  }
}

TEST(DegreeBalanced, PrefixCutBoundsPerRankWeight) {
  // Greedy ceil re-quota guarantee: every rank's owned weight stays below
  // ceil(total/p) + max single weight (a rank overshoots its quota by at
  // most one vertex).
  std::vector<std::uint64_t> w;
  std::uint64_t total = 0, wmax = 0;
  for (int i = 0; i < 257; ++i) {
    const std::uint64_t d = (i % 61 == 0) ? 1000 + i : 1 + (i % 7);
    w.push_back(d);
    total += d;
    wmax = std::max(wmax, d);
  }
  for (const std::uint32_t p : {2u, 4u, 16u}) {
    const Partition part = Partition::degree_balanced(w, p);
    const std::uint64_t bound = (total + p - 1) / p + wmax;
    for (std::uint32_t r = 0; r < p; ++r) {
      std::uint64_t owned = 0;
      for (VertexId l = 0; l < part.part_size(r); ++l)
        owned += w[part.global_id(r, l)];
      EXPECT_LT(owned, bound) << "rank " << r << " of " << p;
    }
  }
}

TEST(DegreeBalanced, HeavyHubGetsItsOwnRank) {
  // The hub alone exceeds the fair share, so the greedy cut isolates it.
  std::vector<std::uint64_t> w(101, 1);
  w[0] = 1000;
  const Partition part = Partition::degree_balanced(w, 4);
  EXPECT_EQ(part.part_size(0), 1u);
  EXPECT_EQ(part.owner(0), 0u);
  expect_partition_consistent(part);
}

TEST(DegreeBalanced, MorePartsThanVertices) {
  const std::vector<std::uint64_t> w = {7, 3, 9};
  const Partition part = Partition::degree_balanced(w, 8);
  expect_partition_consistent(part);
  VertexId nonempty = 0;
  for (std::uint32_t r = 0; r < 8; ++r) nonempty += part.part_size(r) > 0;
  EXPECT_LE(nonempty, 3u);
}

TEST(DegreeBalanced, AllEqualDegreesMatchBlock1D) {
  for (const VertexId n : {1u, 7u, 10u, 64u, 100u, 1023u}) {
    for (const std::uint32_t p : {1u, 2u, 4u, 5u, 16u}) {
      for (const std::uint64_t d : {0u, 1u, 3u}) {
        const std::vector<std::uint64_t> w(n, d);
        const Partition deg = Partition::degree_balanced(w, p);
        const Partition block(PartitionKind::Block1D, n, p);
        for (std::uint32_t r = 0; r < p; ++r)
          ASSERT_EQ(deg.part_size(r), block.part_size(r))
              << "n=" << n << " p=" << p << " d=" << d << " rank " << r;
        for (VertexId v = 0; v < n; ++v) {
          ASSERT_EQ(deg.owner(v), block.owner(v)) << "vertex " << v;
          ASSERT_EQ(deg.local_index(v), block.local_index(v));
        }
      }
    }
  }
}

TEST(DegreeBalanced, VertexIdOverloadMatchesWeights) {
  const std::vector<VertexId> deg = {4, 4, 1, 9, 2, 2, 8};
  const std::vector<std::uint64_t> wide(deg.begin(), deg.end());
  const Partition a = Partition::degree_balanced(
      std::span<const VertexId>(deg), 3);
  const Partition b = Partition::degree_balanced(
      std::span<const std::uint64_t>(wide), 3);
  for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(a.owner(v), b.owner(v));
}

TEST(DegreeBalanced, MakePartitionBalancesEdgeWork) {
  // make_partition weights each local edge by its endpoint degrees; on a
  // skewed graph the resulting per-rank work spread must beat Block1D's.
  auto e = generate_rmat({.scale = 10, .edge_factor = 8, .seed = 12});
  clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  const Partition part = make_partition(g, PartitionKind::DegreeBalanced1D, 8);
  EXPECT_EQ(part.kind(), PartitionKind::DegreeBalanced1D);
  expect_partition_consistent(part);

  const auto work_spread = [&](const Partition& p) {
    std::uint64_t mx = 0, total = 0;
    for (std::uint32_t r = 0; r < p.num_ranks(); ++r) {
      std::uint64_t owned = 0;
      for (VertexId l = 0; l < p.part_size(r); ++l) {
        const VertexId v = p.global_id(r, l);
        for (const VertexId j : g.neighbors(v)) owned += g.degree(v) + g.degree(j);
      }
      mx = std::max(mx, owned);
      total += owned;
    }
    return static_cast<double>(mx) * static_cast<double>(p.num_ranks()) /
           static_cast<double>(total);
  };
  const Partition block(PartitionKind::Block1D, g.num_vertices(), 8);
  EXPECT_LT(work_spread(part), work_spread(block));
  EXPECT_LT(work_spread(part), 1.2);  // near-balanced in the cut's own metric
}

TEST(Partition, DegreeBalancedKindRejectedByPlainConstructor) {
  testsupport::use_threadsafe_death_tests();
  EXPECT_DEATH(Partition(PartitionKind::DegreeBalanced1D, 10, 2),
               "degree_balanced");
}

TEST(Partition, KindNames) {
  EXPECT_STREQ(partition_kind_name(PartitionKind::Block1D), "block1d");
  EXPECT_STREQ(partition_kind_name(PartitionKind::Cyclic1D), "cyclic1d");
  EXPECT_STREQ(partition_kind_name(PartitionKind::DegreeBalanced1D),
               "degree1d");
  EXPECT_STREQ(partition_kind_name(PartitionKind::Grid2D), "grid2d");
}

TEST(Partition, DegreeBalancedOwnerAtPrefixSumTies) {
  // The O(log p) upper_bound lookup must resolve vertices sitting EXACTLY
  // on a cut to the right-hand rank, including through runs of empty ranks
  // (cuts_[r] == cuts_[r+1]) that a naive lower_bound would land inside.
  {
    // All-equal weights: every cut lands exactly on a prefix-sum tie.
    const std::vector<std::uint64_t> w(8, 2);
    const Partition part = Partition::degree_balanced(w, 4);
    for (std::uint32_t r = 0; r < 4; ++r) {
      EXPECT_EQ(part.owner(2 * r), r) << "first vertex of rank " << r;
      EXPECT_EQ(part.owner(2 * r + 1), r) << "last vertex of rank " << r;
    }
  }
  {
    // A hub exceeding the total fair share empties the tail ranks; the
    // boundary vertex after the hub must skip over none of its own rank
    // and the last vertices must not land in the empty ranks.
    const std::vector<std::uint64_t> w = {100, 1, 1};
    const Partition part = Partition::degree_balanced(w, 4);
    expect_partition_consistent(part);
    EXPECT_EQ(part.owner(0), 0u);
    EXPECT_EQ(part.owner(1), part.owner(1));  // resolves without aborting
    for (std::uint32_t r = 0; r < 4; ++r)
      for (VertexId l = 0; l < part.part_size(r); ++l)
        EXPECT_EQ(part.owner(part.global_id(r, l)), r);
  }
  {
    // Zero-weight run straddling a cut: the tie vertex belongs to the rank
    // whose range STARTS there (upper_bound semantics).
    const std::vector<std::uint64_t> w = {1, 0, 0, 1};
    const Partition part = Partition::degree_balanced(w, 2);
    expect_partition_consistent(part);
    EXPECT_EQ(part.owner(0), 0u);
    EXPECT_EQ(part.owner(3), 1u);
  }
}

// ---------------------------------------------------------------- grid2d ---

TEST(Grid2D, ShapeIsLargestDivisorBelowSqrt) {
  const std::pair<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>
      expected[] = {{1, {1, 1}}, {2, {1, 2}},  {4, {2, 2}},  {6, {2, 3}},
                    {7, {1, 7}}, {8, {2, 4}},  {12, {3, 4}}, {16, {4, 4}},
                    {18, {3, 6}}, {64, {8, 8}}};
  for (const auto& [p, shape] : expected) {
    const Partition part(PartitionKind::Grid2D, 100, p);
    EXPECT_EQ(part.grid_rows(), shape.first) << "p=" << p;
    EXPECT_EQ(part.grid_cols(), shape.second) << "p=" << p;
    EXPECT_EQ(part.grid_rows() * part.grid_cols(), p);
    EXPECT_EQ(part.col_blocks(), part.grid_cols());
  }
}

/// Grid2D invariants (the 2D analogue of expect_partition_consistent, which
/// cannot apply: every rank of a grid row reports the row block's size, so
/// Σ part_size = pc * n by design).
void expect_grid_consistent(const Partition& part) {
  const VertexId n = part.num_vertices();
  const std::uint32_t pr = part.grid_rows();
  const std::uint32_t pc = part.grid_cols();
  ASSERT_EQ(pr * pc, part.num_ranks());

  // Column blocks tile [0, n) contiguously and col_block_of inverts them.
  VertexId covered = 0;
  for (std::uint32_t b = 0; b < part.col_blocks(); ++b) {
    const auto [lo, hi] = part.col_block_range(b);
    ASSERT_EQ(lo, covered);
    ASSERT_LE(hi, n);
    for (VertexId v = lo; v < hi; ++v)
      ASSERT_EQ(part.col_block_of(v), b) << "vertex " << v;
    covered = hi;
  }
  ASSERT_EQ(covered, n);

  for (VertexId v = 0; v < n; ++v) {
    // The home rank is the (row block, column block) diagonal cell, and the
    // owner/local/global round trip holds through it.
    const std::uint32_t home = part.owner(v);
    ASSERT_EQ(part.grid_col(home), part.col_block_of(v));
    ASSERT_EQ(part.global_id(home, part.local_index(v)), v);
    // Every segment of v's row lives in v's grid row, one rank per column.
    for (std::uint32_t b = 0; b < part.col_blocks(); ++b) {
      const std::uint32_t so = part.segment_owner(v, b);
      ASSERT_EQ(part.grid_row(so), part.grid_row(home));
      ASSERT_EQ(part.grid_col(so), b);
      // All ranks of the grid row agree on v's slot.
      ASSERT_EQ(part.global_id(so, part.local_index(v)), v);
    }
  }

  // Ranks of one grid row report identical sizes; rows tile [0, n).
  VertexId row_total = 0;
  for (std::uint32_t r = 0; r < pr; ++r) {
    const VertexId sz = part.part_size(r * pc);
    for (std::uint32_t c = 1; c < pc; ++c)
      ASSERT_EQ(part.part_size(r * pc + c), sz);
    ASSERT_EQ(part.block_begin(r * pc), row_total);
    row_total += sz;
  }
  ASSERT_EQ(row_total, n);
}

TEST(Grid2D, PartitionConsistentAcrossShapes) {
  for (const VertexId n : {1u, 6u, 7u, 64u, 100u, 1023u})
    for (const std::uint32_t p : {1u, 2u, 4u, 6u, 7u, 8u, 12u, 16u}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << p);
      expect_grid_consistent(Partition(PartitionKind::Grid2D, n, p));
    }
}

TEST(Grid2D, EdgeOwnersTileTheAdjacencyMatrix) {
  // Every (u, v) pair belongs to exactly one rank: the (row block of u,
  // column block of v) grid cell — the edge-block ownership that lets each
  // rank store only its segment of every local row.
  const Partition part(PartitionKind::Grid2D, 20, 6);  // 2x3 grid
  for (VertexId u = 0; u < 20; ++u)
    for (VertexId v = 0; v < 20; ++v) {
      const std::uint32_t r = part.edge_owner(u, v);
      EXPECT_EQ(part.grid_row(r), part.grid_row(part.owner(u)));
      EXPECT_EQ(part.grid_col(r), part.col_block_of(v));
    }
}

TEST(Grid2D, FromCutsBuildsTheGivenGrid) {
  // Two row blocks and three column blocks, the middle one empty.
  const Partition part = Partition::from_cuts({0, 4, 10}, {0, 3, 3, 10});
  EXPECT_EQ(part.kind(), PartitionKind::Grid2D);
  EXPECT_EQ(part.num_ranks(), 6u);
  EXPECT_EQ(part.grid_rows(), 2u);
  EXPECT_EQ(part.grid_cols(), 3u);
  EXPECT_EQ(part.col_block_of(3), 2u);  // on a cut: the block that starts there
  EXPECT_EQ(part.part_size(4), 6u);
  EXPECT_EQ(part.segment_owner(5, 2), 5u);
  expect_grid_consistent(part);
  testsupport::use_threadsafe_death_tests();
  EXPECT_DEATH((void)Partition::from_cuts({0, 10}, {0, 9}), "same n");
  EXPECT_DEATH((void)Partition::from_cuts({0, 10}, {0, 6, 4, 10}),
               "must not decrease");
}

/// Brute-force column cuts of an upper-triangle TC grid: every edge (v, j)
/// adds the lengths of both rows' suffixes above j to column vertex j,
/// and the degree-balanced greedy cuts those weights into `cols` blocks.
std::vector<VertexId> trimmed_col_cuts(const CSRGraph& g, std::uint32_t cols) {
  std::vector<std::uint64_t> w(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (const VertexId j : g.neighbors(v))
      w[j] += intersect::suffix_above(g.neighbors(v), j).size() +
              intersect::suffix_above(g.neighbors(j), j).size();
  const Partition greedy = Partition::degree_balanced(w, cols);
  std::vector<VertexId> cuts;
  for (std::uint32_t b = 0; b < cols; ++b) cuts.push_back(greedy.block_begin(b));
  cuts.push_back(g.num_vertices());
  return cuts;
}

TEST(Grid2D, UpperTriangleCutsColumnsByTrimmedWork) {
  std::vector<CSRGraph> graphs;
  for (const std::uint64_t seed : {3u, 17u}) {
    auto e = generate_rmat({.scale = 8, .edge_factor = 8, .seed = seed});
    clean(e);
    graphs.push_back(CSRGraph::from_edges(e));
  }
  graphs.push_back(CSRGraph::from_edges(testsupport::complete_edges(8)));
  graphs.push_back(CSRGraph::from_edges(EdgeList(3, {}, Directedness::Undirected)));
  graphs.push_back(CSRGraph::from_edges(EdgeList(0, {}, Directedness::Undirected)));
  for (const CSRGraph& g : graphs) {
    const VertexId n = g.num_vertices();
    for (const std::uint32_t p : {1u, 2u, 4u, 6u, 7u, 8u, 9u, 12u}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << p);
      const Partition even(PartitionKind::Grid2D, n, p);
      const Partition trimmed = make_partition(g, PartitionKind::Grid2D, p, true);
      ASSERT_EQ(trimmed.kind(), PartitionKind::Grid2D);
      ASSERT_EQ(trimmed.grid_rows(), even.grid_rows());
      ASSERT_EQ(trimmed.grid_cols(), even.grid_cols());
      expect_grid_consistent(trimmed);
      // Column cuts: the brute-force reference, from 0 to n, never falling.
      const std::vector<VertexId> want = trimmed_col_cuts(g, even.grid_cols());
      VertexId last = 0;
      for (std::uint32_t b = 0; b < trimmed.grid_cols(); ++b) {
        const auto [lo, hi] = trimmed.col_block_range(b);
        ASSERT_EQ(lo, want[b]) << "column block " << b;
        ASSERT_EQ(hi, want[b + 1]) << "column block " << b;
        ASSERT_GE(lo, last);
        last = hi;
      }
      ASSERT_EQ(trimmed.col_block_range(0).first, 0u);
      ASSERT_EQ(last, n);
      // Row cuts stay even.
      for (std::uint32_t r = 0; r < p; ++r)
        ASSERT_EQ(trimmed.block_begin(r), even.block_begin(r)) << "rank " << r;
      // Without the flag Grid2D keeps its even column cuts.
      const Partition plain = make_partition(g, PartitionKind::Grid2D, p);
      for (std::uint32_t b = 0; b < plain.grid_cols(); ++b)
        ASSERT_EQ(plain.col_block_range(b), even.col_block_range(b));
      // Every 1D kind ignores the flag.
      for (const PartitionKind kind :
           {PartitionKind::Block1D, PartitionKind::DegreeBalanced1D}) {
        const Partition with = make_partition(g, kind, p, true);
        const Partition without = make_partition(g, kind, p);
        for (std::uint32_t r = 0; r < p; ++r)
          ASSERT_EQ(with.block_begin(r), without.block_begin(r));
      }
    }
  }
}

TEST(Grid2D, UpperTriangleMovesTheColumnCutOffEven) {
  // Trimmed work falls with j: a low j keeps most of every row above it.
  // So column 0 holds most of the work under even cuts, and the trimmed
  // cut lands below the even one.
  auto e = generate_rmat({.scale = 10, .edge_factor = 8, .seed = 5});
  clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  const Partition even(PartitionKind::Grid2D, g.num_vertices(), 4);
  const Partition trimmed = make_partition(g, PartitionKind::Grid2D, 4, true);
  EXPECT_LT(trimmed.col_block_range(1).first, even.col_block_range(1).first);
}

// ------------------------------------------------ degenerate shapes (all) ---

TEST(Partition, DegenerateShapesAllKinds) {
  const auto check = [](const CSRGraph& g, std::uint32_t p) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << g.num_vertices() << " p=" << p);
    for (const PartitionKind kind :
         {PartitionKind::Block1D, PartitionKind::Cyclic1D,
          PartitionKind::DegreeBalanced1D, PartitionKind::Grid2D}) {
      SCOPED_TRACE(partition_kind_name(kind));
      const Partition part = make_partition(g, kind, p);
      EXPECT_EQ(part.kind(), kind);
      EXPECT_EQ(part.num_vertices(), g.num_vertices());
      if (kind == PartitionKind::Grid2D)
        expect_grid_consistent(part);
      else
        expect_partition_consistent(part);
    }
  };

  // Empty graph: no vertices at all; every rank must come out empty.
  check(CSRGraph::from_edges(EdgeList(0, {}, Directedness::Undirected)), 4);
  // Fewer vertices than ranks (and than grid columns).
  check(CSRGraph::from_edges(EdgeList(3, {}, Directedness::Undirected)), 8);
  // Rank counts that are not perfect squares (rectangular + prime grids).
  {
    auto e = generate_rmat({.scale = 6, .edge_factor = 4, .seed = 5});
    clean(e);
    const CSRGraph g = CSRGraph::from_edges(e);
    for (const std::uint32_t p : {2u, 6u, 7u, 12u}) check(g, p);
  }
  // Single-vertex star: one hub owns every edge endpoint.
  {
    EdgeList e(9, {}, Directedness::Undirected);
    for (VertexId leaf = 1; leaf < 9; ++leaf) e.add_edge(0, leaf);
    e.symmetrize();
    check(CSRGraph::from_edges(e), 4);
  }
  // Full clique: perfectly uniform degrees.
  check(CSRGraph::from_edges(testsupport::complete_edges(8)), 4);
}

// ------------------------------------------------------------ hub replica ---

TEST(HubReplica, SelectsTopDegreeDeterministically) {
  auto e = generate_rmat({.scale = 9, .edge_factor = 8, .seed = 13});
  clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  const HubReplica h = HubReplica::build(g, 0.02);
  const auto expected = static_cast<std::size_t>(
      std::ceil(0.02 * static_cast<double>(g.num_vertices())));
  ASSERT_EQ(h.hub_ids().size(), expected);
  // The pick is exactly the top-k of the (degree desc, id asc) order, and
  // every replicated row mirrors the CSR verbatim.
  const auto order = vertices_by_degree_desc(g);
  std::set<VertexId> want(order.begin(),
                          order.begin() + static_cast<long>(expected));
  for (const VertexId v : h.hub_ids()) {
    EXPECT_TRUE(want.contains(v)) << "vertex " << v;
    const auto row = h.neighbors_at(h.find(v));
    const auto ref = g.neighbors(v);
    ASSERT_EQ(row.size(), ref.size());
    for (std::size_t i = 0; i < row.size(); ++i) ASSERT_EQ(row[i], ref[i]);
  }
  EXPECT_EQ(h.find(order.back()), HubReplica::npos);  // lightest vertex
}

TEST(HubReplica, ZeroFractionIsEmptyAndFree) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  const HubReplica h = HubReplica::build(g, 0.0);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.find(0), HubReplica::npos);
}

TEST(HubReplica, TinyGraphPositiveFractionReplicatesAtLeastOne) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  const HubReplica h = HubReplica::build(g, 0.001);  // ceil(0.001 * 6) = 1
  EXPECT_EQ(h.hub_ids().size(), 1u);
}

TEST(HubReplica, FractionAboveOneOrNanAborts) {
  testsupport::use_threadsafe_death_tests();
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  EXPECT_DEATH((void)HubReplica::build(
                   g, std::numeric_limits<double>::quiet_NaN()),
               "hub fraction");
  EXPECT_DEATH((void)HubReplica::build(g, 2.0), "hub fraction");
}

TEST(HubReplica, ApplyMaintainsSortedRows) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  HubReplica h = HubReplica::build(g, 1.0);  // replicate everything
  ASSERT_NE(h.find(2), HubReplica::npos);
  const auto before = h.neighbors_at(h.find(2)).size();
  EXPECT_GT(h.apply(2, 5, true), 0u);   // insert edge (2,5)
  EXPECT_GT(h.apply(5, 2, true), 0u);
  const std::uint64_t bytes = h.apply(2, 0, false);  // delete (2,0)
  EXPECT_EQ(bytes, h.neighbors_at(h.find(2)).size() * sizeof(VertexId));
  const auto row = h.neighbors_at(h.find(2));
  EXPECT_EQ(row.size(), before);  // +1 insert, -1 delete
  EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  EXPECT_TRUE(std::binary_search(row.begin(), row.end(), 5u));
  EXPECT_FALSE(std::binary_search(row.begin(), row.end(), 0u));
  // Non-hub endpoints are a priced-at-zero no-op.
  HubReplica none = HubReplica::build(g, 0.0);
  EXPECT_EQ(none.apply(2, 5, true), 0u);
}

// ----------------------------------------------------------- references ---

TEST(Reference, PaperExampleTriangles) {
  // Fig. 1 graph: triangles {0,1,2}, {2,3,4}, {3,4,5}.
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  const LccResult r = reference_lcc(g);
  EXPECT_EQ(r.global_triangles, 3u);
  // Vertex 2 (degree 4) participates in 2 triangles:
  // t = 2*tri = 4; LCC = 4 / (4*3) = 1/3.
  EXPECT_DOUBLE_EQ(r.lcc[2], 1.0 / 3.0);
  // Vertex 0 (degree 2) in 1 triangle: LCC = 2/(2*1) = 1.
  EXPECT_DOUBLE_EQ(r.lcc[0], 1.0);
}

TEST(Reference, CompleteGraphLccIsOne) {
  const CSRGraph g = CSRGraph::from_edges(complete(6));
  const LccResult r = reference_lcc(g);
  EXPECT_EQ(r.global_triangles, 20u);  // C(6,3)
  for (double c : r.lcc) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(Reference, TriangleFreeGraphScoresZero) {
  // Star graph: no triangles.
  EdgeList e(5, {}, Directedness::Undirected);
  for (VertexId v = 1; v < 5; ++v) {
    e.add_edge(0, v);
    e.add_edge(v, 0);
  }
  const LccResult r = reference_lcc(CSRGraph::from_edges(e));
  EXPECT_EQ(r.global_triangles, 0u);
  for (double c : r.lcc) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(Reference, NaiveAgreesOnRandomGraphs) {
  for (std::uint64_t seed : {1, 2, 3}) {
    auto e = generate_rmat({.scale = 7, .edge_factor = 6, .seed = seed});
    clean(e);
    const CSRGraph g = CSRGraph::from_edges(e);
    const LccResult fast = reference_lcc(g);
    const LccResult naive = naive_lcc(g);
    EXPECT_EQ(fast.global_triangles, naive.global_triangles);
    EXPECT_EQ(fast.triangles, naive.triangles);
  }
}

TEST(Reference, DirectedTransitiveTriad) {
  // 0->1, 0->2, 1->2: one transitive triad with apex 0.
  EdgeList e(3, {{0, 1}, {0, 2}, {1, 2}}, Directedness::Directed);
  const CSRGraph g = CSRGraph::from_edges(e);
  const LccResult r = reference_lcc(g);
  EXPECT_EQ(r.global_triangles, 1u);
  // Apex 0: deg+ = 2, t = 1, LCC = 1/(2*1) = 0.5 (paper Eq. 1).
  EXPECT_DOUBLE_EQ(r.lcc[0], 0.5);
  EXPECT_DOUBLE_EQ(r.lcc[1], 0.0);
}

TEST(Reference, DirectedCycleHasNoTransitiveTriad) {
  EdgeList e(3, {{0, 1}, {1, 2}, {2, 0}}, Directedness::Directed);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_EQ(reference_lcc(g).global_triangles, 0u);
}

TEST(LccScore, DegreeBelowTwoIsZero) {
  EXPECT_DOUBLE_EQ(lcc_score(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(lcc_score(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(lcc_score(2, 2), 1.0);
}

// ---------------------------------------------------------- degree stats ---

TEST(DegreeStats, UniformVsPowerLawGini) {
  const CSRGraph k = CSRGraph::from_edges(complete(8));
  const auto s = degree_stats(k);
  EXPECT_NEAR(s.gini, 0.0, 1e-9);  // all degrees equal
  EXPECT_EQ(s.min, 7u);
  EXPECT_EQ(s.max, 7u);
}

TEST(DegreeStats, TopDegreeShareConcentratesOnHubs) {
  auto e = generate_rmat({.scale = 10, .edge_factor = 8, .seed = 4});
  clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  // Weight each vertex by its degree: the top-10% must hold well over 10%.
  std::vector<std::uint64_t> w(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) w[v] = g.degree(v);
  EXPECT_GT(top_degree_share(g, w, 0.10), 0.3);
}

TEST(DegreeStats, VerticesByDegreeDescSorted) {
  auto e = generate_rmat({.scale = 8, .edge_factor = 4, .seed = 6});
  clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  const auto order = vertices_by_degree_desc(g);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(g.degree(order[i - 1]), g.degree(order[i]));
}

// ----------------------------------------------------------------- DODG ---

/// Star hub 0 with leaves 1..8 plus the triangle {1,2,3}: the hub has the
/// highest degree, so every one of its edges orients toward it and its
/// DODG out-degree is zero (a sink row the engine must stream past).
CSRGraph sink_fixture() {
  EdgeList e(9, {}, Directedness::Undirected);
  for (VertexId v = 1; v < 9; ++v) e.add_edge(0, v);
  e.add_edge(1, 2);
  e.add_edge(2, 3);
  e.add_edge(1, 3);
  e.symmetrize();
  return CSRGraph::from_edges(e);
}

TEST(Dodg, PrecedesOrdersByDegreeThenId) {
  EXPECT_TRUE(dodg_precedes(2, 5, 3, 1));   // lower degree wins
  EXPECT_FALSE(dodg_precedes(3, 1, 2, 5));
  EXPECT_TRUE(dodg_precedes(3, 1, 3, 2));   // tie broken by id
  EXPECT_FALSE(dodg_precedes(3, 2, 3, 1));
  EXPECT_FALSE(dodg_precedes(3, 1, 3, 1));  // irreflexive
}

TEST(Dodg, OrientationHalvesEdgesAndKeepsRowsSorted) {
  for (const CSRGraph& g :
       {CSRGraph::from_edges(paper_example()), testsupport::rmat_graph(8, 8, 17),
        sink_fixture()}) {
    const CSRGraph d = orient_dodg(g);
    EXPECT_EQ(d.directedness(), Directedness::Directed);
    EXPECT_EQ(d.num_vertices(), g.num_vertices());
    EXPECT_EQ(d.num_edges(), g.num_edges() / 2);  // one arc per edge
    EXPECT_TRUE(d.adjacency_sorted_unique());
  }
}

TEST(Dodg, OrientationIsAcyclic) {
  // Every arc strictly ascends the total (degree, id) order of the source
  // graph, so no directed cycle can exist.
  for (const CSRGraph& g :
       {CSRGraph::from_edges(paper_example()), testsupport::rmat_graph(8, 8, 18),
        sink_fixture()}) {
    const CSRGraph d = orient_dodg(g);
    for (VertexId u = 0; u < d.num_vertices(); ++u)
      for (const VertexId v : d.neighbors(u))
        ASSERT_TRUE(dodg_precedes(g.degree(u), u, g.degree(v), v))
            << "arc " << u << "->" << v;
  }
}

TEST(Dodg, OutDegreesBoundedBySqrtM) {
  // outdeg(v) <= min(deg(v), 2m/deg(v)) <= sqrt(2m); with m counted in
  // stored arcs (both directions) the bound reads sqrt(num_edges()).
  const CSRGraph g = testsupport::rmat_graph(10, 16, 19);
  const CSRGraph d = orient_dodg(g);
  const auto bound = static_cast<VertexId>(
      std::ceil(std::sqrt(static_cast<double>(g.num_edges()))));
  EXPECT_LE(degree_stats(d).max, bound);
  // The bound actually bites on a skewed graph: the undirected hub rows
  // are far above it.
  EXPECT_GT(degree_stats(g).max, bound);
}

TEST(Dodg, SinkFixtureHubHasZeroOutDegree) {
  const CSRGraph g = sink_fixture();
  const CSRGraph d = orient_dodg(g);
  EXPECT_EQ(d.degree(0), 0u);
  // {1,2,3} plus the three triangles each triangle edge closes via the hub.
  EXPECT_EQ(reference_lcc(g).global_triangles, 4u);
}

TEST(Dodg, TcMatchesUndirectedReferenceAcrossRanks) {
  const CSRGraph fixtures[] = {CSRGraph::from_edges(paper_example()),
                               testsupport::rmat_graph(7, 8, 20),
                               sink_fixture()};
  for (const CSRGraph& g : fixtures) {
    const auto expected = reference_lcc(g).global_triangles;
    for (const std::uint32_t ranks : {1u, 2u, 4u, 8u}) {
      constexpr auto kBlock = graph::PartitionKind::Block1D;
      EXPECT_EQ(core::run_distributed_tc_result(g, ranks, {}, {}, kBlock,
                                                /*orient_dodg=*/true)
                    .global_triangles,
                expected)
          << "ranks " << ranks;
      // The tiered kernels must agree on the same oriented stream.
      core::EngineConfig tiered_cfg;
      tiered_cfg.intersect_tier = intersect::Tier::Tiered;
      EXPECT_EQ(core::run_distributed_tc_result(g, ranks, tiered_cfg, {},
                                                kBlock, /*orient_dodg=*/true)
                    .global_triangles,
                expected)
          << "ranks " << ranks << " (tiered)";
    }
  }
}

TEST(Dodg, RequiresUndirectedInput) {
  testsupport::use_threadsafe_death_tests();
  EdgeList e(3, {{0, 1}, {1, 2}}, Directedness::Directed);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_DEATH((void)orient_dodg(g), "undirected");
}

}  // namespace
}  // namespace atlc::graph
