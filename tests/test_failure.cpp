// Failure injection and pathological-input robustness: rank crashes at
// every phase of the SPMD lifecycle, degenerate graphs through every
// engine, and hostile cache configurations.
#include <gtest/gtest.h>

#include <stdexcept>

#include "atlc/clampi/cache.hpp"
#include "atlc/core/lcc.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/rma/runtime.hpp"
#include "atlc/tric/tric.hpp"

namespace atlc {
namespace {

using graph::CSRGraph;
using graph::Directedness;
using graph::EdgeList;

// ------------------------------------------------------- rank crash paths ---

rma::Runtime::Options opts(std::uint32_t ranks) {
  rma::Runtime::Options o;
  o.ranks = ranks;
  return o;
}

TEST(FailureInjection, CrashBeforeWindowCreation) {
  EXPECT_THROW(
      rma::Runtime::run(opts(4),
                        [&](rma::RankCtx& ctx) {
                          if (ctx.rank() == 0)
                            throw std::runtime_error("early death");
                          std::vector<int> local(8, 1);
                          (void)ctx.create_window<int>(local);  // collective
                        }),
      std::runtime_error);
}

TEST(FailureInjection, CrashAfterWindowCreation) {
  // Exposed buffers must outlive every remote access (DESIGN.md §3) even
  // when the owner dies mid-epoch: rank 3 unwinds while its peers still
  // get from its window, so the storage lives outside the rank bodies.
  std::vector<std::vector<int>> local(4, std::vector<int>(8, 1));
  EXPECT_THROW(
      rma::Runtime::run(opts(4),
                        [&](rma::RankCtx& ctx) {
                          auto win = ctx.create_window<int>(
                              std::span<const int>(local[ctx.rank()]));
                          if (ctx.rank() == 3)
                            throw std::runtime_error("post-window death");
                          int buf;
                          ctx.flush(win.get((ctx.rank() + 1) % 4, 0, 1, &buf));
                          ctx.barrier();
                        }),
      std::runtime_error);
}

TEST(FailureInjection, CrashInsideAllToAll) {
  EXPECT_THROW(
      rma::Runtime::run(opts(3),
                        [&](rma::RankCtx& ctx) {
                          if (ctx.rank() == 1)
                            throw std::runtime_error("a2a death");
                          std::vector<std::vector<std::uint32_t>> out(3);
                          (void)ctx.all_to_all(out);
                        }),
      std::runtime_error);
}

TEST(FailureInjection, AllRanksCrashFirstErrorWins) {
  EXPECT_THROW(rma::Runtime::run(opts(8),
                                 [&](rma::RankCtx&) {
                                   throw std::logic_error("boom");
                                 }),
               std::logic_error);
}

TEST(FailureInjection, RuntimeReusableAfterFailure) {
  try {
    rma::Runtime::run(opts(4), [&](rma::RankCtx& ctx) {
      if (ctx.rank() == 2) throw std::runtime_error("x");
      ctx.barrier();
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  // A fresh run right after a poisoned one must work normally.
  std::atomic<int> count{0};
  rma::Runtime::run(opts(4), [&](rma::RankCtx& ctx) {
    ctx.barrier();
    ++count;
  });
  EXPECT_EQ(count.load(), 4);
}

// ------------------------------------------------------ degenerate graphs ---

CSRGraph tiny(std::initializer_list<std::pair<int, int>> edges, int n) {
  EdgeList e(static_cast<graph::VertexId>(n), {}, Directedness::Undirected);
  for (auto [u, v] : edges) {
    e.add_edge(static_cast<graph::VertexId>(u),
               static_cast<graph::VertexId>(v));
  }
  e.symmetrize();
  return CSRGraph::from_edges(e);
}

TEST(DegenerateGraphs, SingleTriangleManyRanks) {
  const auto g = tiny({{0, 1}, {1, 2}, {2, 0}}, 3);
  // More ranks than vertices: some ranks own nothing.
  const auto r = core::run_distributed_lcc(g, 8);
  EXPECT_EQ(r.global_triangles, 1u);
  for (double c : r.lcc) EXPECT_DOUBLE_EQ(c, 1.0);
  EXPECT_EQ(tric::run_tric(g, 8).global_triangles, 1u);
}

TEST(DegenerateGraphs, PathGraphHasNoTriangles) {
  const auto g = tiny({{0, 1}, {1, 2}, {2, 3}, {3, 4}}, 5);
  EXPECT_EQ(core::run_distributed_lcc(g, 3).global_triangles, 0u);
  EXPECT_EQ(tric::run_tric(g, 3).global_triangles, 0u);
}

TEST(DegenerateGraphs, BipartiteIsTriangleFree) {
  // K_{3,3}: plenty of edges, zero triangles (odd cycles only).
  EdgeList e(6, {}, Directedness::Undirected);
  for (int a = 0; a < 3; ++a)
    for (int b = 3; b < 6; ++b)
      e.add_edge(static_cast<graph::VertexId>(a),
                 static_cast<graph::VertexId>(b));
  e.symmetrize();
  const auto g = CSRGraph::from_edges(e);
  const auto r = core::run_distributed_lcc(g, 4);
  EXPECT_EQ(r.global_triangles, 0u);
  for (double c : r.lcc) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(DegenerateGraphs, CompleteGraphEveryEngine) {
  EdgeList e(8, {}, Directedness::Undirected);
  for (graph::VertexId u = 0; u < 8; ++u)
    for (graph::VertexId v = u + 1; v < 8; ++v) e.add_edge(u, v);
  e.symmetrize();
  const auto g = CSRGraph::from_edges(e);
  const std::uint64_t expect = 8 * 7 * 6 / 6;  // C(8,3)
  EXPECT_EQ(core::run_distributed_lcc(g, 3).global_triangles, expect);
  EXPECT_EQ(core::run_distributed_tc(g, 5), expect);
  EXPECT_EQ(tric::run_tric(g, 3).global_triangles, expect);
}

TEST(DegenerateGraphs, SingleRankOwnsEverything) {
  auto e = graph::generate_rmat({.scale = 7, .edge_factor = 8, .seed = 5});
  graph::clean(e);
  const auto g = CSRGraph::from_edges(e);
  const auto r = core::run_distributed_lcc(g, 1);
  EXPECT_EQ(r.remote_edges, 0u);  // no remote partition exists
  EXPECT_EQ(r.run.total().remote_gets, 0u);
  EXPECT_EQ(r.global_triangles, graph::reference_lcc(g).global_triangles);
}

TEST(DegenerateGraphs, CachedRunOnTriangleFreeGraph) {
  const auto g = tiny({{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 4);  // 4-cycle
  core::EngineConfig cfg;
  cfg.use_cache = true;
  cfg.cache_sizing.offsets_bytes = 64;  // pathologically tiny caches
  cfg.cache_sizing.adj_bytes = 64;
  const auto r = core::run_distributed_lcc(g, 2, cfg);
  EXPECT_EQ(r.global_triangles, 0u);
}

// --------------------------------------------------- hostile cache configs ---

TEST(HostileCache, SingleSlotTable) {
  clampi::CacheConfig cfg;
  cfg.buffer_bytes = 4096;
  cfg.hash_slots = 1;
  cfg.probe_limit = 1;
  clampi::Cache cache(cfg);
  // Everything maps to the one slot; behaviour must stay correct.
  for (std::uint32_t i = 0; i < 100; ++i) {
    const clampi::Key k{0, i * 64, 64};
    if (!cache.lookup(k)) (void)cache.insert(k);
  }
  EXPECT_LE(cache.num_entries(), 1u);
}

TEST(HostileCache, EntryExactlyBufferSize) {
  clampi::CacheConfig cfg;
  cfg.buffer_bytes = 256;
  cfg.hash_slots = 8;
  clampi::Cache cache(cfg);
  EXPECT_TRUE(cache.insert({0, 0, 256}));
  EXPECT_TRUE(cache.lookup({0, 0, 256}));
  // A second full-buffer entry displaces the first entirely.
  EXPECT_TRUE(cache.insert({0, 999, 256}));
  EXPECT_FALSE(cache.lookup({0, 0, 256}));
}

TEST(HostileCache, ZeroByteEntriesRejected) {
  // Contract: empty payloads are never cached (nothing to save, and a
  // zero-byte allocation would break the buffer-layout tiling).
  clampi::Cache cache({.buffer_bytes = 128, .hash_slots = 8});
  EXPECT_FALSE(cache.insert({0, 0, 0}));
  EXPECT_FALSE(cache.lookup({0, 0, 0}));
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST(HostileCache, ManyFlushCycles) {
  clampi::Cache cache({.buffer_bytes = 1024, .hash_slots = 32});
  for (int round = 0; round < 50; ++round) {
    for (std::uint32_t i = 0; i < 8; ++i)
      ASSERT_TRUE(cache.insert({0, i * 64, 64}));
    for (std::uint32_t i = 0; i < 8; ++i)
      ASSERT_TRUE(cache.lookup({0, i * 64, 64}));
    cache.flush();
    ASSERT_EQ(cache.num_entries(), 0u);
  }
  EXPECT_EQ(cache.stats().flushes, 50u);
}

TEST(HostileCache, TricWithOneEntryBuffers) {
  // Buffered TriC with absurdly small buffers must still be correct,
  // just with many rounds.
  auto e = graph::generate_rmat({.scale = 6, .edge_factor = 6, .seed = 8});
  graph::clean(e);
  const auto g = CSRGraph::from_edges(e);
  tric::TricConfig cfg;
  cfg.buffer_entries = 8;
  const auto r = tric::run_tric(g, 4, cfg);
  EXPECT_EQ(r.global_triangles, graph::reference_lcc(g).global_triangles);
  EXPECT_GT(r.rounds, 2u);
}

}  // namespace
}  // namespace atlc
