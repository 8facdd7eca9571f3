// atlc::stream validation: after every batch the incrementally maintained
// triangle counts and LCC must match a from-scratch reference recount of
// the evolved graph BIT-IDENTICALLY — across rank counts, both partition
// kinds, caching on and off, for insertions, deletions, mixed batches,
// intra-batch duplicates and partition-straddling edges. Plus the epoch
// contract: a cached entry from before a refresh_window bump is never
// served (stale_evictions observed instead).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "atlc/graph/clean.hpp"
#include "atlc/graph/degree_stats.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/stream/stream_engine.hpp"
#include "atlc/stream/update.hpp"
#include "test_support.hpp"

namespace atlc {
namespace {

using graph::CSRGraph;
using graph::Directedness;
using graph::EdgeList;
using graph::VertexId;
using stream::Batch;
using stream::EdgeUpdate;
using stream::Op;

EdgeList edge_list_of(const CSRGraph& g) {
  EdgeList e(g.num_vertices(), {}, Directedness::Undirected);
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (VertexId v : g.neighbors(u)) e.add_edge(u, v);
  return e;
}

/// Drive the streaming engine over `batches` and assert every per-batch
/// snapshot equals the single-node reference recount of the equivalently
/// evolved edge list. (gtest ASSERTs require a void function; the result
/// lands in `*out` for callers inspecting stats.)
void expect_stream_matches_reference(const CSRGraph& g,
                                     const std::vector<Batch>& batches,
                                     std::uint32_t ranks,
                                     stream::StreamOptions opts,
                                     stream::StreamResult* out = nullptr) {
  opts.record_snapshots = true;
  const auto result = stream::run_streaming_lcc(g, batches, ranks, opts);

  EdgeList evolved = edge_list_of(g);
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    stream::apply_to_edge_list(evolved, batches[bi]);
    const auto ref = graph::reference_lcc(CSRGraph::from_edges(evolved));
    const auto& snap = result.batches[bi];
    EXPECT_EQ(snap.global_triangles, ref.global_triangles)
        << "batch " << bi;
    ASSERT_EQ(snap.triangles.size(), ref.triangles.size());
    for (std::size_t v = 0; v < ref.triangles.size(); ++v) {
      ASSERT_EQ(snap.triangles[v], ref.triangles[v])
          << "batch " << bi << " vertex " << v;
      ASSERT_DOUBLE_EQ(snap.lcc[v], ref.lcc[v])
          << "batch " << bi << " vertex " << v;
    }
  }
  // Final state mirrors the last snapshot.
  if (!batches.empty()) {
    EXPECT_EQ(result.triangles, result.batches.back().triangles);
    EXPECT_EQ(result.global_triangles,
              result.batches.back().global_triangles);
  }
  if (out) *out = result;
}

stream::StreamOptions make_opts(const CSRGraph& g, bool cache,
                                graph::PartitionKind partition) {
  stream::StreamOptions opts;
  opts.partition = partition;
  if (cache) {
    opts.engine.use_cache = true;
    opts.engine.cache_sizing =
        core::CacheSizing::paper_default(g.num_vertices(), g.csr_bytes() / 3);
  }
  return opts;
}

// ------------------------------------------------------- targeted batches ---

TEST(Stream, InsertionsCreateTriangles) {
  // Paper example (Fig. 1): 3 triangles. Insert edge (1,3): adds triangles
  // {1,2,3} and {1,3,4}? 1-2 yes, 2-3 yes -> {1,2,3}; 1-4? no edge.
  const CSRGraph g = testsupport::paper_example();
  const std::vector<Batch> batches = {{{1, 3, Op::Insert}},
                                      {{0, 4, Op::Insert}}};
  for (const std::uint32_t p : {1u, 2u, 3u}) {
    expect_stream_matches_reference(g, batches, p,
                                    make_opts(g, false,
                                              graph::PartitionKind::Block1D));
  }
}

TEST(Stream, DeletionsDestroyTriangles) {
  const CSRGraph g = testsupport::paper_example();
  // Drop the bridge edges, then a triangle edge.
  const std::vector<Batch> batches = {{{2, 4, Op::Delete}},
                                      {{3, 4, Op::Delete}, {0, 1, Op::Delete}}};
  for (const std::uint32_t p : {1u, 2u, 3u}) {
    expect_stream_matches_reference(g, batches, p,
                                    make_opts(g, false,
                                              graph::PartitionKind::Block1D));
  }
}

TEST(Stream, IntraBatchSharedTriangleEdgesNotDoubleCounted) {
  // A fully-new triangle (all three edges in one batch) and a wedge closed
  // by two new edges must each count exactly once.
  EdgeList e(8, {}, Directedness::Undirected);
  e.add_edge(4, 5);  // existing wedge base for {4,5,6} needs (4,6),(5,6)
  e.symmetrize();
  const CSRGraph g = CSRGraph::from_edges(e);
  const std::vector<Batch> batches = {
      // triangle {0,1,2} entirely new + wedge closure {4,5,6} via 2 edges
      {{0, 1, Op::Insert},
       {1, 2, Op::Insert},
       {0, 2, Op::Insert},
       {4, 6, Op::Insert},
       {5, 6, Op::Insert}},
      // and destroy both, again with shared in-batch edges
      {{0, 1, Op::Delete}, {0, 2, Op::Delete}, {4, 6, Op::Delete}}};
  for (const std::uint32_t p : {1u, 2u, 4u}) {
    expect_stream_matches_reference(g, batches, p,
                                    make_opts(g, false,
                                              graph::PartitionKind::Cyclic1D));
  }
}

TEST(Stream, IntraBatchDuplicatesAndNoOps) {
  const CSRGraph g = testsupport::paper_example();
  const std::vector<Batch> batches = {
      // duplicate insert, insert of a present edge, delete of an absent
      // edge, and insert-then-delete (nets to a no-op on an absent edge)
      {{1, 3, Op::Insert},
       {1, 3, Op::Insert},
       {0, 1, Op::Insert},
       {0, 5, Op::Delete},
       {2, 5, Op::Insert},
       {2, 5, Op::Delete}},
      // delete-then-insert of a present edge nets to a (no-op) insert
      {{0, 1, Op::Delete}, {0, 1, Op::Insert}, {1, 3, Op::Delete}}};
  for (const std::uint32_t p : {1u, 2u, 4u}) {
    stream::StreamResult r;
    expect_stream_matches_reference(
        g, batches, p, make_opts(g, false, graph::PartitionKind::Block1D),
        &r);
    // The second batch nets to exactly one effective op (the 1-3 delete).
    EXPECT_EQ(r.batches[1].effective_insertions, 0u);
    EXPECT_EQ(r.batches[1].effective_deletions, 1u);
  }
}

TEST(Stream, EntirelyNoOpBatchSkipsRepublication) {
  const CSRGraph g = testsupport::paper_example();
  const std::vector<Batch> batches = {
      {{0, 1, Op::Insert}, {3, 5, Op::Insert}, {0, 4, Op::Delete}}};
  stream::StreamResult r;
  expect_stream_matches_reference(
      g, batches, 2, make_opts(g, true, graph::PartitionKind::Block1D), &r);
  EXPECT_EQ(r.batches[0].effective_insertions, 0u);
  EXPECT_EQ(r.batches[0].effective_deletions, 0u);
  EXPECT_EQ(r.batches[0].rows_rebuilt, 0u);
  // No epoch bump -> nothing went stale.
  EXPECT_EQ(r.adj_cache_total.stale_evictions, 0u);
  EXPECT_EQ(r.offsets_cache_total.stale_evictions, 0u);
}

TEST(Stream, PartitionStraddlingEdges) {
  // Block1D over 2 ranks of the paper example splits {0,1,2} | {3,4,5};
  // every update below crosses the boundary.
  const CSRGraph g = testsupport::paper_example();
  const std::vector<Batch> batches = {
      {{1, 3, Op::Insert}, {0, 4, Op::Insert}},
      {{2, 3, Op::Delete}, {1, 3, Op::Delete}, {2, 5, Op::Insert}}};
  for (const bool cache : {false, true}) {
    expect_stream_matches_reference(
        g, batches, 2, make_opts(g, cache, graph::PartitionKind::Block1D));
  }
}

// --------------------------------------------------------- matrix sweeps ---

struct SweepCase {
  std::uint32_t ranks;
  graph::PartitionKind partition;
  bool cache;
};

std::string sweep_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const auto& c = info.param;
  return "p" + std::to_string(c.ranks) +
         (c.partition == graph::PartitionKind::Block1D ? "_block"
                                                       : "_cyclic") +
         (c.cache ? "_cached" : "_plain");
}

class StreamMatrix : public ::testing::TestWithParam<SweepCase> {};

TEST_P(StreamMatrix, GeneratedWorkloadMatchesReferencePerBatch) {
  const auto& c = GetParam();
  const CSRGraph g = testsupport::rmat_graph(7, 6, 51);
  stream::WorkloadConfig wl;
  wl.num_batches = 3;
  wl.batch_size = 48;
  wl.insert_fraction = 0.6;
  wl.seed = 7;
  const auto batches = stream::generate_batches(g, wl);
  expect_stream_matches_reference(g, batches, c.ranks,
                                  make_opts(g, c.cache, c.partition));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamMatrix,
    ::testing::Values(
        SweepCase{1, graph::PartitionKind::Block1D, false},
        SweepCase{1, graph::PartitionKind::Cyclic1D, true},
        SweepCase{2, graph::PartitionKind::Block1D, false},
        SweepCase{2, graph::PartitionKind::Cyclic1D, false},
        SweepCase{2, graph::PartitionKind::Block1D, true},
        SweepCase{4, graph::PartitionKind::Block1D, false},
        SweepCase{4, graph::PartitionKind::Cyclic1D, true},
        SweepCase{4, graph::PartitionKind::Block1D, true},
        SweepCase{8, graph::PartitionKind::Block1D, true},
        SweepCase{8, graph::PartitionKind::Cyclic1D, false}),
    sweep_name);

// --------------------------------------------------------- hub replication ---

TEST(StreamHubs, ParityWithHubReplicationAcrossRanks) {
  // With hub rows replicated AND mutated by batches, every per-batch
  // snapshot must still match the reference recount bit-identically: the
  // replica is maintained inside the same collective apply step that
  // republishes the windows (DESIGN.md §8).
  const CSRGraph g = testsupport::rmat_graph(7, 6, 58);
  stream::WorkloadConfig wl;
  wl.num_batches = 3;
  wl.batch_size = 48;
  wl.insert_fraction = 0.55;
  wl.seed = 21;
  const auto batches = stream::generate_batches(g, wl);
  for (const std::uint32_t p : {1u, 2u, 4u}) {
    for (const auto kind : {graph::PartitionKind::Block1D,
                            graph::PartitionKind::DegreeBalanced1D}) {
      for (const bool cache : {false, true}) {
        auto opts = make_opts(g, cache, kind);
        opts.engine.hub_fraction = 0.03;
        stream::StreamResult r;
        expect_stream_matches_reference(g, batches, p, opts, &r);
        if (p > 1) {
          // Hubs actually served fetches; a broken fast path that never
          // triggers would vacuously pass the parity check.
          EXPECT_GT(r.run.total().hub_local_hits, 0u)
              << "p=" << p << " cache=" << cache;
        }
      }
    }
  }
}

TEST(StreamHubs, HubHeavyBatchesKeepReplicaConsistent) {
  // Target the highest-degree vertex directly: delete and re-insert edges
  // incident to it so the replica rows themselves are rewritten each batch.
  const CSRGraph g = testsupport::rmat_graph(7, 8, 59);
  const auto order = graph::vertices_by_degree_desc(g);
  const VertexId hub = order[0];
  const auto nbrs = g.neighbors(hub);
  ASSERT_GE(nbrs.size(), 4u);
  const std::vector<Batch> batches = {
      {{hub, nbrs[0], Op::Delete}, {hub, nbrs[1], Op::Delete}},
      {{hub, nbrs[0], Op::Insert}, {hub, nbrs[2], Op::Delete}},
      {{hub, nbrs[1], Op::Insert}, {hub, nbrs[2], Op::Insert}}};
  for (const std::uint32_t p : {2u, 4u}) {
    auto opts = make_opts(g, true, graph::PartitionKind::DegreeBalanced1D);
    opts.engine.hub_fraction = 0.02;
    stream::StreamResult r;
    expect_stream_matches_reference(g, batches, p, opts, &r);
    EXPECT_GT(r.run.total().hub_local_hits, 0u);
  }
}

// ----------------------------------------------------------- epoch safety ---

TEST(StreamEpochs, StaleEntriesRecycledNeverServed) {
  // Cached run over several mutating batches: the cold count populates the
  // caches, every mutating batch bumps both window epochs, and the next
  // batch's fetches probe pre-bump entries. Correctness of every per-batch
  // snapshot (checked against the reference) proves no stale payload was
  // ever served; the stats prove stale entries were actually encountered
  // and recycled rather than silently missing.
  const CSRGraph g = testsupport::rmat_graph(7, 8, 52);
  stream::WorkloadConfig wl;
  wl.num_batches = 4;
  wl.batch_size = 64;
  wl.insert_fraction = 0.5;
  wl.seed = 11;
  const auto batches = stream::generate_batches(g, wl);
  auto opts = make_opts(g, true, graph::PartitionKind::Block1D);
  // Ample budget: without epoch checks everything would hit after warmup.
  opts.engine.cache_sizing =
      core::CacheSizing::paper_default(g.num_vertices(), 4 * g.csr_bytes());
  stream::StreamResult r;
  expect_stream_matches_reference(g, batches, 4, opts, &r);
  EXPECT_GT(r.offsets_cache_total.stale_evictions, 0u);
  // Both windows key an entry by its remote row, so a C_adj entry is
  // recycled on its row's next probe even when a batch moved the row's
  // start, and C_adj recycles about as many entries as C_offsets. (Keyed
  // by the row's start, it would recycle only rows that no batch moved: a
  // few, so `> 0` alone would not tell.) And each row's first probe is the
  // one compulsory miss in each window (an undirected graph fetches no
  // empty row).
  EXPECT_GE(2 * r.adj_cache_total.stale_evictions,
            r.offsets_cache_total.stale_evictions);
  EXPECT_EQ(r.adj_cache_total.compulsory_misses,
            r.offsets_cache_total.compulsory_misses);
  // Epoch recycling reports through the miss machinery, never as hits of
  // old payloads: every stale eviction implies a re-fetch, so misses must
  // at least cover the stale count.
  EXPECT_GE(r.adj_cache_total.misses + r.offsets_cache_total.misses,
            r.adj_cache_total.stale_evictions +
                r.offsets_cache_total.stale_evictions);
}

TEST(StreamEpochs, CacheSurvivesNonMutatingTraffic) {
  // Two identical no-op batches after a cached cold start: epochs never
  // advance, so nothing is recycled.
  const CSRGraph g = testsupport::rmat_graph(6, 6, 53);
  // Inserting an edge that already exists is a no-op; pick a present one.
  const VertexId u = 0;
  const VertexId v = g.neighbors(0).empty() ? 1 : g.neighbors(0)[0];
  const std::vector<Batch> noop = {{{u, v, Op::Insert}},
                                   {{u, v, Op::Insert}}};
  auto opts = make_opts(g, true, graph::PartitionKind::Block1D);
  stream::StreamResult r;
  expect_stream_matches_reference(g, noop, 2, opts, &r);
  EXPECT_EQ(r.adj_cache_total.stale_evictions, 0u);
  EXPECT_EQ(r.offsets_cache_total.stale_evictions, 0u);
}

// ----------------------------------------------------------- determinism ---

TEST(Stream, VirtualTimeDeterministicAcrossRepeats) {
  const CSRGraph g = testsupport::rmat_graph(7, 6, 54);
  stream::WorkloadConfig wl;
  wl.num_batches = 2;
  wl.batch_size = 32;
  wl.seed = 3;
  const auto batches = stream::generate_batches(g, wl);
  const auto opts = make_opts(g, true, graph::PartitionKind::Block1D);
  const auto a = stream::run_streaming_lcc(g, batches, 4, opts);
  const auto b = stream::run_streaming_lcc(g, batches, 4, opts);
  EXPECT_DOUBLE_EQ(a.run.makespan, b.run.makespan);
  EXPECT_DOUBLE_EQ(a.stream_makespan, b.stream_makespan);
  EXPECT_EQ(a.adj_cache_total.hits, b.adj_cache_total.hits);
  EXPECT_EQ(a.adj_cache_total.stale_evictions,
            b.adj_cache_total.stale_evictions);
}

TEST(Stream, ResultsIndependentOfRankCountAndPartition) {
  const CSRGraph g = testsupport::rmat_graph(7, 6, 55);
  stream::WorkloadConfig wl;
  wl.num_batches = 2;
  wl.batch_size = 40;
  wl.seed = 9;
  const auto batches = stream::generate_batches(g, wl);
  const auto base = stream::run_streaming_lcc(g, batches, 1, {});
  for (const std::uint32_t p : {2u, 4u, 8u}) {
    for (const auto kind :
         {graph::PartitionKind::Block1D, graph::PartitionKind::Cyclic1D}) {
      stream::StreamOptions opts;
      opts.partition = kind;
      const auto r = stream::run_streaming_lcc(g, batches, p, opts);
      ASSERT_EQ(r.triangles, base.triangles) << "p=" << p;
      EXPECT_EQ(r.global_triangles, base.global_triangles);
    }
  }
}

// ---------------------------------------------------------- slice source ---

/// Slices the in-memory CSR exactly as build_dist_graph does for 1D
/// partitions, and counts how often the engine asked it to.
class CountingSliceSource final : public core::LocalSliceSource {
 public:
  explicit CountingSliceSource(const CSRGraph& g) : g_(&g) {}

  void read_slice(const graph::Partition& partition, std::uint32_t rank,
                  std::vector<graph::EdgeIndex>& offsets,
                  std::vector<VertexId>& adjacencies) const override {
    ++calls_;
    offsets.assign(1, 0);
    adjacencies.clear();
    for (VertexId lv = 0; lv < partition.part_size(rank); ++lv) {
      const auto row = g_->neighbors(partition.global_id(rank, lv));
      adjacencies.insert(adjacencies.end(), row.begin(), row.end());
      offsets.push_back(adjacencies.size());
    }
  }

  [[nodiscard]] int calls() const { return calls_.load(); }

 private:
  const CSRGraph* g_;
  mutable std::atomic<int> calls_{0};
};

TEST(Stream, HonoursEngineSliceSource) {
  const CSRGraph g = testsupport::rmat_graph(7, 6, 56);
  stream::WorkloadConfig wl;
  wl.num_batches = 3;
  wl.batch_size = 32;
  wl.seed = 11;
  const auto batches = stream::generate_batches(g, wl);
  constexpr std::uint32_t kRanks = 4;
  auto opts = make_opts(g, true, graph::PartitionKind::Cyclic1D);
  const auto base = stream::run_streaming_lcc(g, batches, kRanks, opts);

  const CountingSliceSource slices(g);
  opts.engine.slice_source = &slices;
  const auto r = stream::run_streaming_lcc(g, batches, kRanks, opts);
  EXPECT_EQ(slices.calls(), static_cast<int>(kRanks));
  EXPECT_EQ(r.triangles, base.triangles);
  EXPECT_EQ(r.lcc, base.lcc);
  EXPECT_EQ(r.global_triangles, base.global_triangles);
}

// ------------------------------------------------------- update utilities ---

TEST(StreamUpdates, NormalizeCollapsesToNetOps) {
  const Batch batch = {{5, 3, Op::Insert}, {3, 5, Op::Delete},
                       {1, 2, Op::Insert}, {2, 2, Op::Insert},
                       {1, 2, Op::Insert}};
  const auto net = stream::normalize(batch);
  ASSERT_EQ(net.size(), 2u);  // self loop dropped, (3,5) collapsed
  EXPECT_EQ(net[0], (stream::CanonicalUpdate{1, 2, Op::Insert}));
  EXPECT_EQ(net[1], (stream::CanonicalUpdate{3, 5, Op::Delete}));
}

TEST(StreamUpdates, GeneratorIsDeterministicAndInRange) {
  const CSRGraph g = testsupport::rmat_graph(6, 4, 56);
  stream::WorkloadConfig wl;
  wl.num_batches = 3;
  wl.batch_size = 20;
  wl.seed = 42;
  const auto a = stream::generate_batches(g, wl);
  const auto b = stream::generate_batches(g, wl);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a, b);
  for (const Batch& batch : a) {
    EXPECT_GE(batch.size(), wl.batch_size);
    for (const EdgeUpdate& u : batch) {
      EXPECT_LT(u.u, g.num_vertices());
      EXPECT_LT(u.v, g.num_vertices());
    }
  }
}

TEST(StreamUpdates, DirectedInputRejected) {
  testsupport::use_threadsafe_death_tests();
  const CSRGraph g =
      testsupport::rmat_graph(6, 4, 57, Directedness::Directed);
  EXPECT_DEATH((void)stream::run_streaming_lcc(g, {}, 2, {}),
               "undirected");
}

}  // namespace
}  // namespace atlc
