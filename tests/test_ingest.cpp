// The out-of-core ingest pipeline (DESIGN.md §11): chunked reading, the
// parallel/external sort, snapshot round-trips against the in-memory
// load+clean path, partition-slice equivalence at every rank count,
// spill-path byte identity, the corruption matrix of the snapshot (with a
// seeded byte-mutation loop), and the text readers' refusal of ATLC binary
// files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "atlc/core/lcc.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/ingest/external_sorter.hpp"
#include "atlc/ingest/pipeline.hpp"
#include "atlc/ingest/snapshot.hpp"
#include "test_support.hpp"

namespace {

using namespace atlc;
using graph::Directedness;
using graph::Edge;
using graph::VertexId;
namespace layout = ingest::snapshot_layout;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "atlc_ingest_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good());
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

/// Raw (uncleaned) R-MAT instance: duplicates and self loops included.
graph::EdgeList raw_rmat(unsigned scale, unsigned ef, std::uint64_t seed,
                         Directedness dir = Directedness::Undirected) {
  return graph::generate_rmat(
      {.scale = scale, .edge_factor = ef, .seed = seed, .directedness = dir});
}

/// The reference the snapshot payload must match bit-for-bit: the legacy
/// loader's EdgeList pushed through graph::clean() with the given seed,
/// edges sorted (the snapshot stores sorted edges; clean() leaves them in
/// removal order, and CSR construction is order-independent).
std::vector<Edge> cleaned_sorted(graph::EdgeList edges, std::uint64_t seed) {
  graph::clean(edges, {.relabel_seed = seed});
  auto sorted = edges.edges();
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void expect_snapshot_equals(const std::string& snap_path,
                            const graph::EdgeList& reference_raw,
                            std::uint64_t seed) {
  graph::EdgeList ref = reference_raw;
  const auto ref_n = [&] {
    graph::EdgeList probe = reference_raw;
    graph::clean(probe, {.relabel_seed = seed});
    return probe.num_vertices();
  }();
  const auto ref_edges = cleaned_sorted(std::move(ref), seed);

  ingest::SnapshotReader reader(snap_path);
  const auto loaded = reader.read_all();
  EXPECT_EQ(loaded.num_vertices(), ref_n);
  EXPECT_EQ(loaded.directedness(), reference_raw.directedness());
  ASSERT_EQ(loaded.edges().size(), ref_edges.size());
  EXPECT_TRUE(loaded.edges() == ref_edges) << "edge payload differs";

  std::vector<VertexId> deg(ref_n, 0);
  for (const Edge& e : ref_edges) ++deg[e.u];
  for (VertexId v = 0; v < ref_n; ++v)
    ASSERT_EQ(reader.degree(v), deg[v]) << "stored degree of " << v;
}

/// The in-memory reference slice of `rank`: the column-restricted rows
/// build_dist_graph derives from the global CSR.
struct Slice {
  std::vector<graph::EdgeIndex> offsets{0};
  std::vector<VertexId> adjacencies;
};
Slice in_memory_slice(const graph::CSRGraph& g, const graph::Partition& part,
                      std::uint32_t rank) {
  const auto [lo, hi] =
      part.col_block_range(part.col_blocks() > 1 ? part.grid_col(rank) : 0);
  Slice want;
  for (VertexId lv = 0; lv < part.part_size(rank); ++lv) {
    const auto nbrs = g.neighbors(part.global_id(rank, lv));
    const auto s = std::lower_bound(nbrs.begin(), nbrs.end(), lo);
    const auto e = std::lower_bound(s, nbrs.end(), hi);
    want.adjacencies.insert(want.adjacencies.end(), s, e);
    want.offsets.push_back(want.adjacencies.size());
  }
  return want;
}

Slice read_slice(const ingest::SnapshotReader& reader,
                 const graph::Partition& part, std::uint32_t rank) {
  Slice got;
  reader.read_slice(part, rank, got.offsets, got.adjacencies);
  return got;
}

constexpr graph::PartitionKind kAllKinds[] = {
    graph::PartitionKind::Block1D, graph::PartitionKind::Cyclic1D,
    graph::PartitionKind::DegreeBalanced1D, graph::PartitionKind::Grid2D};

// ---------------------------------------------------------------------------
// ChunkReader

TEST(ChunkReader, StitchesChunksToLineBoundaries) {
  const std::string content =
      "# header\n0 1\n12 345\nlonger line with words\n6 7\n";
  const std::string path = tmp_path("stitch.txt");
  write_file(path, content);

  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{4096}}) {
    graph::ChunkReader reader(path, chunk);
    EXPECT_EQ(reader.file_bytes(), content.size());
    std::string concat;
    graph::TextChunk c;
    while (reader.next(c)) {
      ASSERT_FALSE(c.data.empty());
      EXPECT_EQ(c.file_offset, concat.size());
      EXPECT_EQ(c.data.back(), '\n') << "chunk size " << chunk;
      concat += c.data;
    }
    EXPECT_EQ(concat, content) << "chunk size " << chunk;
    EXPECT_EQ(reader.bytes_read(), content.size());
  }
}

TEST(ChunkReader, GrowsWindowForOversizedLines) {
  std::string content = "1 2\n";
  content += std::string(300, 'x');  // one 300-byte junk line
  content += "\n3 4\n";
  const std::string path = tmp_path("oversize.txt");
  write_file(path, content);

  graph::ChunkReader reader(path, 8);
  std::string concat;
  graph::TextChunk c;
  while (reader.next(c)) concat += c.data;
  EXPECT_EQ(concat, content);
}

TEST(ChunkReader, FinalLineWithoutNewline) {
  const std::string content = "0 1\n2 3";  // no trailing newline
  const std::string path = tmp_path("nonl.txt");
  write_file(path, content);

  graph::ChunkReader reader(path, 4);
  std::string concat;
  graph::TextChunk c;
  while (reader.next(c)) concat += c.data;
  EXPECT_EQ(concat, content);
}

// ---------------------------------------------------------------------------
// parse_text_chunk

TEST(ParseTextChunk, MirrorsLegacyScanfSemantics) {
  const std::string text =
      "# comment\n"
      "% comment\n"
      "\n"
      "1 2\n"
      "  3\t 4 trailing junk\n"
      "+5 6\n"
      "-1 7\n"           // strtoull wraps negatives
      "no numbers\n"
      "8\n"              // only one integer: skipped
      "9 10";            // final line without newline
  std::vector<graph::RawPair> pairs;
  const std::size_t lines = graph::parse_text_chunk(text, pairs);
  EXPECT_EQ(lines, 10u);
  ASSERT_EQ(pairs.size(), 5u);
  EXPECT_EQ(pairs[0].a, 1u);
  EXPECT_EQ(pairs[0].b, 2u);
  EXPECT_EQ(pairs[1].a, 3u);
  EXPECT_EQ(pairs[1].b, 4u);
  EXPECT_EQ(pairs[2].a, 5u);
  EXPECT_EQ(pairs[2].b, 6u);
  EXPECT_EQ(pairs[3].a, ~std::uint64_t{0});
  EXPECT_EQ(pairs[3].b, 7u);
  EXPECT_EQ(pairs[4].a, 9u);
  EXPECT_EQ(pairs[4].b, 10u);
}

// ---------------------------------------------------------------------------
// parallel sort + external sorter

TEST(ParallelSortEdges, MatchesStdSort) {
  std::mt19937 rng(99);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{255},
                        std::size_t{100000}}) {
    std::vector<Edge> edges(n);
    for (Edge& e : edges)
      e = {static_cast<VertexId>(rng() % 512),
           static_cast<VertexId>(rng() % 512)};
    auto expect = edges;
    std::sort(expect.begin(), expect.end());
    for (int threads : {1, 2, 4, 8}) {
      auto got = edges;
      ingest::parallel_sort_edges(got, threads);
      EXPECT_TRUE(got == expect) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ExternalEdgeSorter, SpillPathMatchesInMemoryAndIsRerunnable) {
  std::mt19937 rng(5);
  std::vector<Edge> edges(50000);
  for (Edge& e : edges)
    e = {static_cast<VertexId>(rng() % 1024),
         static_cast<VertexId>(rng() % 1024)};
  auto expect = edges;
  std::sort(expect.begin(), expect.end());

  const std::string prefix = tmp_path("sorter");
  ingest::ExternalEdgeSorter sorter(prefix, 32 * 1024, 2);  // ~4K edge budget
  // Feed in parse-batch-sized chunks so the watermark trips repeatedly (a
  // single giant add() would spill exactly once).
  for (std::size_t i = 0; i < edges.size(); i += 5000)
    sorter.add(std::span<const Edge>(edges).subspan(
        i, std::min<std::size_t>(5000, edges.size() - i)));
  sorter.finish();
  EXPECT_GE(sorter.spill_runs(), 2u);
  EXPECT_EQ(sorter.total_edges(), edges.size());

  for (int replay = 0; replay < 2; ++replay) {
    std::vector<Edge> got;
    got.reserve(edges.size());
    sorter.for_each_sorted([&](const Edge& e) { got.push_back(e); });
    EXPECT_TRUE(got == expect) << "replay " << replay;
  }

  sorter.clear();
  EXPECT_FALSE(std::filesystem::exists(prefix + ".run0"));
}

// ---------------------------------------------------------------------------
// Full pipeline vs the in-memory load+clean path

TEST(Ingest, TextInputMatchesInMemoryCleanAcrossConfigs) {
  // Two inputs: a raw R-MAT instance, and lines longer than any fixed-size
  // line buffer — a comment, and a pair followed by junk, whose tails read
  // like pairs. Phantom edges 7-8 or 10-11 would each close triangles.
  const std::string rmat_text = tmp_path("text_rt.txt");
  testsupport::save_every_edge(raw_rmat(9, 8, 7), rmat_text);
  const std::string long_text = tmp_path("long_lines.txt");
  write_file(long_text, "#" + std::string(300, ' ') + "7 8\n"
                        "9 10 junk" + std::string(300, ' ') + "10 11\n"
                        "7 9\n7 10\n8 9\n8 10\n11 7\n11 8\n");
  EXPECT_EQ(
      graph::load_text_edges(long_text, Directedness::Undirected).num_edges(),
      14u);

  int variant = 0;
  for (const std::string& text : {rmat_text, long_text}) {
    const auto reference =
        graph::load_text_edges(text, Directedness::Undirected);

    // Sweep threads x chunk size x budget: every configuration must produce
    // a byte-identical snapshot, equal to the in-memory clean.
    std::string first_bytes;
    struct Cfg {
      int threads;
      std::size_t chunk;
      std::uint64_t budget;
    };
    for (const Cfg& c : {Cfg{1, 1u << 20, 0}, Cfg{4, 333, 0},
                         Cfg{2, 4096, 16 * 1024}, Cfg{4, 57, 8 * 1024}}) {
      const std::string snap =
          tmp_path("text_rt_" + std::to_string(variant++) + ".snap");
      ingest::IngestOptions opt;
      opt.num_threads = c.threads;
      opt.chunk_bytes = c.chunk;
      opt.mem_budget_bytes = c.budget;
      opt.relabel_seed = 11;
      const auto rep = ingest::run_ingest(text, snap, opt);
      EXPECT_GT(rep.bytes_read, 0u);
      EXPECT_GT(rep.lines, 0u);
      if (text == rmat_text) EXPECT_GT(rep.duplicates_removed, 0u);
      expect_snapshot_equals(snap, reference, 11);
      const std::string bytes = read_file(snap);
      if (first_bytes.empty())
        first_bytes = bytes;
      else
        EXPECT_TRUE(bytes == first_bytes)
            << text << ": snapshot bytes differ for threads=" << c.threads
            << " chunk=" << c.chunk << " budget=" << c.budget;
    }
  }
}

TEST(Ingest, DirectedTextInput) {
  const auto raw = raw_rmat(8, 6, 13, Directedness::Directed);
  const std::string text = tmp_path("directed.txt");
  testsupport::save_every_edge(raw, text);
  const auto reference = graph::load_text_edges(text, Directedness::Directed);

  const std::string snap = tmp_path("directed.snap");
  ingest::IngestOptions opt;
  opt.directedness = Directedness::Directed;
  opt.relabel_seed = 2;
  (void)ingest::run_ingest(text, snap, opt);
  expect_snapshot_equals(snap, reference, 2);
  ingest::SnapshotReader reader(snap);
  EXPECT_EQ(reader.directedness(), Directedness::Directed);
}

TEST(Ingest, RelabelNoneMatchesSeedZeroClean) {
  const auto raw = raw_rmat(8, 8, 21);
  const std::string text = tmp_path("none.txt");
  testsupport::save_every_edge(raw, text);

  const std::string snap = tmp_path("none.snap");
  ingest::IngestOptions opt;
  opt.relabel = ingest::RelabelMode::None;
  (void)ingest::run_ingest(text, snap, opt);
  expect_snapshot_equals(
      snap, graph::load_text_edges(text, Directedness::Undirected),
      /*seed=*/0);
}

TEST(Ingest, DegreeDescendingRelabelIsAnIsomorphism) {
  const auto raw = raw_rmat(8, 8, 31);
  const std::string text = tmp_path("degdesc.txt");
  testsupport::save_every_edge(raw, text);

  const std::string snap = tmp_path("degdesc.snap");
  ingest::IngestOptions opt;
  opt.relabel = ingest::RelabelMode::DegreeDescending;
  opt.remove_degree_lt2 = false;  // keep degrees == the relabel key
  (void)ingest::run_ingest(text, snap, opt);

  ingest::SnapshotReader reader(snap);
  const auto g = graph::CSRGraph::from_edges(reader.read_all());
  // New ids are assigned by descending degree, so the degree sequence in id
  // order is non-increasing...
  for (VertexId v = 1; v < g.num_vertices(); ++v)
    EXPECT_LE(g.degree(v), g.degree(v - 1)) << "vertex " << v;
  // ...and a relabel is an isomorphism: the triangle count is unchanged
  // against the un-relabeled clean of the same input.
  graph::EdgeList ref = graph::load_text_edges(text, Directedness::Undirected);
  graph::clean(ref, {.remove_degree_lt2 = false, .relabel_seed = 0});
  const auto ref_g = graph::CSRGraph::from_edges(ref);
  EXPECT_EQ(graph::reference_lcc(g).global_triangles,
            graph::reference_lcc(ref_g).global_triangles);
}

// ---------------------------------------------------------------------------
// Partition-sliced reads

TEST(Ingest, SliceEqualsInMemoryBuildForAllKindsAndRanks) {
  // One snapshot, ingested once, serves every rank count and kind —
  // including the 1x3 and 2x3 grids.
  const auto raw = raw_rmat(9, 8, 17);
  const std::string text = tmp_path("slices.txt");
  testsupport::save_every_edge(raw, text);
  const std::string snap = tmp_path("slices.snap");
  ingest::IngestOptions opt;
  opt.relabel_seed = 9;
  const auto rep = ingest::run_ingest(text, snap, opt);
  // The file is the header, the degrees and the edges, and nothing else.
  EXPECT_EQ(rep.snapshot_bytes,
            ingest::snapshot_layout::kHeaderBytes +
                std::uint64_t{rep.num_vertices} * sizeof(VertexId) +
                rep.num_edges * sizeof(Edge));

  ingest::SnapshotReader reader(snap);
  const auto g = graph::CSRGraph::from_edges(reader.read_all());
  for (std::uint32_t ranks : {1u, 2u, 3u, 4u, 6u, 8u}) {
    for (const auto kind : kAllKinds) {
      const auto part = graph::make_partition(g, kind, ranks);
      for (std::uint32_t rank = 0; rank < ranks; ++rank) {
        const Slice want = in_memory_slice(g, part, rank);
        const Slice got = read_slice(reader, part, rank);
        EXPECT_TRUE(got.offsets == want.offsets)
            << graph::partition_kind_name(kind) << " rank " << rank << "/"
            << ranks << ": offsets differ";
        EXPECT_TRUE(got.adjacencies == want.adjacencies)
            << graph::partition_kind_name(kind) << " rank " << rank << "/"
            << ranks << ": adjacencies differ";
      }
    }
  }
}

TEST(Ingest, EngineResultsBitIdenticalViaSliceSource) {
  const auto raw = raw_rmat(8, 8, 23);
  const std::string text = tmp_path("engine.txt");
  testsupport::save_every_edge(raw, text);
  const std::string snap = tmp_path("engine.snap");
  ingest::IngestOptions opt;
  opt.relabel_seed = 4;
  (void)ingest::run_ingest(text, snap, opt);

  ingest::SnapshotReader reader(snap);
  const auto g = graph::CSRGraph::from_edges(reader.read_all());
  for (const auto kind : kAllKinds) {
    core::EngineConfig mem_cfg;
    const auto mem = core::run_distributed_lcc(g, 8, mem_cfg, {}, kind);

    core::EngineConfig ooc_cfg;
    ooc_cfg.slice_source = &reader;
    const auto ooc = core::run_distributed_lcc(g, 8, ooc_cfg, {}, kind);

    EXPECT_EQ(ooc.global_triangles, mem.global_triangles)
        << graph::partition_kind_name(kind);
    EXPECT_TRUE(ooc.triangles == mem.triangles)
        << graph::partition_kind_name(kind);
    EXPECT_TRUE(ooc.lcc == mem.lcc) << graph::partition_kind_name(kind);

    EXPECT_EQ(
        core::run_distributed_tc_result(g, 8, ooc_cfg, {}, kind)
            .global_triangles,
        core::run_distributed_tc_result(g, 8, mem_cfg, {}, kind)
            .global_triangles)
        << graph::partition_kind_name(kind);
  }
}

TEST(Ingest, DodgTcViaSliceSourceMatchesReference) {
  // The DODG path orients the graph in memory, but the snapshot's slices hold
  // the UNORIENTED rows: the DODG path must build from the oriented graph,
  // not the slice source (reading the slices overcounted ~6x).
  const auto raw = raw_rmat(8, 8, 29);
  const std::string text = tmp_path("dodg.txt");
  testsupport::save_every_edge(raw, text);
  const std::string snap = tmp_path("dodg.snap");
  ingest::IngestOptions opt;
  opt.relabel_seed = 6;
  (void)ingest::run_ingest(text, snap, opt);

  ingest::SnapshotReader reader(snap);
  const auto g = graph::CSRGraph::from_edges(reader.read_all());
  const std::uint64_t want = graph::reference_lcc(g).global_triangles;
  ASSERT_GT(want, 0u);
  for (const auto kind :
       {graph::PartitionKind::Block1D, graph::PartitionKind::Grid2D}) {
    core::EngineConfig cfg;
    cfg.slice_source = &reader;
    EXPECT_EQ(core::run_distributed_tc_result(g, 4, cfg, {}, kind,
                                              /*orient_dodg=*/true)
                  .global_triangles,
              want)
        << graph::partition_kind_name(kind);
  }
}

// ---------------------------------------------------------------------------
// Spill path

TEST(Ingest, SpillPathProducesByteIdenticalSnapshot) {
  const auto raw = raw_rmat(10, 8, 41);
  const std::string text = tmp_path("spill.txt");
  testsupport::save_every_edge(raw, text);
  const auto input_bytes = std::filesystem::file_size(text);

  ingest::IngestOptions mem_opt;
  const std::string snap_mem = tmp_path("spill_mem.snap");
  const auto mem_rep = ingest::run_ingest(text, snap_mem, mem_opt);
  EXPECT_EQ(mem_rep.spill_runs, 0u);

  ingest::IngestOptions spill_opt = mem_opt;
  spill_opt.mem_budget_bytes = 64 * 1024;  // far below the edge stream
  const std::string snap_spill = tmp_path("spill_disk.snap");
  const auto spill_rep = ingest::run_ingest(text, snap_spill, spill_opt);
  // The input (and the edge stream) genuinely exceed the memory budget,
  // and the spill path really ran.
  EXPECT_GT(input_bytes, spill_opt.mem_budget_bytes);
  EXPECT_GE(spill_rep.spill_runs, 2u);
  // Both orientations of every edge reach the sorter, so equal keys meet
  // across spill runs and the merge has duplicates to drop.
  EXPECT_GT(spill_rep.duplicates_removed, 0u);

  EXPECT_TRUE(read_file(snap_mem) == read_file(snap_spill))
      << "spill path changed the snapshot bytes";
}

// ---------------------------------------------------------------------------
// Corruption, truncation, and version back-compat

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto raw = raw_rmat(7, 6, 2);
    text_ = tmp_path("corrupt_src.txt");
    testsupport::save_every_edge(raw, text_);
    snap_ = tmp_path("corrupt.snap");
    (void)ingest::run_ingest(text_, snap_);
    bytes_ = read_file(snap_);
    ASSERT_GT(bytes_.size(), layout::kHeaderBytes);
  }

  /// Write `bytes` patched at `offset` and return the temp path.
  std::string patched(std::size_t offset, unsigned char value) {
    std::string copy = bytes_;
    copy[offset] = static_cast<char>(value);
    const std::string path =
        tmp_path("patched_" + std::to_string(offset) + "_" +
                 std::to_string(value) + ".snap");
    write_file(path, copy);
    return path;
  }

  std::string text_;
  std::string snap_;
  std::string bytes_;
};

template <typename T>
T load_at(const std::string& bytes, std::size_t offset) {
  T v{};
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

template <typename T>
void store_at(std::string& bytes, std::size_t offset, T v) {
  std::memcpy(bytes.data() + offset, &v, sizeof(v));
}

/// Recompute both payload checksums of snapshot `bytes`, taking the section
/// sizes from n and m (the original graph's, so a patched header cannot
/// move them), so only the reader's structural checks can catch a patch.
void restamp(std::string& bytes, VertexId n, std::uint64_t m) {
  const std::size_t degrees_at = layout::kHeaderBytes;
  const std::size_t edges_at = degrees_at + std::size_t{n} * sizeof(VertexId);
  ASSERT_EQ(bytes.size(), edges_at + m * sizeof(Edge));
  store_at(bytes, layout::kDegreeChecksumOffset,
           layout::fnv1a64(bytes.data() + degrees_at, edges_at - degrees_at));
  store_at(bytes, layout::kEdgeChecksumOffset,
           layout::fnv1a64(bytes.data() + edges_at, bytes.size() - edges_at));
}

TEST_F(SnapshotCorruption, HeaderFieldPatchesAreRejected) {
  // Each patch flips one header field; the reader must refuse them all.
  const std::pair<std::size_t, unsigned char> patches[] = {
      {layout::kMagicOffset, 0x00},        // bad magic
      {layout::kVersionOffset, 2},         // the retired version
      {layout::kDirectednessOffset, 7},    // corrupt flag
      {layout::kNumVerticesOffset, 0xee},  // sections no longer line up
      {layout::kNumEdgesOffset, 0xee},     // ditto
      {layout::kDegreeChecksumOffset,
       static_cast<unsigned char>(
           bytes_[layout::kDegreeChecksumOffset] ^ 0x1)},  // degree corruption
  };
  for (const auto& [offset, value] : patches) {
    EXPECT_THROW(ingest::SnapshotReader reader(patched(offset, value)),
                 std::runtime_error)
        << "header offset " << offset << " accepted";
  }
}

TEST_F(SnapshotCorruption, EdgePayloadCorruptionCaughtByReadAll) {
  // A flipped edge byte passes the container checks (the edge checksum is
  // only verified against the payload on read)...
  ingest::SnapshotReader clean_reader(snap_);
  const std::size_t edge_byte =
      layout::kHeaderBytes +
      clean_reader.num_vertices() * sizeof(VertexId) /*degrees*/ + 1;
  const std::string path = patched(
      edge_byte, static_cast<unsigned char>(bytes_[edge_byte] ^ 0x4));
  ingest::SnapshotReader reader(path);
  EXPECT_THROW((void)reader.read_all(), std::runtime_error);

  // ...and a patched stored checksum is caught the same way.
  const std::string path2 = patched(
      layout::kEdgeChecksumOffset,
      static_cast<unsigned char>(bytes_[layout::kEdgeChecksumOffset] ^ 0x1));
  ingest::SnapshotReader reader2(path2);
  EXPECT_THROW((void)reader2.read_all(), std::runtime_error);
}

TEST_F(SnapshotCorruption, WrappingEdgeCountIsRejected) {
  // m + 2^61 edges keeps header + 4n + m * sizeof(Edge) unchanged modulo
  // 2^64, so only a non-wrapping bound on m catches the patched count.
  std::string copy = bytes_;
  store_at(copy, layout::kNumEdgesOffset,
           load_at<std::uint64_t>(copy, layout::kNumEdgesOffset) +
               (std::uint64_t{1} << 61));
  const std::string path = tmp_path("wrapping_m.snap");
  write_file(path, copy);
  try {
    ingest::SnapshotReader reader(path);
    FAIL() << "wrapping edge count accepted";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("corrupt section offsets"),
              std::string::npos)
        << ex.what();
  }
}

/// Run `read` and expect an `atlc:` runtime_error that mentions `needle`
/// (not bad_alloc, not a crash, not silent success).
template <typename Read>
void expect_atlc_throw(Read&& read, const std::string& needle) {
  try {
    read();
    ADD_FAILURE() << "no exception (wanted '" << needle << "')";
  } catch (const std::runtime_error& ex) {
    const std::string what = ex.what();
    EXPECT_EQ(what.rfind("atlc:", 0), 0u) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

/// Construct a reader over `path` and expect an `atlc:` error that
/// mentions `needle`.
void expect_atlc_error(const std::string& path, const std::string& needle) {
  expect_atlc_throw([&] { ingest::SnapshotReader reader(path); }, needle);
}

TEST_F(SnapshotCorruption, PrefixRejectionsNameTheirCause) {
  // Every read_atlc_prefix rejection, through SnapshotReader (its only
  // caller).
  const std::string short_path = tmp_path("short_prefix.snap");
  write_file(short_path, bytes_.substr(0, 10));
  expect_atlc_error(short_path, "truncated header");
  expect_atlc_error(patched(layout::kMagicOffset, 0x00), "bad magic");
  // Version 1 is the retired v1 edge list, version 2 the retired snapshot
  // with a slice index; the message says how to rebuild the file.
  for (const unsigned char version : {0, 1, 2, 4, 0x7f}) {
    expect_atlc_error(patched(layout::kVersionOffset, version),
                      "unsupported ATLC binary version");
    expect_atlc_error(patched(layout::kVersionOffset, version),
                      "re-run atlc_ingest");
  }
  expect_atlc_error(patched(layout::kDirectednessOffset, 7),
                    "corrupt directedness flag");
}

TEST_F(SnapshotCorruption, TruncationIsRejected) {
  for (const std::size_t keep :
       {std::size_t{10}, layout::kHeaderBytes, bytes_.size() / 2,
        bytes_.size() - 1}) {
    const std::string path =
        tmp_path("trunc_" + std::to_string(keep) + ".snap");
    write_file(path, bytes_.substr(0, keep));
    EXPECT_THROW(ingest::SnapshotReader reader(path), std::runtime_error)
        << "kept " << keep << " of " << bytes_.size() << " bytes";
  }
}

TEST_F(SnapshotCorruption, DegreeSumMismatchIsRejected) {
  // One degree raised by one, both checksums re-stamped: the degrees no
  // longer sum to m, and the constructor says so before any slice read.
  ingest::SnapshotReader clean_reader(snap_);
  const VertexId n = clean_reader.num_vertices();
  const std::uint64_t m = clean_reader.num_edges();
  std::string copy = bytes_;
  const std::size_t at = layout::kHeaderBytes + 3 * sizeof(VertexId);
  store_at(copy, at, load_at<VertexId>(copy, at) + 1);
  restamp(copy, n, m);
  const std::string path = tmp_path("degree_sum.snap");
  write_file(path, copy);
  expect_atlc_error(path, "degree array sums to");
}

TEST_F(SnapshotCorruption, DegreeMovedToNeighbourNeverYieldsAWrongSlice) {
  // One degree moved between adjacent vertices v and v + 1, both checksums
  // re-stamped: the sum still matches m, so only the per-edge checks can
  // tell. For every such pair, in both directions, every read that covers
  // row v or v + 1 ends in an `atlc:` error and every other read returns
  // the true slice — never a wrong one.
  ingest::SnapshotReader clean_reader(snap_);
  const VertexId n = clean_reader.num_vertices();
  const std::uint64_t m = clean_reader.num_edges();
  const auto g = graph::CSRGraph::from_edges(clean_reader.read_all());
  std::vector<graph::Partition> parts;
  for (std::uint32_t ranks : {1u, 2u, 3u, 4u, 6u})
    for (const auto kind : kAllKinds)
      parts.push_back(graph::make_partition(g, kind, ranks));

  const std::string path = tmp_path("degree_moved.snap");
  std::size_t cases = 0;
  for (VertexId v = 0; v + 1 < n; ++v) {
    for (const auto& [from, to] : {std::pair{v, v + 1}, std::pair{v + 1, v}}) {
      if (clean_reader.degree(from) == 0) continue;
      ++cases;
      std::string copy = bytes_;
      const std::size_t at_from =
          layout::kHeaderBytes + from * sizeof(VertexId);
      const std::size_t at_to = layout::kHeaderBytes + to * sizeof(VertexId);
      store_at(copy, at_from, load_at<VertexId>(copy, at_from) - 1);
      store_at(copy, at_to, load_at<VertexId>(copy, at_to) + 1);
      restamp(copy, n, m);
      write_file(path, copy);
      ingest::SnapshotReader reader(path);
      expect_atlc_throw([&] { (void)reader.read_all(); }, "degree range");
      for (const graph::Partition& part : parts) {
        for (std::uint32_t rank = 0; rank < part.num_ranks(); ++rank) {
          bool covers = false;
          for (VertexId l = 0; l < part.part_size(rank); ++l) {
            const VertexId row = part.global_id(rank, l);
            covers = covers || row == v || row == v + 1;
          }
          SCOPED_TRACE(std::string(graph::partition_kind_name(part.kind())) +
                       " rank " + std::to_string(rank) + "/" +
                       std::to_string(part.num_ranks()) + ", degree moved " +
                       std::to_string(from) + " -> " + std::to_string(to));
          if (covers) {
            expect_atlc_throw([&] { (void)read_slice(reader, part, rank); },
                              "corrupt edge section");
          } else {
            const Slice got = read_slice(reader, part, rank);
            const Slice want = in_memory_slice(g, part, rank);
            ASSERT_TRUE(got.offsets == want.offsets &&
                        got.adjacencies == want.adjacencies);
          }
        }
      }
    }
  }
  EXPECT_GT(cases, n);
}

TEST(SnapshotMutation, SeededByteMutationsFailCleanlyOrReadTrueSlices) {
  // Bounded seeded fuzz of the reader: flip one random byte of a small
  // snapshot (half the cases inside the header and degrees), re-stamp both
  // checksums so only the structural checks stand between the mutation and
  // a slice, and demand: construction, read_all and read_slice either
  // succeed or throw an `atlc:` runtime_error, and whenever read_all
  // succeeds every slice equals the in-memory slicing of the graph it read.
  const std::string text = tmp_path("mutation_src.txt");
  testsupport::save_every_edge(raw_rmat(5, 4, 3), text);
  const std::string snap = tmp_path("mutation.snap");
  (void)ingest::run_ingest(text, snap);
  const std::string bytes = read_file(snap);
  const VertexId n = load_at<VertexId>(bytes, layout::kNumVerticesOffset);
  const auto m = load_at<std::uint64_t>(bytes, layout::kNumEdgesOffset);
  const std::size_t front = layout::kHeaderBytes + n * sizeof(VertexId);
  ASSERT_GT(m, 0u);

  const auto expect_atlc = [](const std::runtime_error& ex) {
    EXPECT_EQ(std::string(ex.what()).rfind("atlc:", 0), 0u) << ex.what();
  };
  std::mt19937_64 rng(2026);
  const std::string path = tmp_path("mutated.snap");
  std::size_t rejected = 0, read_ok = 0;
  constexpr int kCases = 3000;
  for (int c = 0; c < kCases; ++c) {
    std::string copy = bytes;
    const std::size_t at = c % 2 == 0 ? rng() % front : rng() % copy.size();
    copy[at] = static_cast<char>(copy[at] ^ (1 + rng() % 255));
    restamp(copy, n, m);
    write_file(path, copy);
    const std::uint32_t ranks = 1 + static_cast<std::uint32_t>(rng() % 6);
    SCOPED_TRACE("case " + std::to_string(c) + ": byte " +
                 std::to_string(at) + ", " + std::to_string(ranks) +
                 " ranks");
    try {
      ingest::SnapshotReader reader(path);
      std::optional<graph::CSRGraph> g;
      try {
        g = graph::CSRGraph::from_edges(reader.read_all());
        ++read_ok;
      } catch (const std::runtime_error& ex) {
        expect_atlc(ex);
      }
      for (const auto kind : kAllKinds) {
        // Without a trusted graph only the closed-form kinds can be built.
        if (!g && kind == graph::PartitionKind::DegreeBalanced1D) continue;
        const auto part =
            g ? graph::make_partition(*g, kind, ranks)
              : graph::Partition(kind, reader.num_vertices(), ranks);
        for (std::uint32_t rank = 0; rank < ranks; ++rank) {
          try {
            const Slice got = read_slice(reader, part, rank);
            if (g) {
              const Slice want = in_memory_slice(*g, part, rank);
              ASSERT_TRUE(got.offsets == want.offsets &&
                          got.adjacencies == want.adjacencies)
                  << graph::partition_kind_name(kind) << " rank " << rank;
            }
          } catch (const std::runtime_error& ex) {
            expect_atlc(ex);
          }
        }
      }
    } catch (const std::runtime_error& ex) {
      expect_atlc(ex);
      ++rejected;
    }
  }
  // Both outcomes occur: the loop exercises rejection and real reads.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(read_ok, 0u);
}

TEST_F(SnapshotCorruption, VersionSniffing) {
  // sniff: this version yes; another ATLC version and text no.
  EXPECT_TRUE(ingest::SnapshotReader::sniff(snap_));
  EXPECT_FALSE(
      ingest::SnapshotReader::sniff(patched(layout::kVersionOffset, 1)));
  EXPECT_FALSE(
      ingest::SnapshotReader::sniff(patched(layout::kVersionOffset, 2)));
  EXPECT_FALSE(ingest::SnapshotReader::sniff(text_));
}

TEST_F(SnapshotCorruption, TextReadersRejectAtlcFiles) {
  // load_edges and run_ingest read SNAP text only: a file that starts with
  // the ATLC magic is refused with an `atlc:` error, never parsed as text.
  // Version 1 (the retired edge list) is the snapshot with its version
  // word patched.
  const std::string v1 = patched(layout::kVersionOffset, 1);
  const std::pair<std::string, std::string> cases[] = {
      {snap_, "atlc_run --snapshot"},
      {v1, "version 1"},
  };
  for (const auto& [path, needle] : cases) {
    expect_atlc_throw(
        [&] { (void)graph::load_edges(path, Directedness::Undirected); },
        needle);
    expect_atlc_throw(
        [&] { (void)ingest::run_ingest(path, tmp_path("twice.snap")); },
        needle);
  }
}

// ---------------------------------------------------------------------------
// Overflow guard

TEST(LoadTextEdges, RejectsIdSpaceOverflow) {
  const std::string path = tmp_path("overflow.txt");
  write_file(path, "10 20\n30 40\n50 10\n");  // 5 distinct ids

  EXPECT_THROW(
      (void)graph::load_text_edges(path, Directedness::Undirected, 4),
      std::runtime_error);
  EXPECT_EQ(
      graph::load_text_edges(path, Directedness::Undirected, 5).num_vertices(),
      5u);

  ingest::IngestOptions opt;
  opt.max_vertices = 4;
  EXPECT_THROW(
      (void)ingest::run_ingest(path, tmp_path("overflow.snap"), opt),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Report plumbing

TEST(Ingest, ReportCarriesThroughputAndFormatFields) {
  const auto raw = raw_rmat(8, 8, 55);
  const std::string text = tmp_path("report.txt");
  testsupport::save_every_edge(raw, text);
  const std::string snap = tmp_path("report.snap");
  const auto rep = ingest::run_ingest(text, snap);

  EXPECT_GT(rep.num_edges, 0u);
  EXPECT_GT(rep.num_vertices, 0u);
  EXPECT_GT(rep.peak_rss_bytes, 0u);
  EXPECT_EQ(rep.snapshot_bytes, std::filesystem::file_size(snap));
  EXPECT_GE(rep.total_seconds, 0.0);

  ingest::SnapshotReader reader(snap);
  EXPECT_EQ(rep.edge_checksum, reader.edge_checksum());
  EXPECT_EQ(rep.num_edges, reader.num_edges());
}

}  // namespace
