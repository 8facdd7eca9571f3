// Out-of-core ingest pipeline bench (DESIGN.md §11): generate an R-MAT
// text edge list, sweep the chunked-parse/sort stage over thread counts,
// chunk sizes, and the spill path, and verify the snapshot end to end.
//
// Two metric families:
//  - determinism fields (gated, bit-deterministic): vertex/edge counts,
//    FNV checksums, snapshot byte size, spill-path byte identity, and
//    slice-vs-in-memory equivalence. These must reproduce exactly on any
//    host.
//  - throughput fields (never gated): parse+sort wall seconds, edges/sec,
//    thread-scaling speedups, and peak RSS. Host-dependent by nature; on a
//    single-core CI runner the speedup columns are ~1x and reported as-is.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "atlc/graph/csr.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/ingest/pipeline.hpp"
#include "atlc/ingest/snapshot.hpp"
#include "scenario.hpp"

namespace {

using namespace atlc;

void add_flags(util::Cli& cli) {
  cli.add_int("ingest-scale",
              "R-MAT scale of the generated text input (0 = scenario "
              "default: 9 smoke / 13 full)",
              0);
}

std::string work_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("atlc_bench_ingest_" + name))
      .string();
}

/// read_slice for every (kind, rank count, rank) against the in-memory
/// slicing of the global CSR — the same reference build_dist_graph
/// computes. One snapshot serves every rank count.
bool slices_match(const ingest::SnapshotReader& reader) {
  const auto g = graph::CSRGraph::from_edges(reader.read_all());
  for (const std::uint32_t ranks : {1u, 3u, 6u, 8u}) {
    for (const auto kind :
         {graph::PartitionKind::Block1D, graph::PartitionKind::Cyclic1D,
          graph::PartitionKind::DegreeBalanced1D,
          graph::PartitionKind::Grid2D}) {
      const auto part = graph::make_partition(g, kind, ranks);
      for (std::uint32_t rank = 0; rank < ranks; ++rank) {
        const auto [lo, hi] = part.col_block_range(
            part.col_blocks() > 1 ? part.grid_col(rank) : 0);
        std::vector<graph::EdgeIndex> want_off{0};
        std::vector<graph::VertexId> want_adj;
        for (graph::VertexId lv = 0; lv < part.part_size(rank); ++lv) {
          const auto nbrs = g.neighbors(part.global_id(rank, lv));
          const auto s = std::lower_bound(nbrs.begin(), nbrs.end(), lo);
          const auto e = std::lower_bound(s, nbrs.end(), hi);
          want_adj.insert(want_adj.end(), s, e);
          want_off.push_back(want_adj.size());
        }
        std::vector<graph::EdgeIndex> got_off;
        std::vector<graph::VertexId> got_adj;
        reader.read_slice(part, rank, got_off, got_adj);
        if (got_off != want_off || got_adj != want_adj) return false;
      }
    }
  }
  return true;
}

void run(bench::ScenarioContext& ctx) {
  const int flag_scale = static_cast<int>(ctx.cli.get_int("ingest-scale"));
  const unsigned scale = flag_scale > 0 ? static_cast<unsigned>(flag_scale)
                                        : (ctx.smoke ? 9u : 13u);
  ctx.rec.meta()["ingest_scale"] = static_cast<double>(scale);

  const auto raw = graph::generate_rmat(
      {.scale = scale, .edge_factor = 8, .seed = 42 + ctx.seed});
  const std::string text = work_path("input.txt");
  graph::save_text_edges(raw, text);
  const auto input_bytes = std::filesystem::file_size(text);

  std::vector<std::string> cleanup{text};
  const auto ingest_to = [&](const std::string& name,
                             ingest::IngestOptions opt) {
    const std::string snap = work_path(name + ".snap");
    opt.relabel_seed = 1 + ctx.seed;
    const auto rep = ingest::run_ingest(text, snap, opt);
    cleanup.push_back(snap);
    return std::pair<ingest::IngestReport, std::string>{rep, snap};
  };

  // -------------------------------------------------------------------
  // Determinism arm: a fixed single-thread configuration, re-run per
  // --repeats; every field must come out identical every time, on every
  // host, so any change to a count, checksum or equivalence bit fails
  // bench_compare.
  struct DetField {
    const char* name;
    const char* unit;
    double value;
  };
  std::string base_snapshot;
  for (std::size_t r = 0; r < ctx.repeats; ++r) {
    auto [rep, snap] = ingest_to("det", {.num_threads = 1});
    base_snapshot = snap;
    for (const auto& [name, unit, value] : {
             DetField{"det/num_vertices", "count",
                      static_cast<double>(rep.num_vertices)},
             DetField{"det/num_edges", "count",
                      static_cast<double>(rep.num_edges)},
             DetField{"det/edge_checksum_lo32", "checksum",
                      static_cast<double>(rep.edge_checksum & 0xffffffffu)},
             DetField{"det/edge_checksum_hi32", "checksum",
                      static_cast<double>(rep.edge_checksum >> 32)},
             DetField{"det/degree_checksum_lo32", "checksum",
                      static_cast<double>(rep.degree_checksum & 0xffffffffu)},
             DetField{"det/snapshot_bytes", "bytes",
                      static_cast<double>(rep.snapshot_bytes)}}) {
      ctx.rec.declare_metric(name, {.unit = unit});
      ctx.rec.add_trial(name, value);
    }
  }

  {
    ingest::SnapshotReader reader(base_snapshot);
    ctx.rec.declare_metric("det/slice_equivalence_ok", {.unit = "bool"});
    ctx.rec.add_trial("det/slice_equivalence_ok",
                      slices_match(reader) ? 1.0 : 0.0);
  }

  // Spill arm: a budget far below the edge stream must exercise the
  // external sort and still produce byte-identical snapshot output.
  {
    auto [rep, snap] =
        ingest_to("spill", {.num_threads = 1,
                            .mem_budget_bytes = input_bytes / 16});
    std::string a, b;
    {
      std::ifstream fa(base_snapshot, std::ios::binary),
          fb(snap, std::ios::binary);
      a.assign(std::istreambuf_iterator<char>(fa),
               std::istreambuf_iterator<char>());
      b.assign(std::istreambuf_iterator<char>(fb),
               std::istreambuf_iterator<char>());
    }
    ctx.rec.declare_metric("det/spill_bytes_identical", {.unit = "bool"});
    ctx.rec.add_trial("det/spill_bytes_identical",
                      (!a.empty() && a == b) ? 1.0 : 0.0);
    ctx.rec.declare_metric("ingest/spill_runs", {.unit = "runs", .wall = true});
    ctx.rec.add_trial("ingest/spill_runs",
                      static_cast<double>(rep.spill_runs));
  }

  // -------------------------------------------------------------------
  // Throughput arms (never gated): thread sweep, then chunk-size sweep.
  const util::BenchRecorder::MetricOptions wall_s{.unit = "s", .wall = true};
  const util::BenchRecorder::MetricOptions wall_rate{.unit = "edges/s",
                                                     .wall = true};

  util::Table threads_table(
      {"threads", "parse+sort (s)", "total (s)", "Medges/s", "speedup"});
  const std::vector<int> thread_sweep =
      ctx.smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  double t1_parse_sort = 0.0;
  for (const int threads : thread_sweep) {
    auto [rep, snap] = ingest_to("t" + std::to_string(threads),
                                 {.num_threads = threads});
    if (threads == 1) t1_parse_sort = rep.parse_sort_seconds;
    const double rate = rep.total_seconds > 0.0
                            ? static_cast<double>(rep.raw_edges) /
                                  rep.total_seconds
                            : 0.0;
    const double speedup = rep.parse_sort_seconds > 0.0
                               ? t1_parse_sort / rep.parse_sort_seconds
                               : 0.0;
    const std::string tag = "threads_" + std::to_string(threads);
    ctx.rec.declare_metric("ingest/" + tag + "/parse_sort_s", wall_s);
    ctx.rec.add_trial("ingest/" + tag + "/parse_sort_s",
                      rep.parse_sort_seconds);
    ctx.rec.declare_metric("ingest/" + tag + "/edges_per_s", wall_rate);
    ctx.rec.add_trial("ingest/" + tag + "/edges_per_s", rate);
    ctx.rec.declare_metric("speedup/parse_sort_" + tag,
                           {.unit = "x", .wall = true});
    ctx.rec.add_trial("speedup/parse_sort_" + tag, speedup);
    threads_table.add_row({std::to_string(threads),
                           util::Table::fmt(rep.parse_sort_seconds, 3),
                           util::Table::fmt(rep.total_seconds, 3),
                           util::Table::fmt(rate / 1e6, 2),
                           util::Table::fmt(speedup, 2)});
  }
  threads_table.print("ingest: parse+sort thread scaling");
  ctx.rec.add_table("ingest: parse+sort thread scaling", threads_table);

  util::Table chunk_table({"chunk", "parse+sort (s)", "Medges/s"});
  const std::vector<std::size_t> chunk_sweep =
      ctx.smoke ? std::vector<std::size_t>{64 << 10, 8 << 20}
                : std::vector<std::size_t>{64 << 10, 1 << 20, 8 << 20};
  for (const std::size_t chunk : chunk_sweep) {
    auto [rep, snap] = ingest_to(
        "c" + std::to_string(chunk >> 10),
        {.chunk_bytes = chunk, .num_threads = thread_sweep.back()});
    const double rate = rep.total_seconds > 0.0
                            ? static_cast<double>(rep.raw_edges) /
                                  rep.total_seconds
                            : 0.0;
    const std::string tag = "chunk_" + std::to_string(chunk >> 10) + "k";
    ctx.rec.declare_metric("ingest/" + tag + "/parse_sort_s", wall_s);
    ctx.rec.add_trial("ingest/" + tag + "/parse_sort_s",
                      rep.parse_sort_seconds);
    chunk_table.add_row({std::to_string(chunk >> 10) + " KiB",
                         util::Table::fmt(rep.parse_sort_seconds, 3),
                         util::Table::fmt(rate / 1e6, 2)});
  }
  chunk_table.print("ingest: chunk-size sweep");
  ctx.rec.add_table("ingest: chunk-size sweep", chunk_table);

  ctx.rec.declare_metric("ingest/peak_rss_mb",
                         {.unit = "MiB", .wall = true});
  ctx.rec.add_trial("ingest/peak_rss_mb",
                    static_cast<double>(util::peak_rss_bytes()) /
                        (1024.0 * 1024.0));
  ctx.rec.meta()["input_bytes"] = static_cast<double>(input_bytes);
  ctx.rec.add_note(
      "speedup/* and ingest/*_s are host wall-clock measurements and are "
      "never gated; det/* fields are bit-deterministic and gated.");

  for (const auto& path : cleanup) std::filesystem::remove(path);
}

}  // namespace

ATLC_REGISTER_SCENARIO(ingest, "ingest", "Section IV-A (datasets)",
                       "out-of-core ingest: chunked parallel parse + "
                       "external sort + snapshot (thread/chunk/spill "
                       "sweeps; determinism fields gated)",
                       add_flags, run)
