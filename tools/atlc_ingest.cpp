// atlc_ingest — out-of-core ingest pipeline (DESIGN.md §11): stream a SNAP
// text edge list through chunked parallel parse, fused
// clean/sort/dedup/relabel (spilling sorted runs to disk under
// --mem-budget), and write a v2 partition-sliced snapshot whose slice index
// lets `atlc_run --snapshot` seek-read each rank's CSR slice.
//
//   atlc_ingest --input orkut.txt --output orkut.v2 --ranks 16
//   atlc_run --snapshot orkut.v2 --algo lcc --ranks 16
//   atlc_run --rmat-scale 16 --convert rmat.txt   # a generated input
//   atlc_ingest --input rmat.txt --output rmat.v2 --mem-budget-mb 64
//
// The snapshot payload is bit-identical to load_edges() + graph::clean()
// with the matching seed, for any --threads/--chunk-mb/--mem-budget-mb.
#include <cstdio>
#include <exception>
#include <string>

#include "atlc/ingest/pipeline.hpp"
#include "atlc/obs/trace.hpp"
#include "atlc/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace atlc;
  util::Cli cli("atlc_ingest",
                "out-of-core edge-list ingest -> v2 partition-sliced "
                "snapshot");
  cli.add_string("input", "SNAP text edge list (atlc_run --convert writes "
                 "one)", "");
  cli.add_string("output", "snapshot path to write", "");
  cli.add_int("ranks", "rank count the slice index is built for", 8);
  cli.add_flag("directed", "treat the input as directed", false);
  cli.add_int("threads", "parse/sort threads (0 = OpenMP default)", 0);
  cli.add_double("chunk-mb", "target text read-window size in MiB", 8.0);
  cli.add_double("mem-budget-mb",
                 "spill sorted runs to disk past this many MiB per sort "
                 "stage (0 = fully in memory)",
                 0.0);
  cli.add_string("relabel", "random | degree | none", "random");
  cli.add_int("seed", "relabeling seed (random mode)", 1);
  cli.add_flag("keep-low-degree",
               "keep degree<2 vertices (skip the clean() low-degree pass)",
               false);
  cli.add_string("tmp-dir", "directory for spill files ('' = alongside "
                 "the output)", "");
  cli.add_string("trace",
                 "write a Chrome trace-event JSON of the pipeline's stage "
                 "spans (wall clock; not deterministic) to this path",
                 "");
  if (!cli.parse(argc, argv)) return 1;

  if (cli.get_string("input").empty() || cli.get_string("output").empty()) {
    std::fprintf(stderr, "atlc_ingest: --input and --output are required\n");
    return 1;
  }

  ingest::IngestOptions opt;
  opt.chunk_bytes = static_cast<std::size_t>(
      cli.get_double("chunk-mb") * 1024.0 * 1024.0);
  if (opt.chunk_bytes == 0) opt.chunk_bytes = 1;
  opt.num_threads = static_cast<int>(cli.get_int("threads"));
  opt.mem_budget_bytes = static_cast<std::uint64_t>(
      cli.get_double("mem-budget-mb") * 1024.0 * 1024.0);
  opt.ranks = static_cast<std::uint32_t>(cli.get_int("ranks"));
  opt.directedness = cli.get_flag("directed")
                         ? graph::Directedness::Directed
                         : graph::Directedness::Undirected;
  const std::string& relabel = cli.get_string("relabel");
  if (relabel == "random") {
    opt.relabel = ingest::RelabelMode::Random;
  } else if (relabel == "degree") {
    opt.relabel = ingest::RelabelMode::DegreeDescending;
  } else if (relabel == "none") {
    opt.relabel = ingest::RelabelMode::None;
  } else {
    std::fprintf(stderr,
                 "atlc_ingest: unknown --relabel '%s' (random | degree | "
                 "none)\n",
                 relabel.c_str());
    return 1;
  }
  opt.relabel_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (opt.relabel == ingest::RelabelMode::Random && opt.relabel_seed == 0)
    opt.relabel = ingest::RelabelMode::None;  // clean()'s seed-0 convention
  opt.remove_degree_lt2 = !cli.get_flag("keep-low-degree");
  opt.tmp_dir = cli.get_string("tmp-dir");
  // Ingest spans carry wall timestamps (no virtual clock here), so the
  // trace is informative but not byte-deterministic.
  obs::TraceCollector trace;
  trace.capture_wall = true;
  const std::string& trace_path = cli.get_string("trace");
  if (!trace_path.empty()) opt.trace = &trace;

  ingest::IngestReport rep;
  try {
    rep = ingest::run_ingest(cli.get_string("input"),
                             cli.get_string("output"), opt);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "atlc_ingest: %s\n", ex.what());
    return 1;
  }
  if (!trace_path.empty()) {
    if (!trace.write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "atlc_ingest: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "# trace: %zu events -> %s\n", trace.total_events(),
                 trace_path.c_str());
  }

  const double mb = 1024.0 * 1024.0;
  std::fprintf(stderr,
               "# text input: %.1f MiB, %llu lines, %llu pairs -> %llu raw "
               "edges\n",
               static_cast<double>(rep.bytes_read) / mb,
               static_cast<unsigned long long>(rep.lines),
               static_cast<unsigned long long>(rep.pairs_parsed),
               static_cast<unsigned long long>(rep.raw_edges));
  std::fprintf(stderr,
               "# clean: -%llu dups, -%llu self loops, -%u low-degree "
               "vertices -> %u vertices, %llu edge slots\n",
               static_cast<unsigned long long>(rep.duplicates_removed),
               static_cast<unsigned long long>(rep.self_loops_removed),
               rep.vertices_removed, rep.num_vertices,
               static_cast<unsigned long long>(rep.num_edges));
  std::fprintf(stderr,
               "# snapshot: %.1f MiB, %u-rank slice index, extents "
               "block=%llu cyclic=%llu degree=%llu grid=%llu\n",
               static_cast<double>(rep.snapshot_bytes) / mb, rep.ranks,
               static_cast<unsigned long long>(rep.extents[0]),
               static_cast<unsigned long long>(rep.extents[1]),
               static_cast<unsigned long long>(rep.extents[2]),
               static_cast<unsigned long long>(rep.extents[3]));
  std::fprintf(stderr,
               "# time: parse %.2f s + sort %.2f s + merge %.2f s + write "
               "%.2f s = %.2f s total (%zu spill runs) | %.2f Medges/s | "
               "peak rss %.1f MiB\n",
               rep.parse_seconds, rep.sort_seconds, rep.merge_seconds,
               rep.write_seconds, rep.total_seconds, rep.spill_runs,
               rep.total_seconds > 0.0
                   ? static_cast<double>(rep.raw_edges) / rep.total_seconds /
                         1e6
                   : 0.0,
               static_cast<double>(rep.peak_rss_bytes) / mb);
  return 0;
}
