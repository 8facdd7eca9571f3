// atlc_ingest — out-of-core ingest pipeline (DESIGN.md §11): stream a SNAP
// text edge list through chunked parallel parse, fused
// clean/sort/dedup/relabel (spilling sorted runs to disk under
// --mem-budget), and write a snapshot (degrees + sorted edges) from which
// `atlc_run --snapshot` reads each rank's CSR slice, for any --ranks and
// --partition.
//
//   atlc_ingest --input orkut.txt --output orkut.snap
//   atlc_run --snapshot orkut.snap --algo lcc --ranks 16
//   atlc_run --rmat-scale 16 --convert rmat.txt   # a generated input
//   atlc_ingest --input rmat.txt --output rmat.snap --mem-budget-mb 64
//
// The snapshot payload is bit-identical to load_text_edges() + graph::clean()
// with the matching seed, for any --threads/--chunk-mb/--mem-budget-mb.
#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "atlc/ingest/pipeline.hpp"
#include "atlc/obs/trace.hpp"
#include "atlc/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace atlc;
  util::Cli cli("atlc_ingest",
                "out-of-core edge-list ingest -> graph snapshot");
  cli.add_string("input", "SNAP text edge list (atlc_run --convert writes "
                 "one)", "");
  cli.add_string("output", "snapshot path to write", "");
  cli.add_flag("directed", "treat the input as directed", false);
  cli.add_int("threads", "parse/sort threads (0 = OpenMP default)", 0);
  cli.add_double("chunk-mb", "target text read-window size in MiB", 8.0);
  cli.add_double("mem-budget-mb",
                 "spill sorted runs to disk past this many MiB per sort "
                 "stage (0 = fully in memory)",
                 0.0);
  cli.add_string("relabel", "random | degree | none", "random");
  cli.add_int("seed", "relabeling seed (random mode; 0 = no relabel)", 1);
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

  // Sizes are checked before the double -> unsigned conversion, which is
  // undefined for a negative or out-of-range value (2^43 MiB = 2^63 bytes;
  // the negated test also refuses NaN).
  const double chunk_mb = cli.get_double("chunk-mb");
  const double budget_mb = cli.get_double("mem-budget-mb");
  for (const auto& [flag, mb] :
       {std::pair{"chunk-mb", chunk_mb}, std::pair{"mem-budget-mb", budget_mb}})
    if (!(mb >= 0.0 && mb < 0x1p43)) {
      std::fprintf(stderr,
                   "atlc_ingest: --%s must be a non-negative size in MiB "
                   "(got %g)\n",
                   flag, mb);
      return 1;
    }

  ingest::IngestOptions opt;
  opt.chunk_bytes = static_cast<std::size_t>(chunk_mb * 1024.0 * 1024.0);
  if (opt.chunk_bytes == 0) opt.chunk_bytes = 1;
  opt.num_threads = static_cast<int>(cli.get_int("threads"));
  opt.mem_budget_bytes =
      static_cast<std::uint64_t>(budget_mb * 1024.0 * 1024.0);
  opt.directedness = cli.get_flag("directed")
                         ? graph::Directedness::Directed
                         : graph::Directedness::Undirected;
  opt.relabel_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string& relabel = cli.get_string("relabel");
  if (relabel == "none") {
    opt.relabel_seed = 0;  // `random` with seed 0 relabels nothing
  } else if (relabel == "degree") {
    opt.relabel = ingest::RelabelMode::DegreeDescending;
  } else if (relabel != "random") {
    std::fprintf(stderr,
                 "atlc_ingest: unknown --relabel '%s' (random | degree | "
                 "none)\n",
                 relabel.c_str());
    return 1;
  }
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
  std::fprintf(stderr, "# snapshot: %.1f MiB\n",
               static_cast<double>(rep.snapshot_bytes) / mb);
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
