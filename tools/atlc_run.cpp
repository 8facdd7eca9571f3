// atlc_run — command-line driver for the full system: compute LCC, global
// TC, or a per-edge similarity analytic (Jaccard, overlap coefficient,
// Adamic–Adar) on an edge-list file (or a generated R-MAT instance) with
// the complete engine flag surface, and emit results as CSV for downstream
// analysis. `--stream-batches` switches to the dynamic engine (atlc::stream):
// apply generated update batches and maintain TC/LCC incrementally.
//
//   atlc_run --input graph.txt --algo lcc --ranks 16 --cache --out lcc.csv
//   atlc_run --rmat-scale 14 --algo tc --ranks 32 --pipeline-depth 4
//   atlc_run --input graph.txt --algo adamic-adar --cache --scores degree
//   atlc_run --input graph.txt --stream-batches 8 --batch-size 1024 --cache
//   atlc_run --rmat-scale 14 --convert g.txt       # write SNAP text, exit
//   atlc_run --snapshot graph.snap --algo lcc      # atlc_ingest output;
//     skips clean/relabel and reads each rank's CSR slice out of core, at
//     any --ranks and --partition
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "atlc/core/lcc.hpp"
#include "atlc/core/similarity.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/degree_stats.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/ingest/snapshot.hpp"
#include "atlc/obs/trace.hpp"
#include "atlc/stream/stream_engine.hpp"
#include "atlc/util/cli.hpp"
#include "atlc/util/json.hpp"
#include "atlc/util/timer.hpp"

namespace {

using namespace atlc;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f && f != stdout) std::fclose(f);
  }
};

std::unique_ptr<std::FILE, FileCloser> open_out(const std::string& path) {
  if (path.empty() || path == "-")
    return std::unique_ptr<std::FILE, FileCloser>(stdout);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "atlc_run: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  return std::unique_ptr<std::FILE, FileCloser>(f);
}

core::EngineConfig engine_config(const util::Cli& cli,
                                 const graph::CSRGraph& g) {
  core::EngineConfig cfg;
  const std::string& method = cli.get_string("method");
  cfg.method = method == "ssi"      ? intersect::Method::SSI
               : method == "binary" ? intersect::Method::Binary
                                    : intersect::Method::Hybrid;
  cfg.pipeline_depth = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("pipeline-depth")));
  cfg.hub_fraction = cli.get_double("hub-frac");
  if (cli.get_flag("cache")) {
    cfg.use_cache = true;
    cfg.cache_sizing = core::CacheSizing::paper_default(
        g.num_vertices(),
        static_cast<std::uint64_t>(cli.get_double("cache-frac") *
                                   static_cast<double>(g.csr_bytes())));
    cfg.victim_policy = cli.get_string("scores") == "degree"
                            ? clampi::VictimPolicy::UserScore
                            : clampi::VictimPolicy::LruPositional;
    cfg.cache_adaptive = cli.get_flag("adaptive");
  }
  return cfg;
}

void print_run_summary(const core::EdgeAnalyticStats& s) {
  const rma::Runtime::Result& run = s.run;
  const auto total = run.total();
  std::fprintf(stderr,
               "# makespan %.4f s (virtual) | wall %.2f s | remote gets "
               "%llu | comm %.3f s | compute %.3f s | cache hits %.1f%%\n",
               run.makespan, run.wall_seconds,
               static_cast<unsigned long long>(total.remote_gets),
               total.comm_seconds, total.compute_seconds,
               100.0 * s.adj_cache_total.hit_rate());
  if (total.hub_local_hits > 0)
    std::fprintf(stderr, "# hub replica served %llu fetches locally\n",
                 static_cast<unsigned long long>(total.hub_local_hits));
}

/// One engine run as main() drives it: the inputs, plus where the CSV
/// body goes (unless --stats-only).
struct Job {
  const util::Cli& cli;
  const graph::CSRGraph& g;
  std::uint32_t ranks;
  const core::EngineConfig& cfg;
  graph::PartitionKind partition;
  std::FILE* out;

  [[nodiscard]] bool csv() const { return !cli.get_flag("stats-only"); }
};

core::EdgeAnalyticStats run_lcc(const Job& j) {
  const auto r =
      core::run_distributed_lcc(j.g, j.ranks, j.cfg, {}, j.partition);
  std::fprintf(stderr, "# global triangles: %llu\n",
               static_cast<unsigned long long>(r.global_triangles));
  if (j.csv()) {
    std::fprintf(j.out, "vertex,degree,triangles,lcc\n");
    for (graph::VertexId v = 0; v < j.g.num_vertices(); ++v)
      std::fprintf(j.out, "%u,%u,%llu,%.6f\n", v, j.g.degree(v),
                   static_cast<unsigned long long>(r.triangles[v]), r.lcc[v]);
  }
  return r;
}

core::EdgeAnalyticStats run_tc(const Job& j) {
  const auto r =
      core::run_distributed_tc_result(j.g, j.ranks, j.cfg, {}, j.partition);
  std::fprintf(j.out, "global_triangles\n%llu\n",
               static_cast<unsigned long long>(r.global_triangles));
  return r;
}

/// The per-edge similarity measures share the slot layout and the stats
/// block, so one emission path serves all three.
template <core::SimilarityResult (*Measure)(
    const graph::CSRGraph&, std::uint32_t, const core::EngineConfig&,
    const rma::NetworkModel&, graph::PartitionKind)>
core::EdgeAnalyticStats run_similarity(const Job& j) {
  const auto r = Measure(j.g, j.ranks, j.cfg, {}, j.partition);
  if (j.csv()) {
    std::fprintf(j.out, "u,v,%s\n", j.cli.get_string("algo").c_str());
    std::size_t k = 0;
    for (graph::VertexId u = 0; u < j.g.num_vertices(); ++u)
      for (graph::VertexId v : j.g.neighbors(u))
        std::fprintf(j.out, "%u,%u,%.6f\n", u, v, r.score[k++]);
  }
  return r;
}

/// --stream-batches: generated update batches through the incremental
/// engine, maintaining TC (--algo tc) or per-vertex LCC.
core::EdgeAnalyticStats run_streaming(const Job& j) {
  stream::WorkloadConfig wl;
  wl.num_batches = static_cast<std::size_t>(j.cli.get_int("stream-batches"));
  wl.batch_size = static_cast<std::size_t>(
      std::max<std::int64_t>(1, j.cli.get_int("batch-size")));
  wl.insert_fraction = j.cli.get_double("stream-insert-frac");
  wl.seed = static_cast<std::uint64_t>(j.cli.get_int("seed"));
  const auto batches = stream::generate_batches(j.g, wl);

  stream::StreamOptions sopts;
  sopts.engine = j.cfg;
  sopts.partition = j.partition;
  const auto r = stream::run_streaming_lcc(j.g, batches, j.ranks, sopts);
  std::fprintf(stderr,
               "# cold count %.4f s | stream %.4f s over %zu batches | "
               "stale evictions %llu\n",
               r.initial_makespan, r.stream_makespan, batches.size(),
               static_cast<unsigned long long>(
                   r.adj_cache_total.stale_evictions +
                   r.offsets_cache_total.stale_evictions));
  for (std::size_t bi = 0; bi < r.batches.size(); ++bi) {
    const auto& b = r.batches[bi];
    std::fprintf(stderr,
                 "#   batch %zu: +%llu -%llu edges, %lld tri delta -> "
                 "%llu triangles, %llu rows, %.5f s\n",
                 bi, static_cast<unsigned long long>(b.effective_insertions),
                 static_cast<unsigned long long>(b.effective_deletions),
                 static_cast<long long>(b.triangles_delta),
                 static_cast<unsigned long long>(b.global_triangles),
                 static_cast<unsigned long long>(b.rows_rebuilt), b.makespan);
  }
  if (j.cli.get_string("algo") == "tc") {
    std::fprintf(j.out, "global_triangles\n%llu\n",
                 static_cast<unsigned long long>(r.global_triangles));
  } else if (j.csv()) {
    std::fprintf(j.out, "vertex,triangles,lcc\n");
    for (graph::VertexId v = 0; v < j.g.num_vertices(); ++v)
      std::fprintf(j.out, "%u,%llu,%.6f\n", v,
                   static_cast<unsigned long long>(r.triangles[v]), r.lcc[v]);
  }
  return r;
}

/// The static analytics by --algo name.
using Analytic = core::EdgeAnalyticStats (*)(const Job&);
constexpr std::pair<std::string_view, Analytic> kAnalytics[] = {
    {"lcc", run_lcc},
    {"tc", run_tc},
    {"jaccard", run_similarity<core::run_distributed_jaccard>},
    {"overlap", run_similarity<core::run_distributed_overlap>},
    {"adamic-adar", run_similarity<core::run_distributed_adamic_adar>},
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("atlc_run",
                "distributed LCC / TC / similarity measures on an edge "
                "list or R-MAT");
  cli.add_string("input", "SNAP-format edge list ('' = generate R-MAT)", "");
  cli.add_string("snapshot",
                 "graph snapshot (atlc_ingest output): the payload is "
                 "already cleaned/relabeled, so --seed cleaning is skipped "
                 "and each rank's CSR slice is read from the file",
                 "");
  cli.add_flag("directed", "treat the input as directed", false);
  cli.add_int("rmat-scale", "R-MAT scale when generating", 13);
  cli.add_int("rmat-ef", "R-MAT edge factor when generating", 16);
  cli.add_int("seed", "generator / relabeling seed", 1);
  cli.add_string("algo", "lcc | tc | jaccard | overlap | adamic-adar", "lcc");
  cli.add_int("ranks", "simulated compute nodes", 8);
  cli.add_string("partition", "block | cyclic | degree1d | grid2d", "block");
  cli.add_double("hub-frac",
                 "replicate the adjacency of this fraction of the "
                 "highest-degree vertices on every rank (0 = off)",
                 0.0);
  cli.add_string("method", "hybrid | ssi | binary", "hybrid");
  cli.add_int("pipeline-depth",
              "prefetch pipeline depth k (2 = paper double buffering, "
              "1 = no transfer/compute overlap)",
              2);
  cli.add_flag("cache", "enable CLaMPI-style RMA caching", false);
  cli.add_double("cache-frac", "cache budget as fraction of CSR bytes", 0.5);
  cli.add_string("scores", "clampi | degree (victim-selection scores)",
                 "degree");
  cli.add_flag("adaptive", "enable adaptive hash resizing", false);
  cli.add_string("trace",
                 "write a Chrome trace-event JSON (Perfetto-loadable) of "
                 "the run's virtual-time spans to this path",
                 "");
  cli.add_flag("trace-wall",
               "stamp trace events with wall-clock time too (machine-"
               "dependent: forfeits byte-identical traces)",
               false);
  cli.add_string("stats-json",
                 "write aggregated CommStats/CacheStats/makespan JSON to "
                 "this path",
                 "");
  cli.add_string("out", "output CSV path ('-' = stdout)", "-");
  cli.add_flag("stats-only", "skip the per-item CSV body", false);
  cli.add_string("convert",
                 "write the loaded or generated edge list to this SNAP "
                 "text file and exit (input for atlc_ingest)",
                 "");
  cli.add_int("stream-batches",
              "apply this many update batches with the incremental "
              "streaming engine (0 = static run)",
              0);
  cli.add_int("batch-size", "updates per streaming batch", 256);
  cli.add_double("stream-insert-frac",
                 "fraction of streamed updates that are insertions", 0.7);
  if (!cli.parse(argc, argv)) return 1;

  // Range checks before the unsigned conversions: a wrapped --ranks would
  // ask the runtime for billions of rank threads, and a negative
  // --cache-frac makes the budget's double -> uint64 cast undefined (the
  // negated test also refuses NaN).
  const std::int64_t ranks_arg = cli.get_int("ranks");
  if (ranks_arg < 1 || ranks_arg > std::int64_t{UINT32_MAX}) {
    std::fprintf(stderr,
                 "atlc_run: --ranks must be between 1 and %u (got %lld)\n",
                 UINT32_MAX, static_cast<long long>(ranks_arg));
    return 1;
  }
  const double cache_frac = cli.get_double("cache-frac");
  if (!(cache_frac >= 0.0 && cache_frac <= 1e6)) {
    std::fprintf(stderr,
                 "atlc_run: --cache-frac must be between 0 and 1e6 (got "
                 "%g)\n",
                 cache_frac);
    return 1;
  }

  // --- load or generate the graph, then clean it (paper Sec. II-B).
  util::Timer load_timer;
  graph::EdgeList edges;
  auto dir = cli.get_flag("directed") ? graph::Directedness::Directed
                                      : graph::Directedness::Undirected;
  std::unique_ptr<ingest::SnapshotReader> snap;
  if (!cli.get_string("snapshot").empty()) {
    if (!cli.get_string("input").empty()) {
      std::fprintf(stderr,
                   "atlc_run: --snapshot and --input are mutually "
                   "exclusive\n");
      return 1;
    }
    if (!cli.get_string("convert").empty()) {
      std::fprintf(stderr,
                   "atlc_run: --convert does not apply to --snapshot input "
                   "(a snapshot is already cleaned)\n");
      return 1;
    }
  }
  try {
    if (!cli.get_string("snapshot").empty()) {
      snap = std::make_unique<ingest::SnapshotReader>(
          cli.get_string("snapshot"));
      edges = snap->read_all();
      dir = edges.directedness();
    } else if (!cli.get_string("input").empty()) {
      // SNAP text; an ATLC binary file is refused with a pointed message.
      edges = graph::load_edges(cli.get_string("input"), dir);
    } else {
      edges = graph::generate_rmat(
          {.scale = static_cast<unsigned>(cli.get_int("rmat-scale")),
           .edge_factor = static_cast<unsigned>(cli.get_int("rmat-ef")),
           .seed = static_cast<std::uint64_t>(cli.get_int("seed")),
           .directedness = dir});
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "atlc_run: %s\n", ex.what());
    return 1;
  }
  if (!cli.get_string("convert").empty()) {
    // Write the edge list as loaded, before cleaning: atlc_ingest, or a
    // later --input of the file, cleans it.
    const std::size_t lines =
        graph::save_text_edges(edges, cli.get_string("convert"));
    std::fprintf(stderr,
                 "# wrote %zu edges to %s (SNAP text, %.1f s total)\n",
                 lines, cli.get_string("convert").c_str(),
                 load_timer.elapsed_s());
    return 0;
  }
  // A v2 snapshot already went through the fused clean/relabel in
  // atlc_ingest; cleaning again would re-permute the ids.
  if (!snap)
    graph::clean(edges, {.relabel_seed = static_cast<std::uint64_t>(
                             cli.get_int("seed"))});
  const auto g = graph::CSRGraph::from_edges(edges);
  const auto deg = graph::degree_stats(g);
  std::fprintf(stderr,
               "# graph: %u vertices, %llu edge slots, max deg %u, "
               "gini %.2f (loaded in %.1f s)\n",
               g.num_vertices(),
               static_cast<unsigned long long>(g.num_edges()), deg.max,
               deg.gini, load_timer.elapsed_s());

  const auto ranks = static_cast<std::uint32_t>(ranks_arg);
  const std::string& part_name = cli.get_string("partition");
  graph::PartitionKind partition;
  if (part_name == "block" || part_name == "block1d") {
    partition = graph::PartitionKind::Block1D;
  } else if (part_name == "cyclic" || part_name == "cyclic1d") {
    partition = graph::PartitionKind::Cyclic1D;
  } else if (part_name == "degree1d") {
    partition = graph::PartitionKind::DegreeBalanced1D;
  } else if (part_name == "grid2d") {
    partition = graph::PartitionKind::Grid2D;
  } else {
    std::fprintf(stderr,
                 "atlc_run: unknown --partition '%s' (block | cyclic | "
                 "degree1d | grid2d)\n",
                 part_name.c_str());
    return 1;
  }
  auto cfg = engine_config(cli, g);
  // Tracing is wired only when requested: a null EngineConfig::trace keeps
  // every hook down to a single pointer test, so untraced runs stay
  // bit-identical to pre-obs builds.
  obs::TraceCollector trace;
  trace.capture_wall = cli.get_flag("trace-wall");
  const std::string& trace_path = cli.get_string("trace");
  const std::string& stats_path = cli.get_string("stats-json");
  if (!trace_path.empty()) cfg.trace = &trace;
  const bool streaming = cli.get_int("stream-batches") > 0;
  if (snap) {
    // Out-of-core build: the static engine reads each rank's slice from
    // the snapshot. The streaming engine rebuilds rows in memory as updates
    // land, so its graph builds stay in-memory.
    if (streaming) {
      std::fprintf(stderr,
                   "# snapshot slices unused by the streaming engine "
                   "(updates rebuild rows in memory)\n");
    } else {
      cfg.slice_source = snap.get();
    }
  }
  auto out = open_out(cli.get_string("out"));

  const std::string& algo = cli.get_string("algo");
  Analytic analytic = nullptr;
  for (const auto& [name, fn] : kAnalytics)
    if (name == algo) analytic = fn;
  if (analytic == nullptr) {
    std::fprintf(stderr, "atlc_run: unknown --algo '%s'\n", algo.c_str());
    return 1;
  }
  const bool similarity = algo != "lcc" && algo != "tc";
  // Friendly rejections for the 2D partition: the incremental stream
  // counter and the per-edge similarity analytics are 1D-only (the library
  // would abort on the same conditions via ATLC_CHECK).
  if (partition == graph::PartitionKind::Grid2D && streaming) {
    std::fprintf(stderr,
                 "atlc_run: --partition grid2d does not support "
                 "--stream-batches yet (incremental counting is 1D-only)\n");
    return 1;
  }
  if (partition == graph::PartitionKind::Grid2D && similarity) {
    std::fprintf(stderr,
                 "atlc_run: --partition grid2d does not support per-edge "
                 "similarity scores (they need whole adjacency rows)\n");
    return 1;
  }
  if (streaming) {
    if (similarity) {
      std::fprintf(stderr,
                   "atlc_run: --stream-batches maintains TC/LCC only "
                   "(--algo %s unsupported)\n",
                   algo.c_str());
      return 1;
    }
    if (dir == graph::Directedness::Directed) {
      std::fprintf(stderr,
                   "atlc_run: --stream-batches needs an undirected graph\n");
      return 1;
    }
    analytic = run_streaming;
  }

  const core::EdgeAnalyticStats stats =
      analytic({cli, g, ranks, cfg, partition, out.get()});
  // Shared artifacts of every engine path: the Chrome trace, the
  // --stats-json document and the summary line.
  if (!trace_path.empty()) {
    if (!trace.write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "atlc_run: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "# trace: %zu events -> %s\n", trace.total_events(),
                 trace_path.c_str());
  }
  if (!stats_path.empty()) {
    util::Json doc = core::stats_json(stats);
    doc["algo"] = algo;
    if (!util::write_json_file(stats_path, doc)) {
      std::fprintf(stderr, "atlc_run: cannot write %s\n", stats_path.c_str());
      return 1;
    }
  }
  print_run_summary(stats);
  return 0;
}
