// atlc_serve — drive the resident query-serving layer (DESIGN.md §13) over
// a synthetic Zipf-skewed point-query stream interleaved with update
// batches, and report the serving metrics that matter at "millions of
// users" scale: virtual p50/p99 query latency, admission rejections and
// HotVertexCache hit rates, per epoch and in aggregate.
//
//   atlc_serve --scale 12 --ranks 8 --epochs 8 --queries-per-epoch 4096
//   atlc_serve --zipf 1.2 --hot-entries 4096 --batch-size 256
//   atlc_serve --input graph.txt --capacity 512 --stats-json out.json
//
// Every number is virtual-time deterministic for a fixed seed: two runs
// with the same flags print byte-identical reports (the serve bench
// scenario and tests/test_serve.cpp pin that property down).
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "atlc/graph/clean.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/obs/trace.hpp"
#include "atlc/serve/query_engine.hpp"
#include "atlc/serve/workload.hpp"
#include "atlc/util/cli.hpp"
#include "atlc/util/json.hpp"
#include "atlc/util/recorder.hpp"
#include "atlc/util/table.hpp"

namespace {

using namespace atlc;

/// --stats-json: the engine block every engine run emits (DESIGN.md §12),
/// then the serving keys.
util::Json stats_json(const serve::ServeResult& res) {
  const core::QueryStats& qs = res.stats;
  util::Json doc = core::stats_json(qs);
  doc["submitted"] = qs.submitted;
  doc["answered"] = qs.answered;
  doc["rejected"] = qs.rejected;
  doc["latency_p50"] = qs.latency_percentile(50);
  doc["latency_p99"] = qs.latency_percentile(99);
  doc["build_makespan"] = res.build_makespan;
  doc["serve_makespan"] = res.serve_makespan;
  doc["hot_cache"] = util::to_json(res.hot_cache_total);
  util::Json epochs = util::Json::array();
  for (const serve::EpochOutcome& e : res.epochs) {
    util::Json je = util::Json::object();
    je["submitted"] = e.submitted;
    je["accepted"] = e.accepted;
    je["rejected"] = e.rejected;
    je["hot_hits"] = e.hot_hits;
    je["effective_insertions"] = e.effective_insertions;
    je["effective_deletions"] = e.effective_deletions;
    je["rows_rebuilt"] = e.rows_rebuilt;
    je["query_makespan"] = e.query_makespan;
    je["update_makespan"] = e.update_makespan;
    epochs.push_back(std::move(je));
  }
  doc["epochs"] = std::move(epochs);
  util::Json per_query = util::Json::array();
  for (const core::QueryCost& qc : qs.per_query) {
    util::Json jq = util::Json::object();
    jq["id"] = qc.id;
    jq["epoch"] = static_cast<std::uint64_t>(qc.epoch);
    jq["edges"] = qc.edges_processed;
    jq["remote_edges"] = qc.remote_edges;
    jq["seconds"] = qc.seconds;
    per_query.push_back(std::move(jq));
  }
  doc["per_query"] = std::move(per_query);
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("atlc_serve",
                "always-on query serving: Zipf point queries interleaved "
                "with update batches");
  cli.add_string("input", "SNAP-format edge list ('' = generate R-MAT)", "");
  cli.add_int("scale", "R-MAT scale when generating", 10);
  cli.add_int("edge-factor", "R-MAT edge factor when generating", 8);
  cli.add_int("graph-seed", "R-MAT seed", 13);
  cli.add_int("ranks", "simulated ranks", 8);
  cli.add_string("partition", "block | cyclic | degree1d", "block");
  cli.add_double("hub-frac", "replicated hub fraction (degree skew tier)",
                 0.0);
  cli.add_flag("cached", "enable the CLaMPI window cache", false);
  // Workload.
  cli.add_int("epochs", "serving epochs (query burst + update batch)", 8);
  cli.add_int("queries-per-epoch", "point queries arriving per epoch", 1024);
  cli.add_double("zipf", "query traffic skew (0 = uniform)", 1.0);
  cli.add_int("topk", "k for the recommendation queries", 8);
  cli.add_double("lcc-frac", "fraction of queries that are lcc(v)", 0.5);
  cli.add_double("common-frac", "fraction that are topk_common(v, k)", 0.3);
  cli.add_int("batch-size", "updates per epoch batch (0 = queries only)",
              128);
  cli.add_double("insert-frac", "insert share of each update batch", 0.7);
  cli.add_int("seed", "workload seed", 1);
  // Serving controls.
  cli.add_int("capacity", "admission queue bound per epoch", 1024);
  cli.add_int("hot-entries", "HotVertexCache slots (0 = off)", 1024);
  cli.add_int("hot-ways", "HotVertexCache bucket associativity", 4);
  cli.add_string("stats-json", "write the aggregate QueryStats document "
                 "('' = off)", "");
  cli.add_string("trace", "write a Chrome trace-event JSON of the serving "
                 "epochs ('' = off)", "");
  if (!cli.parse(argc, argv)) return 1;

  // Range checks before the unsigned casts below: a wrapped --ranks would
  // ask the runtime for 2^32 - 1 rank threads, and a wrapped count would
  // size a workload, a queue or a cache by it.
  const auto refuse_outside = [&](const char* flag, std::int64_t lo) {
    const std::int64_t v = cli.get_int(flag);
    if (v >= lo && v <= std::int64_t{UINT32_MAX}) return false;
    std::fprintf(stderr,
                 "atlc_serve: --%s must be between %lld and %u (got %lld)\n",
                 flag, static_cast<long long>(lo), UINT32_MAX,
                 static_cast<long long>(v));
    return true;
  };
  if (refuse_outside("ranks", 1)) return 1;
  for (const char* flag : {"epochs", "queries-per-epoch", "capacity",
                           "hot-entries", "hot-ways", "batch-size", "topk"})
    if (refuse_outside(flag, 0)) return 1;

  try {
    graph::EdgeList edges =
        cli.get_string("input").empty()
            ? graph::generate_rmat(
                  {.scale = static_cast<unsigned>(cli.get_int("scale")),
                   .edge_factor =
                       static_cast<unsigned>(cli.get_int("edge-factor")),
                   .seed = static_cast<std::uint64_t>(
                       cli.get_int("graph-seed")),
                   .directedness = graph::Directedness::Undirected})
            : graph::load_text_edges(cli.get_string("input"),
                                     graph::Directedness::Undirected);
    graph::clean(edges);
    const graph::CSRGraph g = graph::CSRGraph::from_edges(edges);
    std::printf("graph: %u vertices, %zu directed edges\n", g.num_vertices(),
                g.num_edges());

    serve::QueryWorkloadConfig wc;
    wc.num_epochs = static_cast<std::size_t>(cli.get_int("epochs"));
    wc.queries_per_epoch =
        static_cast<std::size_t>(cli.get_int("queries-per-epoch"));
    wc.zipf_skew = cli.get_double("zipf");
    wc.topk = static_cast<std::uint32_t>(cli.get_int("topk"));
    wc.lcc_fraction = cli.get_double("lcc-frac");
    wc.common_fraction = cli.get_double("common-frac");
    wc.batch_size = static_cast<std::size_t>(cli.get_int("batch-size"));
    wc.insert_fraction = cli.get_double("insert-frac");
    wc.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const auto epochs = serve::generate_query_stream(g, wc);

    serve::ServeOptions opts;
    opts.admission_capacity =
        static_cast<std::size_t>(cli.get_int("capacity"));
    opts.hot_cache.entries =
        static_cast<std::size_t>(cli.get_int("hot-entries"));
    opts.hot_cache.ways = static_cast<std::size_t>(cli.get_int("hot-ways"));
    opts.engine.hub_fraction = cli.get_double("hub-frac");
    const std::string& part = cli.get_string("partition");
    if (part == "block") {
      opts.partition = graph::PartitionKind::Block1D;
    } else if (part == "cyclic") {
      opts.partition = graph::PartitionKind::Cyclic1D;
    } else if (part == "degree1d") {
      opts.partition = graph::PartitionKind::DegreeBalanced1D;
    } else {
      std::fprintf(stderr,
                   "atlc_serve: unknown --partition '%s' (point queries "
                   "need whole rows: block | cyclic | degree1d)\n",
                   part.c_str());
      return 1;
    }
    if (cli.get_flag("cached")) {
      opts.engine.use_cache = true;
      opts.engine.cache_sizing = core::CacheSizing::paper_default(
          g.num_vertices(), g.csr_bytes() / 2);
    }
    obs::TraceCollector trace;
    if (!cli.get_string("trace").empty()) opts.engine.trace = &trace;

    const auto ranks = static_cast<std::uint32_t>(cli.get_int("ranks"));
    const serve::ServeResult res =
        serve::QueryEngine(g, opts).run(epochs, ranks);

    util::Table t({"epoch", "submitted", "accepted", "rejected", "hot hits",
                   "rows rebuilt", "query (s)", "update (s)"});
    for (std::size_t e = 0; e < res.epochs.size(); ++e) {
      const serve::EpochOutcome& eo = res.epochs[e];
      t.add_row({util::Table::fmt_int(e), util::Table::fmt_int(eo.submitted),
                 util::Table::fmt_int(eo.accepted),
                 util::Table::fmt_int(eo.rejected),
                 util::Table::fmt_int(eo.hot_hits),
                 util::Table::fmt_int(eo.rows_rebuilt),
                 util::Table::fmt(eo.query_makespan, 5),
                 util::Table::fmt(eo.update_makespan, 5)});
    }
    t.print("serving epochs (ranks=" + std::to_string(ranks) + ")");

    const core::QueryStats& qs = res.stats;
    std::printf(
        "\nanswered %llu/%llu (%llu rejected) | virtual latency p50 %.3e s, "
        "p99 %.3e s\n",
        static_cast<unsigned long long>(qs.answered),
        static_cast<unsigned long long>(qs.submitted),
        static_cast<unsigned long long>(qs.rejected),
        qs.latency_percentile(50), qs.latency_percentile(99));
    std::printf(
        "hot cache: %.1f%% hit rate (%llu hits, %llu stale, %llu evictions) "
        "| pipeline: %llu edges, %.0f%% remote\n",
        100.0 * res.hot_cache_total.hit_rate(),
        static_cast<unsigned long long>(res.hot_cache_total.hits),
        static_cast<unsigned long long>(res.hot_cache_total.stale_misses),
        static_cast<unsigned long long>(res.hot_cache_total.evictions),
        static_cast<unsigned long long>(qs.edges_processed),
        100.0 * qs.remote_edge_fraction());
    std::printf("virtual makespan: build %.5f s + serve %.5f s\n",
                res.build_makespan, res.serve_makespan);

    if (!cli.get_string("stats-json").empty()) {
      if (!util::write_json_file(cli.get_string("stats-json"),
                                 stats_json(res))) {
        std::fprintf(stderr, "atlc_serve: cannot write %s\n",
                     cli.get_string("stats-json").c_str());
        return 1;
      }
      std::printf("stats JSON -> %s\n", cli.get_string("stats-json").c_str());
    }
    if (!cli.get_string("trace").empty()) {
      if (!trace.write_chrome_trace(cli.get_string("trace"))) {
        std::fprintf(stderr, "atlc_serve: cannot write %s\n",
                     cli.get_string("trace").c_str());
        return 1;
      }
      std::printf("trace -> %s\n", cli.get_string("trace").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "atlc_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
