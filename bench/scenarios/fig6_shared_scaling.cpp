// Paper Fig. 6: strong scaling of the hybrid intersection method on shared
// memory, 1..16 threads, reported as edges/us.
//
// Paper result: 2.7x speedup at 16 threads on R-MAT S20 EF32, limited by
// the per-edge OpenMP region entry cost. NOTE: this host has few cores;
// the curve flattens at the physical core count and the output records
// that deviation explicitly. These are wall-clock measurements of the real
// kernels, so the metrics are host-dependent and never gated.
#include <cstdio>

#if !defined(ATLC_NO_OPENMP)
#include <omp.h>
#endif

#include "atlc/intersect/parallel.hpp"
#include "scenario.hpp"

namespace {

using namespace atlc;

int num_procs() {
#if defined(ATLC_NO_OPENMP)
  return 1;
#else
  return omp_get_num_procs();
#endif
}

double edges_per_us(const graph::CSRGraph& g, int threads, bool smoke) {
  const intersect::ParallelConfig par{.num_threads = threads, .cutoff = 4096};
  util::Recorder rec(smoke
                         ? util::Recorder::Options{.min_reps = 2,
                                                   .max_reps = 3,
                                                   .ci_fraction = 0.25}
                         : util::Recorder::Options{.min_reps = 3,
                                                   .max_reps = 8,
                                                   .ci_fraction = 0.10});
  volatile std::uint64_t sink = 0;
  const auto summary = rec.run_until_ci([&] {
    std::uint64_t total = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto adj_v = g.neighbors(v);
      for (graph::VertexId j : adj_v)
        total += intersect::count_common_parallel(
            adj_v, g.neighbors(j), intersect::Method::Hybrid, par);
    }
    sink = sink + total;
  });
  (void)sink;
  return static_cast<double>(g.num_edges()) / (summary.median * 1e6);
}

void add_flags(util::Cli& cli) {
  cli.add_int("max-threads", "largest thread count in the sweep", 16);
}

void run(bench::ScenarioContext& ctx) {
  const int max_threads =
      ctx.smoke ? 2 : static_cast<int>(ctx.cli.get_int("max-threads"));

  struct Row {
    const char* label;
    bench::ProxySpec spec;
  };
  std::vector<Row> graphs = {
      {"R-MAT S20 EF16",
       {"rmat-ef16", "", 12, 16, graph::Directedness::Undirected, 20,
        bench::ProxySpec::Kind::Rmat}},
      {"R-MAT S20 EF32",
       {"rmat-ef32", "", 12, 32, graph::Directedness::Undirected, 20,
        bench::ProxySpec::Kind::Rmat}},
      {"Orkut", bench::find_proxy("Orkut")},
  };
  if (ctx.smoke) graphs.resize(1);

  std::printf("physical cores: %d — speedups flatten beyond that "
              "(paper host had 16 cores)\n",
              num_procs());

  std::vector<std::string> header = {"Threads"};
  for (const auto& gr : graphs) header.push_back(gr.label);
  util::Table table(header);

  std::vector<double> base(graphs.size(), 0.0);
  for (int t = 1; t <= max_threads; t *= 2) {
    std::vector<std::string> row = {std::to_string(t)};
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const auto& g = ctx.graph(graphs[i].spec);
      const double perf = edges_per_us(g, t, ctx.smoke);
      if (t == 1) base[i] = perf;
      const std::string metric =
          std::string("edges_per_us/") + graphs[i].label + "/t" +
          std::to_string(t);
      ctx.rec.declare_metric(metric, {.unit = "edges/us", .wall = true});
      ctx.rec.add_trial(metric, perf);
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.3f (%.1fx)", perf,
                    base[i] > 0 ? perf / base[i] : 0.0);
      row.push_back(cell);
    }
    table.add_row(std::move(row));
  }
  table.print(
      "Fig. 6: hybrid-method strong scaling (edges/us, speedup vs 1 thread)");
  ctx.rec.add_table("Fig. 6: hybrid-method strong scaling", table);

  std::printf("\npaper shape check: parallel intersection speeds up until "
              "the physical core count (paper: up to 2.7x at 16 threads on "
              "a 16-core host).\n");
  ctx.rec.add_note(
      "wall-clock metrics (host-dependent, never gated); speedup flattens "
      "at the physical core count");
}

}  // namespace

ATLC_REGISTER_SCENARIO(fig6, "fig6", "Fig. 6",
                       "shared-memory strong scaling, hybrid method",
                       add_flags, run)
