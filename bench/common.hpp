#pragma once

// Shared helpers for the atlc_bench scenarios (see scenario.hpp for the
// registry).
//
// Every scenario runs WITHOUT arguments using proxy graphs scaled to fit a
// small container (see DESIGN.md section 1 for the proxy rationale), and
// accepts --scale-boost=N to grow every proxy by N R-MAT scale steps toward
// the paper's sizes, plus --graph-file=PATH to run on a real SNAP edge list
// when one is available offline.

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#if !defined(ATLC_NO_OPENMP)
#include <omp.h>
#endif

#include "atlc/graph/clean.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/degree_stats.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/intersect/cost_model.hpp"
#include "atlc/intersect/parallel.hpp"
#include "atlc/rma/runtime.hpp"
#include "atlc/util/cli.hpp"
#include "atlc/util/recorder.hpp"
#include "atlc/util/table.hpp"

namespace atlc::bench {

using graph::CSRGraph;
using graph::Directedness;

/// A named proxy for one of the paper's Table II graphs.
struct ProxySpec {
  std::string name;        ///< paper's dataset name
  std::string proxy_desc;  ///< how the proxy is generated
  unsigned scale;          ///< R-MAT scale at boost 0 (ignored for circles/uniform)
  unsigned edge_factor;
  Directedness dir;
  std::uint64_t seed;
  enum class Kind { Rmat, Uniform, Circles } kind;
};

/// The proxy registry. Scales are chosen so that every bench completes in
/// tens of seconds on two cores; the *structure* (degree skew, clustering)
/// matches the original dataset class. Paper graphs: Table II.
inline const std::vector<ProxySpec>& proxy_registry() {
  static const std::vector<ProxySpec> specs = {
      // Scale-free R-MAT instances the paper generates itself.
      {"R-MAT-S21-EF16", "R-MAT a=.57 b=c=.19 d=.05 (paper S21)", 13, 16,
       Directedness::Undirected, 21, ProxySpec::Kind::Rmat},
      {"R-MAT-S23-EF16", "R-MAT (paper S23)", 14, 16,
       Directedness::Undirected, 23, ProxySpec::Kind::Rmat},
      {"R-MAT-S30-EF16", "R-MAT (paper S30)", 15, 16,
       Directedness::Undirected, 30, ProxySpec::Kind::Rmat},
      // Real-graph proxies: edge factor matched to the dataset's m/n ratio,
      // R-MAT skew stands in for the social/web power law.
      {"Orkut", "R-MAT EF=39 proxy (3M/117M social graph)", 12, 39,
       Directedness::Undirected, 101, ProxySpec::Kind::Rmat},
      {"LiveJournal", "R-MAT EF=9 proxy (4M/34.7M social graph)", 13, 9,
       Directedness::Undirected, 102, ProxySpec::Kind::Rmat},
      {"LiveJournal1", "R-MAT EF=14 proxy (4.8M/69M, paper runs directed)",
       13, 14, Directedness::Undirected, 103, ProxySpec::Kind::Rmat},
      {"Skitter", "R-MAT EF=7 proxy (1.7M/11.1M internet topology)", 13, 7,
       Directedness::Undirected, 104, ProxySpec::Kind::Rmat},
      {"uk-2005", "R-MAT EF=24 proxy (39.5M/936M web crawl)", 13, 24,
       Directedness::Undirected, 105, ProxySpec::Kind::Rmat},
      {"wiki-en", "R-MAT EF=32 proxy (13.6M/437M hyperlink graph)", 13, 32,
       Directedness::Undirected, 106, ProxySpec::Kind::Rmat},
      {"Facebook-circles", "social-circles generator (4k/88k ego nets)", 12,
       0, Directedness::Undirected, 107, ProxySpec::Kind::Circles},
      {"Uniform", "Erdos-Renyi control (flat degrees, paper Fig. 4)", 13, 16,
       Directedness::Undirected, 108, ProxySpec::Kind::Uniform},
  };
  return specs;
}

inline const ProxySpec& find_proxy(const std::string& name) {
  for (const auto& s : proxy_registry())
    if (s.name == name) return s;
  std::fprintf(stderr, "unknown proxy graph: %s\n", name.c_str());
  std::abort();
}

/// Build (and memoise) a proxy graph. `scale_boost` raises the R-MAT scale
/// toward paper sizes.
inline const CSRGraph& build_proxy(const ProxySpec& spec, int scale_boost = 0) {
  static std::map<std::string, CSRGraph> cache;
  // Every generator input participates in the key: ad-hoc specs may reuse a
  // name across scenarios, and the harness's --seed offsets spec seeds.
  const std::string key =
      spec.name + "+" + std::to_string(scale_boost) + "+" +
      std::to_string(spec.seed) + "+" + std::to_string(spec.scale) + "+" +
      std::to_string(spec.edge_factor) + "+" +
      std::to_string(static_cast<int>(spec.kind)) + "+" +
      std::to_string(static_cast<int>(spec.dir));
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  // Clamp so the smoke shrink (negative boost) can never underflow into a
  // degenerate or wrapped-around scale.
  const unsigned scale = static_cast<unsigned>(
      std::max(6, static_cast<int>(spec.scale) + scale_boost));
  graph::EdgeList edges;
  switch (spec.kind) {
    case ProxySpec::Kind::Rmat:
      edges = graph::generate_rmat({.scale = scale,
                                    .edge_factor = spec.edge_factor,
                                    .seed = spec.seed,
                                    .directedness = spec.dir});
      break;
    case ProxySpec::Kind::Uniform:
      edges = graph::generate_uniform(
          {.num_vertices = graph::VertexId{1} << scale,
           .num_edges = (std::uint64_t{1} << scale) * spec.edge_factor,
           .seed = spec.seed,
           .directedness = spec.dir});
      break;
    case ProxySpec::Kind::Circles:
      edges = graph::generate_circles(
          {.num_vertices = graph::VertexId{1} << scale, .seed = spec.seed});
      break;
  }
  // Paper Section II-B pipeline: dedup, drop degree<2, random relabel.
  graph::clean(edges, {.relabel_seed = spec.seed * 7919 + 13});
  auto [ins, ok] = cache.emplace(key, CSRGraph::from_edges(edges));
  return ins->second;
}

/// Register the flags every bench shares.
inline void add_common_flags(util::Cli& cli) {
  cli.add_int("scale-boost",
              "grow every proxy by this many R-MAT scale steps "
              "(each step doubles vertices; paper scale needs +6..+8)",
              0);
  cli.add_string("graph-file",
                 "run on a real whitespace edge list (SNAP format) instead "
                 "of the synthetic proxy",
                 "");
}

/// Calibrated intersection-cost model, measured once per process.
inline const intersect::CostModel& calibrated_cost() {
  static const intersect::CostModel m = intersect::CostModel::calibrate();
  return m;
}

/// Processors OpenMP can use on this host (1 without OpenMP).
inline int num_procs() {
#if defined(ATLC_NO_OPENMP)
  return 1;
#else
  return omp_get_num_procs();
#endif
}

/// One full edge-centric LCC pass over `g` with OpenMP-parallel
/// intersections of method `m` on `threads` threads, repeated as `reps`
/// asks; returns edges/us of the median pass. This is the paper's
/// shared-memory measurement (Fig. 6, Table III): the whole counting loop,
/// not a micro-kernel.
inline double edges_per_us(const CSRGraph& g, intersect::Method m,
                           int threads, const util::Recorder::Options& reps) {
  const intersect::ParallelConfig par{.num_threads = threads, .cutoff = 4096};
  util::Recorder rec(reps);
  volatile std::uint64_t sink = 0;
  const auto summary = rec.run_until_ci([&] {
    std::uint64_t total = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto adj_v = g.neighbors(v);
      for (graph::VertexId j : adj_v)
        total += intersect::count_common_parallel(adj_v, g.neighbors(j), m, par);
    }
    sink = sink + total;
  });
  (void)sink;
  return static_cast<double>(g.num_edges()) / (summary.median * 1e6);
}

/// Share of the ranks' summed busy time spent communicating (paper
/// Section IV-D2's "communication share").
inline double comm_share(const rma::Runtime::Result& r) {
  double comm = 0, total = 0;
  for (const auto& s : r.stats) {
    comm += s.comm_seconds;
    total += s.comm_seconds + s.compute_seconds;
  }
  return total > 0 ? comm / total : 0.0;
}

/// printf into a std::string: claims, notes and metric names.
[[gnu::format(printf, 1, 2)]] inline std::string strprintf(const char* fmt,
                                                           ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(static_cast<std::size_t>(std::max(n, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  va_end(again);
  return out;
}

/// One-line graph description for bench headers.
inline std::string describe(const CSRGraph& g) {
  const auto st = graph::degree_stats(g);
  return strprintf("|V|=%u |E|=%llu CSR=%s max_deg=%u gini=%.2f",
                   g.num_vertices(),
                   static_cast<unsigned long long>(g.num_edges()),
                   util::Table::fmt_bytes(g.csr_bytes()).c_str(), st.max,
                   st.gini);
}

}  // namespace atlc::bench
