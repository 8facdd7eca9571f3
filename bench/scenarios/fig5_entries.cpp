// Paper Fig. 5: on the Facebook-circles graph over two nodes, (left) the
// number of remote accesses per vertex correlates with vertex degree, and
// (right) C_adj cache entry sizes equal the degrees of cached vertices —
// the observations (3.1, 3.2) that justify degree-based scores.
#include <algorithm>
#include <cstdio>

#include "scenario.hpp"

namespace {

using namespace atlc;

void run(bench::ScenarioContext& ctx) {
  const auto& g = ctx.graph_or_file("Facebook-circles");
  std::printf("graph: %s\n", bench::describe(g).c_str());

  core::EngineConfig cfg;
  cfg.use_cache = true;
  cfg.track_remote_reads = true;
  cfg.dump_cache_entries = true;
  cfg.cache_sizing = core::CacheSizing::paper_default(
      g.num_vertices(), g.csr_bytes());  // ample cache: keep everything seen
  const auto result =
      ctx.run_lcc_trials("makespan/cached_ample", g, 2, cfg);

  // Left plot: bucket vertices by degree, report mean remote accesses.
  graph::VertexId max_deg = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    max_deg = std::max(max_deg, g.degree(v));
  const graph::VertexId bucket_width =
      std::max<graph::VertexId>(1, max_deg / 8);

  struct Bucket {
    std::uint64_t vertices = 0;
    std::uint64_t reads = 0;
  };
  std::vector<Bucket> buckets(9);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    auto& b = buckets[std::min<std::size_t>(8, g.degree(v) / bucket_width)];
    ++b.vertices;
    b.reads += result.remote_reads[v];
  }
  util::Table left({"Vertex degree range", "vertices",
                    "mean remote accesses"});
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].vertices == 0) continue;
    char range[48];
    std::snprintf(range, sizeof(range), "[%u, %u)",
                  static_cast<unsigned>(i * bucket_width),
                  static_cast<unsigned>((i + 1) * bucket_width));
    left.add_row({range, util::Table::fmt_int(buckets[i].vertices),
                  util::Table::fmt(static_cast<double>(buckets[i].reads) /
                                       static_cast<double>(buckets[i].vertices),
                                   2)});
  }
  left.print("Fig. 5 (left): remote accesses vs vertex degree (C_offsets view)");
  ctx.rec.add_table("Fig. 5 (left): remote accesses vs vertex degree", left);

  // Right plot: C_adj entries — size in bytes (== 4 * degree of the cached
  // vertex) against the degree score recorded at insertion.
  const auto& entries = result.adj_cache_entries;
  util::Table right({"metric", "value"});
  std::uint64_t min_b = ~0ull, max_b = 0, sum_b = 0;
  bool sizes_track_scores = true;
  for (const auto& e : entries) {
    min_b = std::min(min_b, e.key.bytes);
    max_b = std::max(max_b, e.key.bytes);
    sum_b += e.key.bytes;
    // Observation 3.1: entry size == 4 * degree == 4 * insertion score.
    if (e.key.bytes != 4 * static_cast<std::uint64_t>(e.user_score))
      sizes_track_scores = false;
  }
  right.add_row({"C_adj entries cached", util::Table::fmt_int(entries.size())});
  if (!entries.empty()) {
    right.add_row({"min entry size", util::Table::fmt_bytes(min_b)});
    right.add_row({"max entry size", util::Table::fmt_bytes(max_b)});
    right.add_row({"mean entry size",
                   util::Table::fmt_bytes(sum_b / entries.size())});
  }
  right.add_row({"entry size == 4 x degree (Obs. 3.1)",
                 sizes_track_scores ? "HOLDS" : "VIOLATED"});
  right.print("Fig. 5 (right): C_adj cache entry sizes");
  ctx.rec.add_table("Fig. 5 (right): C_adj cache entry sizes", right);
  ctx.rec.add_note(std::string("Obs. 3.1 (entry size == 4 x degree): ") +
                   (sizes_track_scores ? "HOLDS" : "VIOLATED"));

  // Shape check: reads per vertex grow with degree.
  double low = 0, high = 0;
  if (buckets[0].vertices && buckets[8].vertices) {
    low = static_cast<double>(buckets[0].reads) / buckets[0].vertices;
    high = static_cast<double>(buckets[8].reads) / buckets[8].vertices;
  }
  std::printf("\npaper shape check (reuse correlates with degree): "
              "low-degree mean %.2f vs top-degree mean %.2f -> %s\n",
              low, high, high > 2 * low ? "HOLDS" : "check manually");
  ctx.rec.add_note(std::string("reuse correlates with degree: ") +
                   (high > 2 * low ? "HOLDS" : "check manually"));
}

}  // namespace

ATLC_REGISTER_SCENARIO(fig5, "fig5", "Fig. 5",
                       "reuse and cache entry sizes vs degree, 2 nodes",
                       nullptr, run)
