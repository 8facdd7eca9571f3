#include "atlc/core/edge_pipeline.hpp"

#include <algorithm>

#include "atlc/util/recorder.hpp"

namespace atlc::core {

CacheSizing CacheSizing::paper_default(VertexId num_vertices,
                                       std::uint64_t total_budget_bytes) {
  // Paper Section IV-D2: of the total cache budget, C_offsets gets enough
  // space for 0.4*|V| entries (each a (start, end) pair) and C_adj the rest.
  CacheSizing s;
  const std::uint64_t offsets_entries =
      std::max<std::uint64_t>(16, static_cast<std::uint64_t>(
                                      0.4 * static_cast<double>(num_vertices)));
  s.offsets_bytes = offsets_entries * 2 * sizeof(graph::EdgeIndex);
  if (s.offsets_bytes > total_budget_bytes / 2)
    s.offsets_bytes = total_budget_bytes / 2;
  s.adj_bytes = total_budget_bytes - s.offsets_bytes;
  return s;
}

intersect::Intersector make_intersector(const EngineConfig& config) {
  return {config.method, config.intersect_tier, config.tier_policy,
          config.cost};
}

PipelineRankStats EdgePipeline::harvest() {
  PipelineRankStats ps;
  ps.edges_processed = edges_run_;
  ps.remote_edges = fetcher_.remote_fetches();
  if (fetcher_.has_offsets_cache())
    ps.offsets_cache = fetcher_.offsets_cache().stats();
  if (fetcher_.has_adj_cache()) {
    ps.adj_cache = fetcher_.adj_cache().stats();
    if (config_->dump_cache_entries)
      ps.adj_cache_entries = fetcher_.adj_cache().entries();
  }
  return ps;
}

double EdgeAnalyticStats::imbalance() const {
  if (busy_clocks.empty()) return 1.0;
  double mx = 0.0, sum = 0.0;
  for (const double c : busy_clocks) {
    mx = std::max(mx, c);
    sum += c;
  }
  if (sum <= 0.0) return 1.0;
  return mx / (sum / static_cast<double>(busy_clocks.size()));
}

void EdgeAnalyticStats::absorb(PipelineRankStats&& rank) {
  edges_processed += rank.edges_processed;
  remote_edges += rank.remote_edges;
  busy_clocks.push_back(rank.busy_seconds);
  offsets_cache_total += rank.offsets_cache;
  adj_cache_total += rank.adj_cache;
  offsets_cache_ranks.push_back(rank.offsets_cache);
  adj_cache_ranks.push_back(rank.adj_cache);
  adj_cache_entries.insert(adj_cache_entries.end(),
                           std::make_move_iterator(rank.adj_cache_entries.begin()),
                           std::make_move_iterator(rank.adj_cache_entries.end()));
}

util::Json stats_json(const EdgeAnalyticStats& s) {
  util::Json doc = util::Json::object();
  doc["ranks"] = s.run.stats.size();
  doc["makespan_s"] = s.run.makespan;
  doc["wall_seconds"] = s.run.wall_seconds;
  doc["comm_total"] = util::to_json(s.run.total());
  util::Json per_rank = util::Json::array();
  for (const auto& c : s.run.stats) per_rank.push_back(util::to_json(c));
  doc["comm_per_rank"] = std::move(per_rank);
  util::Json clocks = util::Json::array();
  for (const double c : s.run.clocks) clocks.push_back(c);
  doc["clocks"] = std::move(clocks);
  doc["offsets_cache"] = util::to_json(s.offsets_cache_total);
  doc["adj_cache"] = util::to_json(s.adj_cache_total);
  doc["edges_processed"] = s.edges_processed;
  doc["remote_edges"] = s.remote_edges;
  doc["peak_rss_bytes"] = util::peak_rss_bytes();
  return doc;
}

}  // namespace atlc::core
