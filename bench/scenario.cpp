#include "scenario.hpp"

#include <algorithm>

#include "atlc/obs/metrics.hpp"

namespace atlc::bench {

namespace {

std::vector<Scenario>& mutable_registry() {
  static std::vector<Scenario> registry;
  return registry;
}

}  // namespace

void register_scenario(Scenario s) {
  mutable_registry().push_back(std::move(s));
  std::sort(mutable_registry().begin(), mutable_registry().end(),
            [](const Scenario& a, const Scenario& b) { return a.name < b.name; });
}

const std::vector<Scenario>& scenarios() { return mutable_registry(); }

const Scenario* find_scenario(std::string_view name) {
  for (const auto& s : scenarios())
    if (s.name == name) return &s;
  return nullptr;
}

int ScenarioContext::boost() const {
  return static_cast<int>(cli.get_int("scale-boost")) +
         (smoke ? kSmokeBoost : 0);
}

const intersect::CostModel& ScenarioContext::cost() const {
  if (!calibrate) {
    // Fixed constants keep every virtual-time metric bit-deterministic
    // across hosts — the property bench_compare's gate relies on.
    static const intersect::CostModel fixed{};
    return fixed;
  }
  return calibrated_cost();
}

const graph::CSRGraph& ScenarioContext::graph(ProxySpec spec) const {
  spec.seed += seed;
  return build_proxy(spec, boost());
}

const graph::CSRGraph& ScenarioContext::graph(
    const std::string& proxy_name) const {
  return graph(find_proxy(proxy_name));
}

const graph::CSRGraph& ScenarioContext::graph_or_file(
    const std::string& proxy_name) const {
  const std::string& path = cli.get_string("graph-file");
  if (!path.empty()) {
    // Memoised so repeated calls within one scenario reuse the load.
    static std::map<std::string, graph::CSRGraph> cache;
    auto it = cache.find(path);
    if (it != cache.end()) return it->second;
    auto edges = graph::load_text_edges(path, Directedness::Undirected);
    graph::clean(edges, {.relabel_seed = 1});
    return cache.emplace(path, CSRGraph::from_edges(edges)).first->second;
  }
  return graph(proxy_name);
}

core::RunResult ScenarioContext::run_lcc_trials(
    const std::string& metric, const graph::CSRGraph& g,
    std::uint32_t ranks, core::EngineConfig cfg,
    graph::PartitionKind partition) const {
  rec.declare_metric(metric, {.unit = "s"});
  cfg.cost = cost();
  core::RunResult last;
  for (std::size_t trial = 0; trial < std::max<std::size_t>(1, repeats);
       ++trial) {
    // Fresh collector per trial so each record's breakdown covers exactly
    // one run. Tracing charges no virtual time, so traced and untraced
    // trials report identical makespans.
    obs::TraceCollector trace;
    cfg.trace = phase_breakdown ? &trace : nullptr;
    auto r = core::run_distributed_lcc(g, ranks, cfg, {}, partition);
    util::Json detail = util::Json::object();
    detail["global_triangles"] = r.global_triangles;
    detail["remote_edge_fraction"] = r.remote_edge_fraction();
    detail["comm"] = util::to_json(r.run.total());
    if (cfg.use_cache) {
      detail["offsets_cache"] = util::to_json(r.offsets_cache_total);
      detail["adj_cache"] = util::to_json(r.adj_cache_total);
    }
    if (phase_breakdown) {
      obs::MetricsRegistry reg;
      reg.ingest(trace);
      detail["phases"] = reg.causes_json();
    }
    rec.add_trial(metric, r.run.makespan, std::move(detail));
    last = std::move(r);
  }
  return last;
}

tric::TricResult ScenarioContext::run_tric_trials(
    const std::string& metric, const graph::CSRGraph& g,
    std::uint32_t ranks, tric::TricConfig cfg) const {
  rec.declare_metric(metric, {.unit = "s"});
  cfg.cost = cost();
  tric::TricResult last;
  for (std::size_t trial = 0; trial < std::max<std::size_t>(1, repeats);
       ++trial) {
    auto r = tric::run_tric(g, ranks, cfg);
    util::Json detail = util::Json::object();
    detail["comm"] = util::to_json(r.run.total());
    rec.add_trial(metric, r.run.makespan, std::move(detail));
    last = std::move(r);
  }
  return last;
}

}  // namespace atlc::bench
