// Paper Table II: the graph inventory with |V|, |E| and the CSR size after
// one-degree removal, for every proxy dataset used by the other scenarios
// (plus structure metrics justifying each proxy).

#include "atlc/graph/degree_stats.hpp"
#include "scenario.hpp"

namespace {

using namespace atlc;

void run(bench::ScenarioContext& ctx) {
  util::Table table({"Name", "Proxy", "|V|", "|E|", "CSR Size", "max deg",
                     "power-law alpha", "gini"});
  for (const auto& spec : bench::proxy_registry()) {
    const auto& g = ctx.graph(spec);
    const auto st = graph::degree_stats(g);
    table.add_row({spec.name, spec.proxy_desc,
                   util::Table::fmt_int(g.num_vertices()),
                   util::Table::fmt_int(g.num_edges()),
                   util::Table::fmt_bytes(g.csr_bytes()),
                   util::Table::fmt_int(st.max),
                   util::Table::fmt(st.power_law_alpha, 2),
                   util::Table::fmt(st.gini, 2)});
    // Inventory metrics: deterministic per seed, so gated exactly.
    const std::string prefix = "graph/" + spec.name + "/";
    ctx.rec.declare_metric(prefix + "vertices", {.unit = "count"});
    ctx.rec.add_trial(prefix + "vertices", g.num_vertices());
    ctx.rec.declare_metric(prefix + "edges", {.unit = "count"});
    ctx.rec.add_trial(prefix + "edges", g.num_edges());
    ctx.rec.declare_metric(prefix + "csr_bytes", {.unit = "bytes"});
    ctx.rec.add_trial(prefix + "csr_bytes", g.csr_bytes());
  }
  table.print("Table II: graphs used in this paper (scaled proxies)");
  ctx.rec.add_table("Table II: graphs used in this reproduction", table);
  ctx.note(
      "proxies are scaled to container size; --scale-boost grows them "
      "toward the paper's sizes (DESIGN.md §1)");
}

}  // namespace

ATLC_REGISTER_SCENARIO(table2, "table2", "Table II",
                       "graph inventory and structure metrics", nullptr, run)
