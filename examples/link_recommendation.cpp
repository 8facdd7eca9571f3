// Link recommendation via triangle closing (the paper's second motivating
// application, Section I) served by the atlc::serve query layer: instead of
// the original one-shot scan that recomputed candidate scores on every call
// with no accounting, the queries run through serve::QueryEngine — priced
// by the engine's cost model, memoized in the HotVertexCache, and reported
// through a core::QueryStats block (DESIGN.md §13).
//
// The mini-serving session below asks for the same user's recommendations
// twice in one epoch (the repeat is a hot-cache hit), applies an update
// batch that rewires part of the user's neighborhood, and asks again — the
// post-batch answers reflect the new graph exactly (epoch consistency).
#include <cstdio>
#include <string>
#include <vector>

#include "atlc/graph/clean.hpp"
#include "atlc/graph/degree_stats.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/serve/query_engine.hpp"
#include "atlc/util/cli.hpp"
#include "atlc/util/table.hpp"

int main(int argc, char** argv) {
  using namespace atlc;

  util::Cli cli("link_recommendation", "common-neighbor link prediction");
  cli.add_int("vertices", "graph size", 2048);
  cli.add_int("user", "member to recommend for (-1 = busiest)", -1);
  cli.add_int("topk", "number of recommendations", 5);
  cli.add_int("ranks", "simulated ranks", 4);
  if (!cli.parse(argc, argv)) return 1;

  auto edges = graph::generate_circles(
      {.num_vertices = static_cast<graph::VertexId>(cli.get_int("vertices")),
       .seed = 7});
  graph::clean(edges);
  const auto g = graph::CSRGraph::from_edges(edges);

  // Pick the user: either given, or a medium-degree member (interesting
  // recommendations; hubs already know everyone).
  graph::VertexId user;
  if (cli.get_int("user") >= 0) {
    user = static_cast<graph::VertexId>(cli.get_int("user")) %
           g.num_vertices();
  } else {
    const auto order = graph::vertices_by_degree_desc(g);
    user = order[order.size() / 4];
  }
  const auto k = static_cast<std::uint32_t>(cli.get_int("topk"));
  std::printf("user v%u has %zu friends\n", user, g.neighbors(user).size());

  // Epoch 0: common-neighbor and Adamic–Adar recommendations plus the
  // user's LCC, the top-k repeated so the second ask hits the hot cache.
  // The epoch's batch then rewires the user's first friendship, and epoch 1
  // re-asks — served against the updated neighborhoods.
  std::vector<serve::ServeEpoch> epochs(2);
  epochs[0].queries = {{serve::QueryKind::TopKCommon, user, k},
                       {serve::QueryKind::TopKAdamicAdar, user, k},
                       {serve::QueryKind::Lcc, user, 0},
                       {serve::QueryKind::TopKCommon, user, k}};
  if (!g.neighbors(user).empty()) {
    const graph::VertexId ex = g.neighbors(user).front();
    epochs[0].updates.push_back({user, ex, stream::Op::Delete});
  }
  epochs[1].queries = {{serve::QueryKind::TopKCommon, user, k},
                       {serve::QueryKind::Lcc, user, 0}};

  serve::ServeOptions opts;
  opts.hot_cache.entries = 256;
  const serve::ServeResult res = serve::QueryEngine(g, opts).run(
      epochs, static_cast<std::uint32_t>(cli.get_int("ranks")));

  const auto ref = graph::reference_lcc(g);
  const auto print_topk = [&](const serve::QueryAnswer& a,
                              const std::string& title) {
    util::Table table({"rank", "member", "score", "candidate LCC",
                       "candidate degree"});
    for (std::size_t i = 0; i < a.topk.size(); ++i) {
      const auto c = a.topk[i].v;
      table.add_row({util::Table::fmt_int(i + 1), "v" + std::to_string(c),
                     util::Table::fmt(a.topk[i].score, 3),
                     util::Table::fmt(ref.lcc[c], 3),
                     util::Table::fmt_int(g.degree(c))});
    }
    table.print(title + (a.hot_hit ? " [hot-cache hit]" : ""));
  };

  print_topk(res.answers[0], "common neighbors for v" + std::to_string(user));
  print_topk(res.answers[1], "Adamic-Adar for v" + std::to_string(user));
  std::printf("LCC(v%u) = %.4f\n", user, res.answers[2].lcc);
  print_topk(res.answers[3], "repeat ask (same epoch)");
  print_topk(res.answers[4], "common neighbors after un-friending");
  std::printf("LCC(v%u) after batch = %.4f\n", user, res.answers[5].lcc);

  // The QueryStats block the original example lacked: what each answer
  // actually cost end to end on the virtual clock.
  const core::QueryStats& qs = res.stats;
  std::printf(
      "\nserved %llu/%llu queries | virtual latency p50 %.2e s, p99 %.2e s\n",
      static_cast<unsigned long long>(qs.answered),
      static_cast<unsigned long long>(qs.submitted),
      qs.latency_percentile(50), qs.latency_percentile(99));
  std::printf(
      "pipeline: %llu edges (%.0f%% remote) | hot cache: %llu/%llu hits\n",
      static_cast<unsigned long long>(qs.edges_processed),
      100.0 * qs.remote_edge_fraction(),
      static_cast<unsigned long long>(res.hot_cache_total.hits),
      static_cast<unsigned long long>(res.hot_cache_total.probes));
  return 0;
}
