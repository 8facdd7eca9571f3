// Full-system walkthrough: how the pieces of the paper's design compose,
// and how to tune the CLaMPI-style cache for a workload.
//
// Runs the same LCC computation three ways across a rank sweep:
//   1. non-cached                 (baseline asynchronous RMA engine)
//   2. cached, CLaMPI scores      (LRU + positional anti-fragmentation)
//   3. cached, degree scores      (the paper's Section III-B2 extension)
// and prints runtime, hit rates and miss classes so the trade-offs are
// visible — including when caching stops paying (over-partitioning).
#include <cstdio>

#include "atlc/core/lcc.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/util/cli.hpp"
#include "atlc/util/table.hpp"

namespace {

using namespace atlc;

struct Variant {
  const char* name;
  core::EngineConfig config;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("distributed_cached_lcc", "cache tuning walkthrough");
  cli.add_int("scale", "R-MAT scale", 13);
  cli.add_double("cache-frac", "cache budget as a fraction of CSR size", 0.35);
  if (!cli.parse(argc, argv)) return 1;

  auto edges = graph::generate_rmat(
      {.scale = static_cast<unsigned>(cli.get_int("scale")),
       .edge_factor = 16,
       .seed = 3});
  graph::clean(edges, {.relabel_seed = 5});
  const auto g = graph::CSRGraph::from_edges(edges);
  std::printf("graph: %u vertices, %llu edge slots\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  const auto budget = static_cast<std::uint64_t>(
      cli.get_double("cache-frac") * static_cast<double>(g.csr_bytes()));
  const auto sizing = core::CacheSizing::paper_default(g.num_vertices(), budget);
  std::printf("cache budget: %llu B -> C_offsets %llu B + C_adj %llu B "
              "(paper's 0.4|V|-entries split)\n\n",
              static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(sizing.offsets_bytes),
              static_cast<unsigned long long>(sizing.adj_bytes));

  std::vector<Variant> variants(3);
  variants[0].name = "non-cached";
  variants[1].name = "cached (CLaMPI scores)";
  variants[1].config.use_cache = true;
  variants[1].config.cache_sizing = sizing;
  variants[2].name = "cached (degree scores)";
  variants[2].config.use_cache = true;
  variants[2].config.cache_sizing = sizing;
  variants[2].config.victim_policy = clampi::VictimPolicy::UserScore;

  for (std::uint32_t ranks : {4u, 16u, 64u}) {
    util::Table table({"variant", "makespan (s)", "adj hit rate",
                       "compulsory", "capacity", "evictions"});
    std::uint64_t reference_triangles = 0;
    for (const auto& v : variants) {
      const auto r = core::run_distributed_lcc(g, ranks, v.config);
      if (reference_triangles == 0) reference_triangles = r.global_triangles;
      // All variants must agree bit-for-bit on the result.
      if (r.global_triangles != reference_triangles) {
        std::fprintf(stderr, "variant %s diverged!\n", v.name);
        return 1;
      }
      const auto& cs = r.adj_cache_total;
      const auto denom = std::max<std::uint64_t>(1, cs.accesses());
      table.add_row(
          {v.name, util::Table::fmt(r.run.makespan, 4),
           util::Table::fmt_percent(cs.hit_rate()),
           util::Table::fmt_percent(
               static_cast<double>(cs.compulsory_misses) / denom),
           util::Table::fmt_percent(
               static_cast<double>(cs.capacity_misses) / denom),
           util::Table::fmt_int(cs.evictions_space + cs.evictions_conflict)});
    }
    table.print("LCC on " + std::to_string(ranks) + " ranks (triangles: " +
                std::to_string(reference_triangles) + ")");
  }

  std::printf(
      "\nreading the tables: degree scores should beat CLaMPI scores while "
      "reuse exists; as ranks grow, compulsory misses rise and caching "
      "eventually costs more than it saves (paper Section IV-D2).\n");
  return 0;
}
