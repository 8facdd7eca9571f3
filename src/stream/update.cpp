#include "atlc/stream/update.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "atlc/util/rng.hpp"

namespace atlc::stream {

std::vector<CanonicalUpdate> normalize(const Batch& batch) {
  // Last-op-wins per canonical edge (in-order overwrite), then sort by
  // canonical key — the sorted output is what makes every rank's view of
  // the batch identical regardless of container iteration order.
  std::unordered_map<std::uint64_t, Op> net;
  net.reserve(batch.size());
  for (const EdgeUpdate& u : batch) {
    if (u.u == u.v) continue;  // self loops never participate in triangles
    net[canonical_key(std::min(u.u, u.v), std::max(u.u, u.v))] = u.op;
  }
  std::vector<CanonicalUpdate> out;
  out.reserve(net.size());
  for (const auto& [key, op] : net)
    out.push_back({static_cast<VertexId>(key >> 32),
                   static_cast<VertexId>(key & 0xffffffffULL), op});
  std::sort(out.begin(), out.end());
  return out;
}

void apply_to_edge_list(graph::EdgeList& edges, const Batch& batch) {
  std::set<std::pair<VertexId, VertexId>> present(
      [&] {
        std::set<std::pair<VertexId, VertexId>> s;
        for (const graph::Edge& e : edges.edges()) s.insert({e.u, e.v});
        return s;
      }());
  for (const EdgeUpdate& u : batch) {
    if (u.u == u.v) continue;
    if (u.op == Op::Insert) {
      present.insert({u.u, u.v});
      present.insert({u.v, u.u});
    } else {
      present.erase({u.u, u.v});
      present.erase({u.v, u.u});
    }
  }
  std::vector<graph::Edge> out;
  out.reserve(present.size());
  for (const auto& [a, b] : present) out.push_back({a, b});
  edges = graph::EdgeList(edges.num_vertices(), std::move(out),
                          edges.directedness());
}

std::vector<Batch> generate_batches(const graph::CSRGraph& g,
                                    const WorkloadConfig& cfg) {
  const VertexId n = g.num_vertices();
  // Track the evolving canonical edge set so deletions target live edges
  // and insertions (usually) target absent ones. Vector + position index
  // keeps uniform sampling and removal O(1) per update (deterministic:
  // CSR order seeds the vector, swap-remove evolves it reproducibly) —
  // paper-scale graphs have tens of millions of live edges.
  std::vector<std::uint64_t> live;
  std::unordered_map<std::uint64_t, std::size_t> pos;
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v : g.neighbors(u))
      if (u < v) {
        pos.emplace(canonical_key(u, v), live.size());
        live.push_back(canonical_key(u, v));
      }
  auto live_insert = [&](std::uint64_t key) {
    if (pos.emplace(key, live.size()).second) live.push_back(key);
  };
  auto live_remove_at = [&](std::size_t i) {
    const std::uint64_t key = live[i];
    live[i] = live.back();
    pos[live[i]] = i;
    live.pop_back();
    pos.erase(key);
    return key;
  };

  util::Xoshiro256 rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<Batch> batches(cfg.num_batches);
  for (Batch& batch : batches) {
    batch.reserve(cfg.batch_size);
    while (batch.size() < cfg.batch_size) {
      const bool insert = rng.next_bool(cfg.insert_fraction) || live.empty();
      if (insert) {
        VertexId a = static_cast<VertexId>(rng.next_below(n));
        VertexId b = static_cast<VertexId>(rng.next_below(n));
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        batch.push_back({a, b, Op::Insert});
        live_insert(canonical_key(a, b));
      } else {
        const std::uint64_t key = live_remove_at(
            static_cast<std::size_t>(rng.next_below(live.size())));
        batch.push_back({static_cast<VertexId>(key >> 32),
                         static_cast<VertexId>(key & 0xffffffffULL),
                         Op::Delete});
      }
      // Inject an occasional duplicate of the previous update so batches
      // exercise the dedup/no-op paths in production, not only in tests.
      if (!batch.empty() && batch.size() < cfg.batch_size &&
          rng.next_bool(0.03))
        batch.push_back(batch.back());
    }
  }
  return batches;
}

}  // namespace atlc::stream
