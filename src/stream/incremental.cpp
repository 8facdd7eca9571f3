#include "atlc/stream/incremental.hpp"

#include <algorithm>

#include "atlc/util/check.hpp"

namespace atlc::stream {

void IncrementalCounter::count(const EffectiveBatch& eff, Op which,
                               DeltaSet& out) {
  const auto& part = dg_->partition;
  const std::int64_t sign = which == Op::Insert ? 1 : -1;

  // This rank enumerates the update edges whose canonical first endpoint
  // it owns: N(a) is the local row, N(b) arrives through the pipeline's
  // prefetched (and cached) two-get protocol, exactly like a static run.
  std::vector<std::pair<VertexId, VertexId>> work;
  for (const CanonicalUpdate& op : eff.ops)
    if (op.op == which && part.owner(op.a) == ctx_->rank())
      work.push_back({part.local_index(op.a), op.b});
  if (work.empty()) return;

  pipeline_->run_over(
      work, [&](VertexId lv, VertexId b, std::span<const VertexId> adj_a,
                std::span<const VertexId> adj_b) {
        const VertexId a = part.global_id(ctx_->rank(), lv);
        const CanonicalUpdate ab{a, b, which};  // a < b (canonical)
        const auto walk =
            isect_.for_each_common(adj_a, adj_b, [&](VertexId w) {
              // Triangle {a, b, w}. Intra-batch attribution: among the
              // triangle's edges that are in this batch's effective set, only
              // the lexicographically smallest one counts the triangle —
              // otherwise a triangle closed by two or three in-batch edges
              // would be counted once per such edge. eff.ops is sorted and
              // holds each edge once, so one binary search finds an edge.
              const CanonicalUpdate aw{std::min(a, w), std::max(a, w), which};
              const CanonicalUpdate bw{std::min(b, w), std::max(b, w), which};
              if (aw < ab && std::ranges::binary_search(eff.ops, aw)) return;
              if (bw < ab && std::ranges::binary_search(eff.ops, bw)) return;
              out.per_vertex[a] += 2 * sign;
              out.per_vertex[b] += 2 * sign;
              out.per_vertex[w] += 2 * sign;
              out.distinct_triangles += sign;
            });
        ctx_->charge_compute(walk.seconds);
      });
}

RoutedDeltas IncrementalCounter::route(const DeltaSet& deltas) {
  const auto& part = dg_->partition;
  const std::uint32_t p = ctx_->num_ranks();

  // Wire format per delta: (v, lo32, hi32) — the int64 in two words.
  std::vector<std::vector<std::uint32_t>> out(p);
  RoutedDeltas routed;
  for (const auto& [v, d] : deltas.per_vertex) {
    const std::uint32_t owner = part.owner(v);
    if (owner == ctx_->rank()) {
      routed.local.push_back({part.local_index(v), d});  // no self traffic
      continue;
    }
    const auto u = static_cast<std::uint64_t>(d);
    out[owner].push_back(v);
    out[owner].push_back(static_cast<std::uint32_t>(u & 0xffffffffULL));
    out[owner].push_back(static_cast<std::uint32_t>(u >> 32));
  }
  const auto in = ctx_->all_to_all(out);
  for (std::uint32_t src = 0; src < p; ++src) {
    if (src == ctx_->rank()) continue;
    ATLC_CHECK(in[src].size() % 3 == 0, "stream: bad delta payload");
    for (std::size_t i = 0; i < in[src].size(); i += 3) {
      const auto u = static_cast<std::uint64_t>(in[src][i + 1]) |
                     (static_cast<std::uint64_t>(in[src][i + 2]) << 32);
      routed.local.push_back({part.local_index(in[src][i]),
                              static_cast<std::int64_t>(u)});
    }
  }

  // ΔT: two's-complement wraparound makes the uint64 allreduce exact for
  // signed sums.
  routed.global_delta = static_cast<std::int64_t>(ctx_->allreduce_sum(
      static_cast<std::uint64_t>(deltas.distinct_triangles)));
  return routed;
}

}  // namespace atlc::stream
