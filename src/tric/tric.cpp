#include "atlc/tric/tric.hpp"

#include <algorithm>

#include "atlc/graph/partition.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/util/check.hpp"

namespace atlc::tric {

std::vector<VertexId> balanced_boundaries(const CSRGraph& g,
                                          std::uint32_t ranks) {
  const VertexId n = g.num_vertices();
  const EdgeIndex m = g.num_edges();
  std::vector<VertexId> bounds(ranks + 1, n);
  bounds[0] = 0;
  const auto offsets = g.offsets();
  VertexId v = 0;
  for (std::uint32_t r = 1; r < ranks; ++r) {
    const EdgeIndex target = m * r / ranks;
    while (v < n && offsets[v] < target) ++v;
    bounds[r] = v;
  }
  return bounds;
}

namespace {

/// Per-query-entry two-sided handling cost, charged once at the sender
/// (packing into per-destination buffers) and once at the receiver (unpack
/// + candidate lookup bookkeeping + response packing). Real TriC touches
/// cold memory per candidate; 120 ns/entry per side is a conservative
/// calibration (a single cold DRAM-resident binary search alone costs
/// 100-300 ns).
constexpr double kTwoSidedEntryNs = 120.0;

/// Apex vertices enumerated per communication round.
constexpr VertexId kBatchVertices = 1024;

struct RankState {
  std::uint64_t triangles = 0;
  std::vector<std::uint64_t> per_vertex;  // local vertices
  std::uint64_t rounds = 0;
  std::uint64_t query_entries = 0;
};

}  // namespace

TricResult run_tric(const CSRGraph& g, std::uint32_t ranks,
                    const TricConfig& config, const rma::NetworkModel& net) {
  ATLC_CHECK(g.directedness() == graph::Directedness::Undirected,
             "TriC counts triangles on undirected graphs");
  const VertexId n = g.num_vertices();

  const auto part = graph::Partition::from_cuts(balanced_boundaries(g, ranks));

  TricResult out;
  out.per_vertex.assign(n, 0);
  out.lcc.assign(n, 0.0);
  std::vector<RankState> states(ranks);

  rma::Runtime::Options opts;
  opts.ranks = ranks;
  opts.net = net;
  out.run = rma::Runtime::run(opts, [&](rma::RankCtx& ctx) {
    const std::uint32_t me = ctx.rank();
    const std::uint32_t p = ctx.num_ranks();
    const VertexId lo = part.block_begin(me);
    const VertexId hi = lo + part.part_size(me);

    RankState st;
    st.per_vertex.assign(hi - lo, 0);
    auto credit_local = [&](VertexId v) { ++st.per_vertex[v - lo]; };

    std::vector<std::vector<std::uint32_t>> queries(p);
    std::vector<std::vector<std::uint32_t>> credits(p);
    auto credit = [&](VertexId v) {
      const std::uint32_t o = part.owner(v);
      if (o == me)
        credit_local(v);
      else
        credits[o].push_back(v);
    };

    // Resumable enumeration cursor over (apex vertex, neighbor index).
    VertexId i = lo;
    std::size_t j_idx = 0;
    bool enumeration_done = (lo >= hi);
    VertexId batch_left = kBatchVertices;

    while (true) {
      // --- Phase 1: enumerate apexes until the batch or a buffer fills.
      bool buffer_full = false;
      while (!enumeration_done && !buffer_full && batch_left > 0) {
        const auto adj_i = g.neighbors(i);
        while (j_idx < adj_i.size()) {
          const VertexId j = adj_i[j_idx];
          // Candidate closing edges need i < j < k.
          if (j > i) {
            const auto ks = adj_i.subspan(j_idx + 1);
            if (!ks.empty()) {
              if (part.owner(j) == me) {
                // Local verification: which k in ks close (j,k)?
                const auto adj_j = g.neighbors(j);
                for (VertexId k : ks) {
                  if (std::binary_search(adj_j.begin(), adj_j.end(), k)) {
                    ++st.triangles;
                    credit_local(i);
                    credit_local(j);
                    credit(k);
                  }
                }
                ctx.charge_compute(
                    config.cost.seconds_probes(ks.size(), adj_j.size()));
              } else {
                // Remote j: ship the query [i, j, |ks|, ks...].
                auto& q = queries[part.owner(j)];
                q.push_back(i);
                q.push_back(j);
                q.push_back(static_cast<std::uint32_t>(ks.size()));
                q.insert(q.end(), ks.begin(), ks.end());
                st.query_entries += 3 + ks.size();
                // Sender-side two-sided handling: packing per entry.
                ctx.charge_compute(kTwoSidedEntryNs * 1e-9 *
                                   static_cast<double>(3 + ks.size()));
                if (config.buffer_entries > 0 &&
                    q.size() >= config.buffer_entries)
                  buffer_full = true;  // TriC-Buffered: flush early
              }
            }
          }
          ++j_idx;
          if (buffer_full) break;
        }
        if (j_idx >= adj_i.size()) {
          j_idx = 0;
          ++i;
          --batch_left;
          if (i >= hi) enumeration_done = true;
        }
      }

      // --- Phase 2: blocking query exchange (the synchronisation TriC pays).
      bool sent_any = false;
      for (const auto& q : queries) sent_any |= !q.empty();
      auto in_queries = ctx.all_to_all(queries);
      for (auto& q : queries) q.clear();

      // --- Phase 3: verify received queries against local adjacency.
      for (const auto& payload : in_queries) {
        std::size_t pos = 0;
        while (pos < payload.size()) {
          const VertexId qi = payload[pos];
          const VertexId qj = payload[pos + 1];
          const std::uint32_t cnt = payload[pos + 2];
          pos += 3;
          const auto adj_j = g.neighbors(qj);
          for (std::uint32_t x = 0; x < cnt; ++x) {
            const VertexId k = payload[pos + x];
            if (std::binary_search(adj_j.begin(), adj_j.end(), k)) {
              ++st.triangles;
              credit_local(qj);
              credit(qi);
              credit(k);
            }
          }
          // Receiver-side: per-candidate lookup plus two-sided unpack and
          // response bookkeeping per entry.
          ctx.charge_compute(config.cost.seconds_probes(cnt, adj_j.size()) +
                             kTwoSidedEntryNs * 1e-9 *
                                 static_cast<double>(3 + cnt));
          pos += cnt;
        }
      }

      // --- Phase 4: blocking credit (response) exchange.
      for (const auto& c : credits) sent_any |= !c.empty();
      auto in_credits = ctx.all_to_all(credits);
      for (auto& c : credits) c.clear();
      for (const auto& payload : in_credits)
        for (VertexId v : payload) credit_local(v);

      ++st.rounds;
      batch_left = kBatchVertices;

      // --- Termination: everyone idle and nothing in flight.
      const std::uint64_t active =
          ctx.allreduce_sum((enumeration_done && !sent_any) ? 0 : 1);
      if (active == 0) break;
    }

    st.triangles = ctx.allreduce_sum(st.triangles);
    states[me] = std::move(st);
  });

  out.global_triangles = states.empty() ? 0 : states[0].triangles;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    for (VertexId lv = 0; lv < states[r].per_vertex.size(); ++lv) {
      const VertexId v = part.global_id(r, lv);
      out.per_vertex[v] = states[r].per_vertex[lv];
      // Distinct triangles -> undirected LCC (Eq. 2): 2*tri / d(d-1).
      out.lcc[v] = graph::lcc_score(2 * out.per_vertex[v], g.degree(v));
    }
    out.rounds = std::max(out.rounds, states[r].rounds);
    out.query_entries += states[r].query_entries;
  }
  return out;
}

}  // namespace atlc::tric
