#include "atlc/serve/query_engine.hpp"

#include <algorithm>
#include <map>
#include <ranges>
#include <utility>

#include "atlc/core/dist_graph.hpp"
#include "atlc/core/edge_pipeline.hpp"
#include "atlc/core/similarity.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/stream/batch_applier.hpp"
#include "atlc/util/check.hpp"

namespace atlc::serve {

namespace {

// ---- Top-k scoring. The engine and answer_reference share only the
// weight (core::adamic_adar_weight), the ascending friend order and the
// top-k total order below; each has its own accumulator. Together those
// make the parity contract a bit-for-bit one: every candidate's
// Adamic–Adar contributions are summed in the same order on both paths,
// and the selection over a candidate set is unique.

/// Ordering contract of query.hpp: score descending, id ascending on ties.
/// Total order over distinct candidates, so the selection is unique and
/// independent of the order `all` lists them in. `all` is walked in one
/// pass, so a view that scores candidates on the fly needs no buffer. The
/// answer is exactly k (or |all|) long in capacity too: answers outlive
/// their queries.
template <std::ranges::sized_range Candidates>
std::vector<Recommendation> select_topk(Candidates&& all, std::uint32_t k) {
  std::vector<Recommendation> top(
      std::min<std::size_t>(k, std::ranges::size(all)));
  std::ranges::partial_sort_copy(
      all, top, [](const Recommendation& a, const Recommendation& b) {
        return a.score > b.score || (a.score == b.score && a.v < b.v);
      });
  return top;
}

/// Per-rank sparse accumulator for the engine's top-k queries: a dense
/// score and state array over all vertex ids plus the list of candidates
/// the current query touched. Allocated on the rank's first top-k query
/// and reused; `take_topk` resets exactly the entries the query set, so
/// a query costs O(candidates + deg v), never O(n).
class CandidateScores {
 public:
  /// Begin a query for v: v and its neighbors can never be candidates.
  void open(VertexId n, VertexId v, std::span<const VertexId> adj_v) {
    if (state_.size() != n) {
      score_.assign(n, 0.0);
      state_.assign(n, kFree);
    }
    v_ = v;
    adj_v_ = adj_v;
    state_[v] = kExcluded;
    for (const VertexId u : adj_v) state_[u] = kExcluded;
  }

  /// Fold one friend's adjacency: every c in `adj_f` that is not excluded
  /// gains `w`. Zero-weight friends add no candidates at all (not
  /// 0.0-scored entries): top-k padding draws from the candidate set, so
  /// it must match answer_reference's.
  void fold(std::span<const VertexId> adj_f, double w) {
    if (w == 0.0) return;
    for (const VertexId c : adj_f) {
      std::uint8_t& s = state_[c];
      if (s == kExcluded) continue;
      if (s == kFree) {
        s = kCandidate;
        score_[c] = 0.0;
        touched_.push_back(c);
      }
      score_[c] += w;
    }
  }

  /// Distinct candidates of the open query.
  [[nodiscard]] std::size_t candidates() const { return touched_.size(); }

  /// Select the open query's top k straight from the touched candidates
  /// (no candidate copy) and reset its touched and excluded entries for
  /// the next query.
  std::vector<Recommendation> take_topk(std::uint32_t k) {
    std::vector<Recommendation> top = select_topk(
        touched_ | std::views::transform([this](VertexId c) {
          return Recommendation{c, score_[c]};
        }),
        k);
    for (const VertexId c : touched_) state_[c] = kFree;
    touched_.clear();
    state_[v_] = kFree;
    for (const VertexId u : adj_v_) state_[u] = kFree;
    return top;
  }

 private:
  static constexpr std::uint8_t kFree = 0;
  static constexpr std::uint8_t kCandidate = 1;
  static constexpr std::uint8_t kExcluded = 2;

  std::vector<double> score_;  // valid only where state_ is kCandidate
  std::vector<std::uint8_t> state_;
  std::vector<VertexId> touched_;  // first-touch order
  VertexId v_ = 0;
  std::span<const VertexId> adj_v_;
};

/// Does a committed batch potentially change v's memoized answers? True
/// iff v is an endpoint of an effective op, or an op endpoint lies in v's
/// PRE-batch neighborhood (DESIGN.md §13 derives why this covers LCC and
/// both top-k scores, including the Adamic–Adar degree weights). The
/// endpoint test uses the replicated touched-vertex set; the neighbor test
/// binary-searches v's local row, which must still be the pre-batch row —
/// the engine invalidates between adjudicate and apply_to_rows.
bool batch_affects(VertexId v, std::span<const VertexId> touched,
                   const stream::EffectiveBatch& eff,
                   std::span<const VertexId> row) {
  if (std::binary_search(touched.begin(), touched.end(), v)) return true;
  for (const stream::CanonicalUpdate& op : eff.ops) {
    if (std::binary_search(row.begin(), row.end(), op.a)) return true;
    if (std::binary_search(row.begin(), row.end(), op.b)) return true;
  }
  return false;
}

/// Answer one admitted query at its owner rank: probe the hot cache, on a
/// miss drive the (lv, neighbor) work list through the pipeline's prefetch
/// ring, memoize, and diff the pipeline counters into the QueryCost.
void answer_one(rma::RankCtx& ctx, const core::DistGraph& dg,
                core::EdgePipeline& pipeline,
                const intersect::Intersector& isect,
                const core::EngineConfig& cfg, HotVertexCache& hot,
                CandidateScores& scores, const Query& q, double epoch_open,
                QueryAnswer& a, core::QueryCost& qc) {
  obs::Tracer& tr = ctx.tracer();
  a.arrival = epoch_open;
  const double t0 = ctx.now();
  const core::PipelineRankStats before = pipeline.harvest();
  if (tr.enabled()) {
    tr.begin("query");
    tr.instant("query_arrival", {"v", static_cast<std::uint64_t>(q.v)});
  }

  bool served = false;
  if (hot.enabled()) {
    // One set-associative lookup: priced as `ways` probes into the bucket.
    ctx.charge_compute(cfg.cost.seconds_probes(hot.config().ways, 2));
    const HotVertexCache::Probe p = hot.probe(q.v, q.kind, q.k);
    if (p.hit) {
      a.hot_hit = true;
      if (q.kind == QueryKind::Lcc) {
        a.lcc = p.lcc;
      } else {
        a.topk.assign(p.topk.begin(), p.topk.end());
      }
      served = true;
    }
  }

  if (!served) {
    const VertexId lv = dg.partition.local_index(q.v);
    const std::span<const VertexId> adj_v = dg.local_neighbors(lv);
    std::vector<std::pair<VertexId, VertexId>> work;
    work.reserve(adj_v.size());
    for (const VertexId f : adj_v) work.emplace_back(lv, f);

    if (q.kind == QueryKind::Lcc) {
      std::uint64_t tri = 0;
      pipeline.run_over(
          work, [&](VertexId, VertexId, std::span<const VertexId> av,
                    std::span<const VertexId> aj) {
            const auto o = isect.count(av, aj);
            tri += o.common;
            ctx.charge_compute(o.seconds);
          });
      a.lcc = graph::lcc_score(tri, static_cast<VertexId>(adj_v.size()));
      hot.insert_lcc(q.v, a.lcc);
    } else {
      const bool adamic = q.kind == QueryKind::TopKAdamicAdar;
      scores.open(dg.partition.num_vertices(), q.v, adj_v);
      pipeline.run_over(
          work, [&](VertexId, VertexId, std::span<const VertexId> av,
                    std::span<const VertexId> aj) {
            // aj is the friend's full row (1D partitions), so its size IS
            // the friend's degree — the Adamic–Adar weight needs it.
            scores.fold(aj,
                        adamic ? core::adamic_adar_weight(aj.size()) : 1.0);
            // Priced as |adj_f| membership probes into the sorted adj_v.
            ctx.charge_compute(
                cfg.cost.seconds_probes(aj.size(), av.size()));
          });
      const std::size_t candidates = scores.candidates();
      a.topk = scores.take_topk(q.k);
      // Bounded-heap selection over the candidate set.
      ctx.charge_compute(cfg.cost.seconds_probes(
          candidates, std::max<std::size_t>(q.k, 2)));
      hot.insert_topk(q.v, q.kind, q.k, a.topk);
    }
  }

  a.completion = ctx.now();
  if (tr.enabled()) tr.end("query");

  const core::PipelineRankStats after = pipeline.harvest();
  qc.id = a.id;
  qc.epoch = a.epoch;
  qc.edges_processed = after.edges_processed - before.edges_processed;
  qc.remote_edges = after.remote_edges - before.remote_edges;
  qc.seconds = a.completion - t0;
}

}  // namespace

QueryEngine::QueryEngine(const graph::CSRGraph& g, ServeOptions options)
    : g_(&g), options_(std::move(options)) {}

ServeResult QueryEngine::run(std::span<const ServeEpoch> epochs,
                             std::uint32_t ranks) const {
  const graph::CSRGraph& g = *g_;
  ATLC_CHECK(g.directedness() == graph::Directedness::Undirected,
             "serve: undirected graphs only (LCC and the recommendation "
             "scores assume symmetric neighborhoods)");
  ATLC_CHECK(options_.partition != graph::PartitionKind::Grid2D,
             "serve: point queries fetch whole adjacency rows; Grid2D's "
             "segment ownership is not plumbed through the query kernels");
  const core::EngineConfig& cfg = options_.engine;

  ServeResult out;
  out.epochs.resize(epochs.size());

  // Identity fields and admission verdicts are a pure function of the
  // input stream — computed once here, identically for every rank count,
  // which is exactly the determinism the admission test pins down.
  std::uint64_t total = 0;
  for (const ServeEpoch& e : epochs) total += e.queries.size();
  out.answers.resize(total);
  {
    std::uint64_t id = 0;
    for (std::size_t e = 0; e < epochs.size(); ++e) {
      for (std::size_t qi = 0; qi < epochs[e].queries.size(); ++qi, ++id) {
        const Query& q = epochs[e].queries[qi];
        QueryAnswer& a = out.answers[id];
        a.id = id;
        a.kind = q.kind;
        a.v = q.v;
        a.k = q.kind == QueryKind::Lcc ? 0 : q.k;
        a.epoch = static_cast<std::uint32_t>(e);
        a.rejected = qi >= options_.admission_capacity;
      }
    }
  }

  out.hot_cache_ranks.resize(ranks);
  std::vector<core::QueryCost> costs(total);

  const auto body = [&](rma::RankCtx& ctx, core::DistGraph& dg,
                        core::EdgePipeline& pipeline) {
    const graph::Partition& partition = dg.partition;
    ctx.barrier();  // align clocks: everything before here is build cost
    if (ctx.rank() == 0) out.build_makespan = ctx.now();

    stream::BatchApplier applier(ctx, dg, cfg);
    HotVertexCache hot(options_.hot_cache);
    CandidateScores scores;
    const intersect::Intersector isect = core::make_intersector(cfg);

    std::uint64_t id_base = 0;
    std::uint64_t hot_hits_prev = 0;
    for (std::size_t e = 0; e < epochs.size(); ++e) {
      const ServeEpoch& ep = epochs[e];
      ctx.tracer().begin("serve_epoch");
      const double epoch_open = ctx.now();  // barrier-aligned on all ranks

      // ---- Query phase: answers reflect batches 0..e-1 only. Owned
      // queries run sequentially, so completion times include the rank's
      // virtual queueing delay behind earlier queries of the same epoch.
      ctx.tracer().begin("queries");
      const std::size_t accepted =
          std::min<std::size_t>(ep.queries.size(),
                                options_.admission_capacity);
      for (std::size_t qi = 0; qi < ep.queries.size(); ++qi) {
        QueryAnswer& a = out.answers[id_base + qi];
        if (qi >= accepted) {
          // Admission overflow: bounced at epoch open, no service time.
          if (ctx.rank() == 0) {
            a.arrival = epoch_open;
            a.completion = epoch_open;
          }
          continue;
        }
        const Query& q = ep.queries[qi];
        if (partition.owner(q.v) != ctx.rank()) continue;
        answer_one(ctx, dg, pipeline, isect, cfg, hot, scores, q, epoch_open,
                   a, costs[id_base + qi]);
      }
      ctx.tracer().end("queries");
      ctx.barrier();  // read phase closed: rows may change after this
      const double queries_done = ctx.now();

      // ---- Update phase: adjudicate (collective), invalidate the hot
      // cache against PRE-batch neighborhoods, then commit the rows.
      ctx.tracer().begin("update");
      const stream::EffectiveBatch eff = applier.adjudicate(ep.updates);
      std::uint64_t local_rows = 0;
      if (!eff.empty()) {  // replicated verdicts: all ranks agree
        const std::vector<VertexId> touched = stream::touched_vertices(eff);
        std::uint64_t scanned = 0;
        hot.invalidate_if(
            [&](VertexId v) {
              return batch_affects(
                  v, touched, eff,
                  dg.local_neighbors(partition.local_index(v)));
            },
            &scanned);
        // Each scanned entry costs up to 2|ops| membership probes into its
        // row plus one probe of the touched set.
        ctx.charge_compute(cfg.cost.seconds_probes(
            scanned * (2 * eff.ops.size() + 1),
            std::max<std::size_t>(touched.size(), 2)));
        local_rows = applier.apply_to_rows(eff);  // refreshes both windows
      }
      const std::uint64_t rows_total =
          eff.empty() ? 0 : ctx.allreduce_sum(local_rows);
      ctx.tracer().end("update");
      ctx.barrier();  // commit: epoch e+1 state visible everywhere

      const std::uint64_t hot_hits_now = hot.stats().hits;
      const std::uint64_t epoch_hits =
          ctx.allreduce_sum(hot_hits_now - hot_hits_prev);
      hot_hits_prev = hot_hits_now;
      if (ctx.rank() == 0) {
        EpochOutcome& eo = out.epochs[e];
        eo.submitted = ep.queries.size();
        eo.accepted = accepted;
        eo.rejected = ep.queries.size() - accepted;
        eo.hot_hits = epoch_hits;
        eo.effective_insertions = eff.insertions();
        eo.effective_deletions = eff.deletions();
        eo.rows_rebuilt = rows_total;
        eo.query_makespan = queries_done - epoch_open;
        eo.update_makespan = ctx.now() - queries_done;
      }
      if (ctx.tracer().enabled()) {
        ctx.tracer().counter("hot_cache", "hits", hot.stats().hits);
        ctx.tracer().counter("hot_cache", "misses", hot.stats().misses);
      }
      ctx.tracer().end("serve_epoch");
      id_base += ep.queries.size();
    }

    out.hot_cache_ranks[ctx.rank()] = hot.stats();
    if (ctx.rank() == 0)
      out.serve_makespan = ctx.now() - out.build_makespan;
  };
  static_cast<core::EdgeAnalyticStats&>(out.stats) = core::run_edge_analytic(
      g, graph::make_partition(g, options_.partition, ranks), cfg,
      options_.net, body);
  for (const HotCacheStats& h : out.hot_cache_ranks) out.hot_cache_total += h;

  out.stats.submitted = total;
  for (const QueryAnswer& a : out.answers) {
    if (a.rejected) {
      ++out.stats.rejected;
      continue;
    }
    ++out.stats.answered;
    out.stats.latencies.push_back(a.latency());
    out.stats.per_query.push_back(costs[a.id]);
  }
  return out;
}

QueryAnswer answer_reference(const graph::CSRGraph& g, const Query& q) {
  QueryAnswer a;
  a.kind = q.kind;
  a.v = q.v;
  a.k = q.kind == QueryKind::Lcc ? 0 : q.k;
  const std::span<const VertexId> adj_v = g.neighbors(q.v);
  if (q.kind == QueryKind::Lcc) {
    std::uint64_t tri = 0;
    for (const VertexId f : adj_v)
      tri += intersect::count_common(adj_v, g.neighbors(f),
                                     intersect::Method::Hybrid);
    a.lcc = graph::lcc_score(tri, static_cast<VertexId>(adj_v.size()));
    return a;
  }
  // An accumulator of its own, independent of the engine's: a std::map
  // per query, candidate exclusion by binary search in adj_v.
  const bool adamic = q.kind == QueryKind::TopKAdamicAdar;
  std::map<VertexId, double> scores;
  for (const VertexId f : adj_v) {
    const std::span<const VertexId> adj_f = g.neighbors(f);
    const double w = adamic ? core::adamic_adar_weight(adj_f.size()) : 1.0;
    if (w == 0.0) continue;  // no candidates from zero-weight friends
    for (const VertexId c : adj_f) {
      if (c == q.v) continue;
      if (std::binary_search(adj_v.begin(), adj_v.end(), c)) continue;
      scores[c] += w;
    }
  }
  std::vector<Recommendation> all;
  all.reserve(scores.size());
  for (const auto& [c, s] : scores) all.push_back({c, s});
  a.topk = select_topk(all, q.k);
  return a;
}

}  // namespace atlc::serve
