#pragma once

// The generic depth-k asynchronous edge-pipeline engine.
//
// The paper's core contribution is an edge-centric compute loop that fetches
// the remote adjacency of edge e_{i+1} while intersecting e_i (Section III-A
// double buffering). EdgePipeline factors that loop out of the individual
// analytics: one prefetch ring walks an item source — the rank's local edge
// stream times its column blocks, or an explicit edge list — keeps up to k-1
// items' fetches in flight (EngineConfig::pipeline_depth), landing them in
// buffers the pipeline owns, and hands each item to an arbitrary kernel. A
// 1D partition is the one-column-block case, so run(), run_over() and
// run_segments() are thin adapters over the same loop. LCC, global TC
// and the similarity measures are kernels over this engine that price
// their intersections through one per-rank intersect::Intersector
// (make_intersector); `run_edge_analytic` is the one launcher around it
// (partition, SPMD launch, teardown, stats aggregation) for every engine
// run, the streaming and serving drivers included.
// DESIGN.md §6 documents the kernel concept, the item source, the buffer
// lifetime rules, and how depth interacts with the NIC-serialisation model.

#include <concepts>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "atlc/core/dist_graph.hpp"
#include "atlc/core/engine_config.hpp"
#include "atlc/core/fetcher.hpp"
#include "atlc/graph/hub_replica.hpp"
#include "atlc/intersect/intersector.hpp"
#include "atlc/util/check.hpp"
#include "atlc/util/json.hpp"

namespace atlc::core {

/// An edge kernel: invoked once per local edge, in edge-stream order, as
/// kernel(lv, j, adj_v, adj_j) where `lv` is the local index of the owning
/// vertex v, `j` the (global) neighbor, `adj_v` v's local adjacency and
/// `adj_j` the (possibly remotely fetched) adjacency of j. `adj_j` is only
/// valid during the call — the engine reuses its item's buffer k items later.
/// Kernels charge their own compute time (ctx.charge_compute) so the
/// engine stays analytic-agnostic about cost.
template <typename K>
concept EdgeKernel =
    std::invocable<K&, VertexId, VertexId, std::span<const VertexId>,
                   std::span<const VertexId>>;

/// A segment kernel: invoked once per (local edge, column block) item as
/// kernel(lv, j, block, seg_v, seg_j), where `seg_v` / `seg_j` are the
/// column-block-`block` restrictions of adj(v) / adj(j). Summing a pair
/// intersection over all blocks reproduces the whole-row count:
/// |adj(v) ∩ adj(j)| = Σ_b |seg(v,b) ∩ seg(j,b)|, because the blocks
/// partition the neighbor id range. On a 1D partition there is one block
/// and the call sequence is exactly an EdgeKernel's. `seg_j` may alias an
/// item-ring buffer and, under 2D, `seg_v` a row-ring buffer (v's segments
/// for other column blocks live on sibling ranks), so neither is valid
/// beyond the call.
template <typename K>
concept SegmentKernel =
    std::invocable<K&, VertexId, VertexId, std::uint32_t,
                   std::span<const VertexId>, std::span<const VertexId>>;

/// This rank's Intersector for `config`: the same on every partition kind,
/// because no tier keeps either span beyond the call.
[[nodiscard]] intersect::Intersector make_intersector(
    const EngineConfig& config);

/// Per-rank counters harvested from a pipeline after run().
struct PipelineRankStats {
  std::uint64_t edges_processed = 0;
  std::uint64_t remote_edges = 0;  ///< edges whose neighbor list was remote
  /// Rank busy time at the end of its body: the virtual clock less the
  /// time it waited at collectives for slower ranks (RankCtx::sync_wait),
  /// recorded before the teardown barrier (run_edge_analytic fills it).
  /// This is the number load-imbalance metrics must use:
  /// Runtime::Result::clocks are post-barrier and therefore identical
  /// across ranks.
  double busy_seconds = 0.0;
  clampi::CacheStats offsets_cache;  ///< zeroed when caching is off
  clampi::CacheStats adj_cache;
  std::vector<clampi::EntryInfo> adj_cache_entries;  ///< optional snapshot
};

/// Statistics every edge analytic reports identically: the SPMD run record
/// plus pipeline/cache counters aggregated over all ranks. Analytic results
/// (RunResult, SimilarityResult, QueryStats) derive from this, so a stats
/// field present for one analytic is present — and filled — for all.
struct EdgeAnalyticStats {
  rma::Runtime::Result run;  ///< per-rank comm stats + virtual clocks
  clampi::CacheStats offsets_cache_total;
  clampi::CacheStats adj_cache_total;
  /// Per-rank cache counters, in rank order (the *_total fields above are
  /// their field-wise sums — tests audit this invariant so a counter added
  /// to CacheStats cannot silently drop out of the aggregation).
  std::vector<clampi::CacheStats> offsets_cache_ranks;
  std::vector<clampi::CacheStats> adj_cache_ranks;
  std::uint64_t edges_processed = 0;
  std::uint64_t remote_edges = 0;  ///< edges whose neighbor list was remote
  std::vector<double> busy_clocks;  ///< per-rank busy_seconds
  std::vector<clampi::EntryInfo> adj_cache_entries;  ///< all ranks, optional

  /// Fraction of processed edges requiring a remote adjacency fetch
  /// (paper Section IV-D2: 66% -> 98% for R-MAT S21 EF16, p=4 -> 64).
  /// Under Grid2D, remote_edges counts remote *segment* fetches (the j
  /// side of each (edge, block) item plus the v side of each (row, block))
  /// while edges_processed still counts each local edge once, so the
  /// "fraction" can exceed 1 — it is then the average number of remote
  /// segment fetches per edge.
  [[nodiscard]] double remote_edge_fraction() const {
    return edges_processed
               ? static_cast<double>(remote_edges) /
                     static_cast<double>(edges_processed)
               : 0.0;
  }

  /// Load imbalance of the run: max over mean of the per-rank busy
  /// clocks (1.0 = perfectly balanced; the D7 and `skew`
  /// scenarios report it). 1.0 when clocks were not recorded.
  [[nodiscard]] double imbalance() const;

  /// Fold one rank's counters in (driver aggregation; ranks in order).
  void absorb(PipelineRankStats&& rank);
};

/// The engine block of every `atlc_run --stats-json` document, static,
/// streaming or serving (DESIGN.md §12): ranks, makespan_s, wall_seconds,
/// comm_total, comm_per_rank, clocks, offsets_cache, adj_cache,
/// edges_processed, remote_edges, peak_rss_bytes. Callers append their
/// own keys after it.
[[nodiscard]] util::Json stats_json(const EdgeAnalyticStats& s);

/// Depth-k prefetch ring over one rank's pipeline items.
///
/// Every entry point visits its items in order. With depth k
/// (EngineConfig::pipeline_depth), the fetches of item t+k-1 are
/// issued before the kernel runs on item t, so up to k-1 items' transfers
/// ride under each intersection in virtual time. k=2 reproduces the
/// paper's double buffering exactly (same begin/finish/compute order, hence
/// bit-identical virtual makespans); k=1 is the fully synchronous loop.
///
/// The pipeline owns every buffer a transfer lands in; the fetcher owns
/// none. Item t lives in entry t mod k of an item ring, which holds the
/// item, its seg(j, b) token and the buffer that segment lands in. Issuing
/// item t+k-1 claims the entry of item t-1, which has already retired. The
/// v side is fetched once per row visit, not once per item: when the issue
/// cursor enters a row, every segment of it the pass visits is begun into
/// a row ring of k entries (indexed by visit ordinal mod k), and every
/// item of the row reads its seg_v there. Under 1D the row is the rank's
/// own and costs nothing; under 2D each visited non-own column block is
/// one fetch per row from a sibling rank. k entries suffice: the k items
/// from the one retiring to the last one issued span at most k row
/// visits.
class EdgePipeline {
 public:
  EdgePipeline(rma::RankCtx& ctx, const DistGraph& dg,
               const EngineConfig& config)
      : dg_(&dg),
        config_(&config),
        rank_(ctx.rank()),
        fetcher_(ctx, dg, config),
        items_(config.pipeline_depth),
        rows_(config.pipeline_depth, RowSlot(dg.partition.col_blocks())) {
    ATLC_CHECK(config.pipeline_depth >= 1, "pipeline_depth must be at least 1");
  }

  /// Drive `kernel` over every local edge with depth-k prefetching (1D
  /// partitions: a whole-row kernel has no column block to name).
  template <EdgeKernel K>
  void run(K&& kernel) {
    run_rows(LocalItems{.dg = dg_, .blocks = 1}, kernel);
  }

  /// Drive `kernel` over an explicit edge list instead of the full local
  /// stream, with the same depth-k prefetch ring. Each entry is (lv, j):
  /// the LOCAL index of the owning vertex and the GLOBAL neighbor whose
  /// adjacency is fetched. The stream engine uses this to enumerate
  /// N(u) ∩ N(v) for a batch's update edges only, instead of recounting
  /// every local edge.
  template <EdgeKernel K>
  void run_over(std::span<const std::pair<VertexId, VertexId>> edges,
                K&& kernel) {
    run_rows(ListItems{edges}, kernel);
  }

  /// Drive a SegmentKernel over every (local edge, column block) item. The
  /// rank's local CSR is its segment store (each row slot holds only the
  /// rank's column-block slice), so the item space is the local edge stream
  /// × the column blocks [first_block, B): each edge's items visit those
  /// blocks in order. Under 2D each item fetches seg(j, b), and each local
  /// row with items fetches its non-own segments seg(v, b), b >= first_block,
  /// once, from the sibling ranks of this grid row, into the row ring.
  /// Blocks below first_block are neither fetched nor visited: upper-
  /// triangle TC passes the rank's own column, below which every id lies
  /// under the j it trims at. On a 1D partition (first_block 0) this is
  /// run() exactly. edges_processed counts each local edge once (at its
  /// first_block item); remote segment fetches land in remote_edges via
  /// the fetcher.
  template <SegmentKernel K>
  void run_segments(K&& kernel, std::uint32_t first_block = 0) {
    ATLC_CHECK(first_block < dg_->partition.col_blocks(),
               "run_segments: first_block out of range");
    ring(LocalItems{.dg = dg_,
                    .blocks = dg_->partition.col_blocks(),
                    .first = first_block,
                    .block = first_block},
         kernel);
  }

  /// Snapshot this rank's pipeline counters (callable any time; counters
  /// are monotonic).
  [[nodiscard]] PipelineRankStats harvest();

 private:
  /// One pipeline item: local owner lv, global neighbor j, column block.
  struct Item {
    VertexId lv;
    VertexId j;
    std::uint32_t block;
  };

  /// Item source over the local edge stream × the column blocks
  /// [first, blocks). A forward cursor: next() yields the items in order
  /// and tracks the owning local vertex incrementally, so a pass costs
  /// O(m·B + n).
  struct LocalItems {
    const DistGraph* dg;
    std::uint32_t blocks;
    std::uint32_t first = 0;
    EdgeIndex ei = 0;
    VertexId lv = 0;
    std::uint32_t block = 0;  ///< starts at `first`
    [[nodiscard]] std::uint64_t size() const {
      return static_cast<std::uint64_t>(dg->adjacencies.size()) *
             (blocks - first);
    }
    Item next() {
      while (dg->offsets[lv + 1] <= ei) ++lv;
      const Item it{lv, dg->adjacencies[ei], block};
      if (++block == blocks) {
        block = first;
        ++ei;
      }
      return it;
    }
  };

  /// Item source over an explicit (lv, j) list, all in block 0.
  struct ListItems {
    static constexpr std::uint32_t first = 0;
    std::span<const std::pair<VertexId, VertexId>> edges;
    std::size_t i = 0;
    [[nodiscard]] std::uint64_t size() const { return edges.size(); }
    Item next() {
      const auto [lv, j] = edges[i++];
      return {lv, j, 0};
    }
  };

  /// One issued item: the item, its seg(j, b) fetch and the buffer that
  /// fetch lands in, and the row visit that holds its seg(v, b).
  struct ItemSlot {
    Item item{};
    std::uint64_t number = 0;  ///< the item holding the slot (debug check)
    std::uint64_t visit = 0;
    AdjacencyFetcher::Token token;
    std::vector<VertexId> buffer;
  };

  /// One row visit's v side: seg(v, b) for every column block b, begun when
  /// the issue cursor enters the row and finished when its first item
  /// retires. The own block resolves from the local CSR; the others land
  /// in their `buffer` (2D only).
  struct RowSlot {
    struct Segment {
      AdjacencyFetcher::Token token;
      std::vector<VertexId> buffer;
    };
    explicit RowSlot(std::uint32_t blocks) : segments(blocks) {}
    std::uint64_t visit = 0;  ///< the visit holding the slot (debug check)
    bool finished = false;
    std::vector<Segment> segments;  ///< indexed by column block
  };

  /// A whole-row pass: an EdgeKernel is the one-block SegmentKernel it
  /// looks like, which needs a 1D partition (under 2D a row is B segments,
  /// and only run_segments visits them).
  template <typename Source, typename K>
  void run_rows(Source items, K& kernel) {
    ATLC_CHECK(dg_->partition.col_blocks() == 1,
               "EdgePipeline::run/run_over stream whole rows (1D "
               "partitions); 2D runs use run_segments");
    ring(items, [&kernel](VertexId lv, VertexId j, std::uint32_t,
                          std::span<const VertexId> adj_v,
                          std::span<const VertexId> adj_j) {
      kernel(lv, j, adj_v, adj_j);
    });
  }

  /// Claim the next row-ring slot for local row `lv` and begin its
  /// segments from `first_block` on through the fetcher: the own column
  /// block (the whole row on a 1D partition) resolves from the local CSR,
  /// every other one is fetched from its sibling rank. The blocks below
  /// `first_block` keep an empty default token.
  void enter_row(VertexId lv, std::uint32_t first_block) {
    RowSlot& row = rows_[++visits_ % rows_.size()];
    row.visit = visits_;
    row.finished = false;
    const VertexId v = dg_->partition.global_id(rank_, lv);
    for (std::uint32_t b = 0; b < row.segments.size(); ++b) {
      row.segments[b].token =
          b < first_block ? AdjacencyFetcher::Token{}
                          : fetcher_.begin(v, b, row.segments[b].buffer);
    }
  }

  /// Issue item number `n`, `it`, into its item-ring slot, entering its
  /// row first when the issue cursor (`issue_lv`: the row of the previous
  /// item issued) moves.
  void issue(const Item& it, std::uint64_t n, VertexId& issue_lv,
             std::uint32_t first_block) {
    if (it.lv != issue_lv) {
      issue_lv = it.lv;
      enter_row(it.lv, first_block);
    }
    ItemSlot& slot = items_[n % items_.size()];
    slot.item = it;
    slot.number = n;
    slot.visit = visits_;
    slot.token = fetcher_.begin(it.j, it.block, slot.buffer);
  }

  /// seg(v, b) of a retiring item: its row visit's slot, finished by the
  /// visit's first item.
  std::span<const VertexId> row_segment(std::uint64_t visit, std::uint32_t b) {
    RowSlot& row = rows_[visit % rows_.size()];
    if (!row.finished) {
      for (auto& seg : row.segments) (void)fetcher_.finish(seg.token);
      row.finished = true;
    }
    return row.segments[b].token.span;
  }

  /// The one prefetch loop. Fetches are issued and retired strictly FIFO:
  /// one cursor over the source issues items `lookahead` ahead of the one
  /// the kernel consumes, and each issued item waits in its item-ring slot.
  template <typename Source, typename K>
  void ring(Source items, K&& kernel) {
    const std::uint64_t total = items.size();
    const std::uint64_t lookahead = config_->pipeline_depth - 1;
    VertexId issue_lv = kNoRow;
    std::uint64_t issued = 0;
    const auto issue_next = [&] {
      issue(items.next(), issued++, issue_lv, items.first);
    };
    while (issued < std::min(lookahead, total)) issue_next();

    for (std::uint64_t t = 0; t < total; ++t) {
      if (lookahead == 0) issue_next();  // depth 1: no fetch runs ahead
      const ItemSlot& cur = items_[t % items_.size()];
      const Item it = cur.item;
      const std::span<const VertexId> seg_v = row_segment(cur.visit, it.block);
      const std::span<const VertexId> seg_j = fetcher_.finish(cur.token);
      if (lookahead > 0 && issued < total) issue_next();
      // Both spans must outlive the issue above: the item's slot and its
      // row visit's slot are still its own.
      ATLC_DCHECK(cur.number == t,
                  "item ring slot reused before the item retired: more "
                  "than pipeline_depth items in flight");
      ATLC_DCHECK(rows_[cur.visit % rows_.size()].visit == cur.visit,
                  "row ring slot reused before the row's last item retired: "
                  "more than pipeline_depth row visits in flight");
      kernel(it.lv, it.j, it.block, seg_v, seg_j);
      if (it.block == items.first) ++edges_run_;
    }
  }

  /// No row: the issue cursor's position before a pass's first item.
  static constexpr VertexId kNoRow = std::numeric_limits<VertexId>::max();

  const DistGraph* dg_;
  const EngineConfig* config_;
  std::uint32_t rank_;  ///< this rank's id (global_id needs it)
  std::uint64_t edges_run_ = 0;  ///< edges visited across all passes
  AdjacencyFetcher fetcher_;
  std::vector<ItemSlot> items_;  ///< the item ring: pipeline_depth items
  std::vector<RowSlot> rows_;    ///< the row ring: pipeline_depth row visits
  std::uint64_t visits_ = 0;     ///< row visits entered across all passes
};

/// A rank body for run_edge_analytic: runs the analytic's kernel(s) through
/// the pipeline and records this rank's outputs. The graph is mutable so
/// dynamic bodies (stream batches, serve updates) can apply edge updates
/// to the rank's rows between passes.
template <typename B>
concept EdgeAnalyticBody =
    std::invocable<B&, rma::RankCtx&, DistGraph&, EdgePipeline&>;

/// The one launcher of every engine run: distribute `g` by the caller's
/// `partition` over its num_ranks() simulated ranks (the caller keeps the
/// partition to map its rank-local outputs back to global ids), launch
/// the SPMD region, build the rank-local graph and
/// its pipeline (span `build_graph`), run `body` (span `pipeline`), record
/// each rank's busy clock, synchronise once at teardown, and aggregate the
/// per-rank pipeline counters identically for every analytic (this
/// symmetry is load-bearing: Jaccard historically dropped offsets-cache
/// stats).
template <EdgeAnalyticBody Body>
[[nodiscard]] EdgeAnalyticStats run_edge_analytic(
    const CSRGraph& g, const Partition& partition, const EngineConfig& config,
    const rma::NetworkModel& net, Body&& body) {
  const std::uint32_t ranks = partition.num_ranks();
  // One prototype, copied per rank by build_dist_graph (which also prices
  // the replication). Empty — and free — at the default hub_fraction = 0.
  const graph::HubReplica hub_replica =
      graph::HubReplica::build(g, config.hub_fraction);

  EdgeAnalyticStats out;
  std::vector<PipelineRankStats> rank_stats(ranks);

  rma::Runtime::Options opts;
  opts.ranks = ranks;
  opts.net = net;
  opts.trace = config.trace;
  out.run = rma::Runtime::run(opts, [&](rma::RankCtx& ctx) {
    ctx.tracer().begin("build_graph");
    DistGraph dg =
        build_dist_graph(ctx, g, partition, &hub_replica, config.slice_source);
    EdgePipeline pipeline(ctx, dg, config);
    ctx.tracer().end("build_graph");
    ctx.tracer().begin("pipeline");
    body(ctx, dg, pipeline);
    ctx.tracer().end("pipeline");
    rank_stats[ctx.rank()] = pipeline.harvest();
    rank_stats[ctx.rank()].busy_seconds = ctx.now() - ctx.sync_wait();
    ctx.barrier();  // end-of-epoch synchronisation (teardown only)
  });

  for (auto& rs : rank_stats) out.absorb(std::move(rs));
  return out;
}

}  // namespace atlc::core
