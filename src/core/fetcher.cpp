#include "atlc/core/fetcher.hpp"

#include "atlc/util/check.hpp"

namespace atlc::core {

AdjacencyFetcher::AdjacencyFetcher(rma::RankCtx& ctx, const DistGraph& dg,
                                   const EngineConfig& config)
    : ctx_(&ctx), dg_(&dg) {
  if (config.use_cache && config.cache_sizing.offsets_bytes > 0)
    c_offsets_.emplace(ctx, dg.w_offsets, config.cache_sizing.offsets_bytes);
  if (config.use_cache && config.cache_sizing.adj_bytes > 0)
    c_adj_.emplace(ctx, dg.w_adj,
                   clampi::CacheConfig{config.cache_sizing.adj_bytes,
                                       config.victim_policy});
}

AdjacencyFetcher::Token AdjacencyFetcher::begin(VertexId v,
                                                std::uint32_t col_block,
                                                std::vector<VertexId>& dest) {
  const auto& part = dg_->partition;
  const bool segmented = part.col_blocks() > 1;
  const auto [owner, lv] = part.segment_slot(v, col_block);

  Token t;
  if (owner == ctx_->rank()) {
    t.span = dg_->local_neighbors(lv);
    return t;
  }

  // Hub fast path (DESIGN.md §8): replicated rows resolve like local ones —
  // no window get, no cache probe — and are tallied so benches can report
  // the RMA traffic the replication removed. The replica stores full rows;
  // under a 2D partition the requested segment is served by slicing the
  // (sorted) row to the column block's id range.
  if (!dg_->hubs.empty()) {
    if (const std::size_t slot = dg_->hubs.find(v);
        slot != graph::HubReplica::npos) {
      const auto row = dg_->hubs.neighbors_at(slot);
      t.span = segmented ? part.row_segment(row, col_block) : row;
      ++ctx_->stats().hub_local_hits;
      ctx_->tracer().instant("hub_hit", {"v", v});
      return t;
    }
  }

  ++remote_fetches_;
  if (segmented) ++ctx_->stats().segment_gets;

  // Step 1 (synchronous): (start, end) of the adjacency list. "The first
  // MPI_Get reads the offset of the adjacency list" (paper Fig. 3 step 4).
  EdgeIndex range[2];
  static_assert(sizeof(range) == clampi::FixedCache::kEntryBytes,
                "a C_offsets entry is one (start, end) pair");
  if (c_offsets_) {
    // Both windows key an entry by the row lv; here it is also the offset.
    c_offsets_->get(owner, lv, lv, 2, range);
  } else {
    ctx_->flush(dg_->w_offsets.get(owner, lv, 2, range));
  }
  ATLC_CHECK(range[1] >= range[0], "corrupt remote offsets");
  const std::uint64_t count = range[1] - range[0];
  ctx_->tracer().instant("fetch_remote", {"v", v},
                         {"bytes", count * sizeof(VertexId)});
  // Out-degree-0 vertices exist in directed graphs (they survive cleaning
  // via their in-degree); there is no adjacency to transfer.
  if (count == 0) return t;

  // Step 2 (overlappable): the adjacency list itself. A hit is served
  // zero-copy from the owner's exposed part (valid until the window's next
  // refresh, like a hub row).
  if (c_adj_) {
    if (const auto hit = c_adj_->lookup(owner, lv, range[0], count)) {
      t.span = *hit;
      return t;
    }
  }
  dest.resize(count);
  t.span = {dest.data(), count};
  t.transfer = true;
  // Transfers in flight: sustained occupancy at the pipeline's lookahead
  // means the prefetch depth (not the kernel) is the bottleneck.
  ++in_flight_;
  if (ctx_->tracer().enabled())
    ctx_->tracer().counter("ring", "in_flight", in_flight_);
  if (c_adj_) {
    // The out-degree just learned becomes the application-defined eviction
    // score (Section III-B2).
    t.cached = true;
    t.pending = c_adj_->fetch(owner, lv, range[0], count, dest.data(),
                              static_cast<double>(count));
  } else {
    t.handle = dg_->w_adj.get(owner, range[0], count, dest.data());
  }
  return t;
}

std::span<const VertexId> AdjacencyFetcher::finish(const Token& t) {
  if (!t.transfer) return t.span;
  if (t.cached) {
    c_adj_->finish(t.pending);
  } else {
    ctx_->flush(t.handle);
  }
  --in_flight_;
  if (ctx_->tracer().enabled())
    ctx_->tracer().counter("ring", "in_flight", in_flight_);
  return t.span;
}

}  // namespace atlc::core
