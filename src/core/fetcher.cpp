#include "atlc/core/fetcher.hpp"

#include <algorithm>

#include "atlc/util/check.hpp"

namespace atlc::core {

namespace {

clampi::CacheConfig offsets_cache_config(const EngineConfig& cfg) {
  clampi::CacheConfig c;
  c.buffer_bytes = cfg.cache_sizing.offsets_bytes;
  // C_offsets entries are fixed-size (start,end) pairs (paper Obs. 3.2).
  c.hash_slots = clampi::Cache::suggest_hash_slots_fixed(
      c.buffer_bytes, 2 * sizeof(EdgeIndex));
  c.policy = clampi::VictimPolicy::LruPositional;
  c.adaptive = cfg.cache_adaptive;
  return c;
}

clampi::CacheConfig adj_cache_config(const EngineConfig& cfg,
                                     const DistGraph& dg) {
  clampi::CacheConfig c;
  c.buffer_bytes = cfg.cache_sizing.adj_bytes;
  if (cfg.cache_sizing.adj_slots) {
    c.hash_slots = cfg.cache_sizing.adj_slots;
  } else {
    // Paper Section III-B1: under a power-law degree distribution, a cache
    // holding fraction f of the graph holds ~ n * f^2 entries. Estimate the
    // total adjacency volume from this rank's slice (1D parts are
    // approximately equal in vertices, roughly so in edges).
    const double total_adj_bytes =
        static_cast<double>(dg.adjacencies.size()) * sizeof(VertexId) *
        static_cast<double>(dg.partition.num_ranks());
    const double fraction =
        total_adj_bytes > 0
            ? static_cast<double>(c.buffer_bytes) / total_adj_bytes
            : 1.0;
    const std::size_t heuristic = clampi::Cache::suggest_hash_slots_power_law(
        dg.partition.num_vertices(), fraction);
    // Floor at 4x the buffer's entry capacity (slots cost 4 bytes each;
    // conflict evictions cost residency). This is what CLaMPI's adaptive
    // resizing converges to — starting there skips its flush-on-resize.
    const double avg_entry_bytes =
        dg.num_local() > 0
            ? std::max(8.0, static_cast<double>(dg.adjacencies.size()) *
                                sizeof(VertexId) /
                                static_cast<double>(dg.num_local()))
            : 64.0;
    const auto capacity_entries = static_cast<std::size_t>(
        static_cast<double>(c.buffer_bytes) / avg_entry_bytes);
    c.hash_slots = std::max(heuristic, 4 * std::max<std::size_t>(
                                               16, capacity_entries));
  }
  c.policy = cfg.victim_policy;
  c.adaptive = cfg.cache_adaptive;
  return c;
}

}  // namespace

namespace {

// One in-flight fetch per pipeline item on 1D partitions (the local side
// is a plain span); two on 2D partitions, where both segment sides of an
// (edge, block) item may be remote.
std::size_t ring_slots(const EngineConfig& config, const DistGraph& dg) {
  ATLC_CHECK(config.pipeline_depth >= 1, "pipeline_depth must be at least 1");
  return config.pipeline_depth * (dg.partition.col_blocks() > 1 ? 2 : 1);
}

}  // namespace

AdjacencyFetcher::AdjacencyFetcher(rma::RankCtx& ctx, const DistGraph& dg,
                                   const EngineConfig& config)
    : ctx_(&ctx),
      dg_(&dg),
      config_(&config),
      buffers_(ring_slots(config, dg)),
      generations_(ring_slots(config, dg), 0) {
  if (config.use_cache && config.cache_offsets)
    c_offsets_.emplace(ctx, dg.w_offsets, offsets_cache_config(config));
  if (config.use_cache && config.cache_adj)
    c_adj_.emplace(ctx, dg.w_adj, adj_cache_config(config, dg));
  if (config.track_remote_reads)
    remote_reads_.assign(dg.partition.num_vertices(), 0);
}

AdjacencyFetcher::Token AdjacencyFetcher::begin(VertexId v) {
  ATLC_DCHECK(dg_->partition.col_blocks() == 1,
              "whole-row begin(v) on a 2D partition: use "
              "begin(v, col_block) (segments are the unit of fetch)");
  return begin(v, 0);
}

AdjacencyFetcher::Token AdjacencyFetcher::begin(VertexId v,
                                                std::uint32_t col_block) {
  const auto& part = dg_->partition;
  const bool segmented = part.col_blocks() > 1;
  const auto owner = part.segment_owner(v, col_block);
  const VertexId lv = part.local_index(v);

  Token t;
  if (owner == ctx_->rank()) {
    t.local = true;
    t.local_span = dg_->local_neighbors(lv);
    t.degree = static_cast<VertexId>(t.local_span.size());
    return t;
  }

  // Hub fast path (DESIGN.md §8): replicated rows resolve like local ones —
  // no window get, no cache probe, no ring slot — and are tallied so
  // benches can report the RMA traffic the replication removed. The replica
  // stores full rows; under a 2D partition the requested segment is served
  // by slicing the (sorted) row to the column block's id range.
  if (!dg_->hubs.empty()) {
    if (const std::size_t slot = dg_->hubs.find(v);
        slot != graph::HubReplica::npos) {
      t.local = true;
      auto row = dg_->hubs.neighbors_at(slot);
      if (segmented) {
        const auto [lo, hi] = part.col_block_range(col_block);
        const auto* seg_lo = std::lower_bound(row.data(),
                                              row.data() + row.size(), lo);
        const auto* seg_hi =
            std::lower_bound(seg_lo, row.data() + row.size(), hi);
        row = {seg_lo, seg_hi};
      }
      t.local_span = row;
      t.degree = static_cast<VertexId>(t.local_span.size());
      ++ctx_->stats().hub_local_hits;
      ctx_->tracer().instant("hub_hit", {"v", v});
      return t;
    }
  }

  ++remote_fetches_;
  if (segmented) ++ctx_->stats().segment_gets;
  if (!remote_reads_.empty()) ++remote_reads_[v];

  // Step 1 (synchronous): (start, end) of the adjacency list. "The first
  // MPI_Get reads the offset of the adjacency list" (paper Fig. 3 step 4).
  EdgeIndex span[2];
  if (c_offsets_) {
    c_offsets_->get(owner, lv, 2, span);
  } else {
    ctx_->flush(dg_->w_offsets.get(owner, lv, 2, span));
  }
  ATLC_CHECK(span[1] >= span[0], "corrupt remote offsets");
  t.count = span[1] - span[0];
  t.degree = static_cast<VertexId>(t.count);
  ctx_->tracer().instant("fetch_remote", {"v", v},
                         {"bytes", t.count * sizeof(VertexId)});
  if (t.count == 0) {
    // Out-degree-0 vertices exist in directed graphs (they survive
    // cleaning via their in-degree); there is no adjacency to transfer.
    t.local = true;
    t.local_span = {};
    return t;
  }

  // Step 2 (overlappable): the adjacency list itself. A hit is served
  // zero-copy from the owner's exposed part (valid until the window's next
  // refresh, like a hub row) and claims no ring slot.
  if (c_adj_) {
    if (const auto hit = c_adj_->lookup(owner, span[0], t.count)) {
      t.local = true;
      t.local_span = *hit;
      return t;
    }
  }
  // A transfer claims a ring slot. Claiming recycles it: any span still
  // aliasing it is dead, and the bumped generation makes a late finish() on
  // it abort in debug builds.
  t.slot = next_slot_;
  next_slot_ = (next_slot_ + 1) % buffers_.size();
  t.generation = ++generations_[t.slot];
  // Ring occupancy series: transfers currently claimed but not finish()ed.
  // Sustained occupancy at ring_size() means the prefetch depth (not the
  // kernel) is the bottleneck.
  if (ctx_->tracer().enabled())
    ctx_->tracer().counter("ring", "in_flight", ++in_flight_);
  auto& buf = buffers_[t.slot];
  buf.resize(t.count);
  if (c_adj_) {
    // The out-degree just learned becomes the application-defined eviction
    // score (Section III-B2).
    t.cached = true;
    t.pending = c_adj_->fetch(owner, span[0], t.count, buf.data(),
                              static_cast<double>(t.degree));
  } else {
    t.handle = dg_->w_adj.get(owner, span[0], t.count, buf.data());
  }
  return t;
}

std::span<const VertexId> AdjacencyFetcher::finish(const Token& t) {
  if (t.local) return t.local_span;
  ATLC_DCHECK(generations_[t.slot] == t.generation,
              "fetch ring slot recycled before finish(): more than "
              "pipeline_depth fetches in flight (see the span-lifetime "
              "contract in fetcher.hpp)");
  if (t.cached) {
    c_adj_->finish(t.pending);
  } else {
    ctx_->flush(t.handle);
  }
  if (ctx_->tracer().enabled() && in_flight_ > 0)
    ctx_->tracer().counter("ring", "in_flight", --in_flight_);
  return {buffers_[t.slot].data(), t.count};
}

}  // namespace atlc::core
