#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "atlc/clampi/cached_window.hpp"
#include "atlc/clampi/fixed_cache.hpp"
#include "atlc/core/dist_graph.hpp"
#include "atlc/core/engine_config.hpp"

namespace atlc::core {

/// Fetches the adjacency list of an arbitrary global vertex, implementing
/// the paper's two-get protocol (Fig. 3 steps 4-5):
///   1. get offsets[lv, lv+2) from the owner's w_offsets -> (start, end);
///   2. get adjacencies[start, end) from the owner's w_adj.
/// Step 1 is synchronous (step 2 depends on its result); step 2 can stay in
/// flight while the caller computes — that is the engine's pipelining.
///
/// With caching enabled, both gets go through CLaMPI-style CachedWindows.
/// Per the paper, C_offsets always uses CLaMPI's default eviction scores
/// (there is no useful application score before the degree is known), while
/// C_adj uses the configured policy, scoring entries by the out-degree
/// learned from step 1 (Section III-B2). Every C_offsets entry is one
/// 16-byte (start, end) pair (Obs. 3.2), so that window's table is a
/// `clampi::FixedCache`: plain LRU over offsets_bytes / 16 entries. C_adj's
/// entries vary in size and keep the full `clampi::Cache`. Both tables index
/// their entries by remote row (`clampi::RowIndex`), with no hash table and
/// hence no conflict misses.
///
/// When the DistGraph carries a hub replica (EngineConfig::hub_fraction),
/// begin() resolves replicated hub rows like local ones — straight from
/// rank memory, no get, no cache probe — and counts each such save in
/// CommStats::hub_local_hits (DESIGN.md §8). The returned span aliases the
/// replica row and stays valid until the row is next mutated (static runs
/// never mutate it; the stream engine mutates only inside the collective
/// apply step, which no fetch overlaps).
///
/// A C_adj hit resolves the same way: begin() returns it as a read-only
/// view of the owner's exposed adjacency part (zero-copy), valid until
/// w_adj's next refresh_window — the same contract as a hub row, since
/// refreshes happen only in collective steps no fetch overlaps.
///
/// ## Buffers are the caller's
///
/// The fetcher owns no transfer buffer. A transfer (an uncached fetch or a
/// C_adj miss) lands in the `dest` vector the caller passes to begin(), and
/// the span finish() returns aliases `dest` until the caller next writes
/// it; the caller must keep `dest` untouched while the transfer is in
/// flight. Local, hub, cache-hit and empty segments resolve at begin() and
/// never touch `dest`. EdgePipeline is the one caller that keeps transfers
/// in flight: it owns the landing buffers (DESIGN.md §6).
class AdjacencyFetcher {
 public:
  AdjacencyFetcher(rma::RankCtx& ctx, const DistGraph& dg,
                   const EngineConfig& config);

  /// One begun fetch.
  struct Token {
    /// The segment: resolved at begin() unless `transfer`, in which case it
    /// aliases the caller's `dest` and is readable once finish()ed.
    std::span<const VertexId> span{};
    bool transfer = false;  ///< a get is in flight until finish()
    bool cached = false;    ///< the transfer is a C_adj miss
    clampi::CachedWindow<VertexId>::Pending pending{};
    rma::GetHandle handle{};
  };

  /// Start fetching the column-block-b segment of adj(v) — the slice of
  /// v's adjacency row whose neighbor ids fall in
  /// partition.col_block_range(b). On 1D partitions b must be 0 and the
  /// segment is the whole row. Local, hub, cache-hit and empty rows resolve
  /// immediately; a transfer lands in `dest`. The two-get protocol is
  /// unchanged: the segment owner's local offsets delimit exactly its
  /// stored slice, so "fetch the owner's row lv" *is* the segment fetch.
  /// Both CLaMPI windows key their entries by that (owner, lv) pair, which
  /// is therefore segment-granular: distinct segments of one row never
  /// collide. A row keeps its key across refresh_window, so an epoch bump
  /// recycles its C_adj entry even when the row's start has moved.
  [[nodiscard]] Token begin(VertexId v, std::uint32_t col_block,
                            std::vector<VertexId>& dest);

  /// Complete the fetch and return its segment (see the class comment for
  /// the span's lifetime).
  [[nodiscard]] std::span<const VertexId> finish(const Token& t);

  [[nodiscard]] bool has_offsets_cache() const {
    return c_offsets_.has_value();
  }
  [[nodiscard]] bool has_adj_cache() const { return c_adj_.has_value(); }
  [[nodiscard]] clampi::FixedCache& offsets_cache() {
    return c_offsets_->cache();
  }
  [[nodiscard]] clampi::Cache& adj_cache() { return c_adj_->cache(); }

  /// Remote adjacency fetches performed (== remote edges processed; per
  /// target vertex, graph::remote_reads under 1D with no hub replica).
  [[nodiscard]] std::uint64_t remote_fetches() const { return remote_fetches_; }

 private:
  rma::RankCtx* ctx_;
  const DistGraph* dg_;
  std::optional<clampi::CachedWindow<EdgeIndex, clampi::FixedCache>>
      c_offsets_;
  std::optional<clampi::CachedWindow<VertexId>> c_adj_;
  std::uint64_t remote_fetches_ = 0;
  std::uint64_t in_flight_ = 0;  ///< begun, unfinished transfers (trace only)
};

}  // namespace atlc::core
