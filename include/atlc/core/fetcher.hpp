#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "atlc/clampi/cached_window.hpp"
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
/// learned from step 1 (Section III-B2).
///
/// When the DistGraph carries a hub replica (EngineConfig::hub_fraction),
/// begin() resolves replicated hub rows like local ones — straight from
/// rank memory, no get, no cache probe, no ring slot — and counts each such
/// save in CommStats::hub_local_hits (DESIGN.md §8). The returned span
/// aliases the replica row and stays valid until the row is next mutated
/// (static runs never mutate it; the stream engine mutates only inside the
/// collective apply step, which no fetch overlaps).
///
/// A C_adj hit resolves the same way: begin() returns it as a read-only
/// view of the owner's exposed adjacency part (zero-copy, no ring slot),
/// valid until w_adj's next refresh_window — the same contract as a hub
/// row, since refreshes happen only in collective steps no fetch overlaps.
///
/// ## Buffer-ring lifetime contract
///
/// Adjacency transfers (uncached fetches and C_adj misses) begun with
/// begin() land in a ring of `EngineConfig::pipeline_depth` buffers on
/// every partition kind (the pipeline begins one such fetch per item: the
/// j side), so at most `ring_size()` transfers may be live — in flight or
/// with their finish()ed span still being read — at once. The span
/// returned by finish(t) aliases t's ring slot and stays valid **until the
/// slot is reused**, i.e. for the next `depth - 1` transfers begun; after
/// that the span reads the next transfer's data. Each slot carries a
/// generation counter stamped into the Token by begin() and checked by
/// finish() (debug builds, ATLC_DCHECK), so completing a fetch whose slot
/// was already recycled aborts instead of silently returning another
/// vertex's adjacency. Local, hub, cache-hit and empty adjacencies resolve
/// without consuming a slot and are exempt from the ring contract, and so
/// are begin_into() transfers, which land in the caller's buffer (the
/// pipeline's per-row v-side segments under 2D).
class AdjacencyFetcher {
 public:
  AdjacencyFetcher(rma::RankCtx& ctx, const DistGraph& dg,
                   const EngineConfig& config);

  /// In-flight adjacency fetch. At most ring_size() may exist concurrently
  /// (the engine's current + prefetched next k-1); each transfer occupies
  /// one ring slot until the slot is recycled.
  struct Token {
    bool local = false;  ///< resolved at begin() (no transfer): local_span
    std::span<const VertexId> local_span{};
    std::size_t slot = 0;
    std::uint64_t generation = 0;  ///< slot generation at begin() time
    std::uint64_t count = 0;
    VertexId degree = 0;
    bool cached = false;
    /// Where the transfer lands: a ring slot's buffer, or begin_into()'s.
    std::vector<VertexId>* dest = nullptr;
    clampi::CachedWindow<VertexId>::Pending pending{};
    rma::GetHandle handle{};
  };

  /// Start fetching the column-block-b segment of adj(v) — the slice of
  /// v's adjacency row whose neighbor ids fall in
  /// partition.col_block_range(b). On 1D partitions b must be 0 and the
  /// segment is the whole row. Local, hub and cache-hit rows resolve
  /// immediately. A transfer claims the least-recently-used ring slot,
  /// invalidating the span of the transfer begun ring_size() transfers ago.
  /// The two-get protocol is unchanged: the segment owner's local offsets
  /// delimit exactly its stored slice, so "fetch the owner's row lv" *is*
  /// the segment fetch. CLaMPI entries are keyed by (target rank, offset,
  /// count) and therefore already segment-granular; distinct segments of
  /// one row never collide.
  [[nodiscard]] Token begin(VertexId v, std::uint32_t col_block) {
    return start(v, col_block, nullptr);
  }

  /// begin(), except that a transfer lands in `dest` instead of a ring
  /// slot; the finish()ed span stays valid until `dest` is next written.
  /// Local, hub, cache-hit and empty segments resolve as in begin().
  [[nodiscard]] Token begin_into(VertexId v, std::uint32_t col_block,
                                 std::vector<VertexId>& dest) {
    return start(v, col_block, &dest);
  }

  /// Complete the fetch; see the class comment for the returned span's
  /// lifetime. Debug builds abort if t's slot was already recycled.
  [[nodiscard]] std::span<const VertexId> finish(const Token& t);

  /// Number of fetch buffers (the pipeline depth).
  [[nodiscard]] std::size_t ring_size() const { return buffers_.size(); }

  [[nodiscard]] bool has_offsets_cache() const {
    return c_offsets_.has_value();
  }
  [[nodiscard]] bool has_adj_cache() const { return c_adj_.has_value(); }
  [[nodiscard]] clampi::Cache& offsets_cache() { return c_offsets_->cache(); }
  [[nodiscard]] clampi::Cache& adj_cache() { return c_adj_->cache(); }

  /// Remote adjacency fetches performed (== remote edges processed).
  [[nodiscard]] std::uint64_t remote_fetches() const { return remote_fetches_; }

  /// Per-global-vertex remote read counts (empty unless
  /// EngineConfig::track_remote_reads).
  [[nodiscard]] const std::vector<std::uint64_t>& remote_reads() const {
    return remote_reads_;
  }

 private:
  /// begin() and begin_into(): a null `dest` claims a ring slot.
  Token start(VertexId v, std::uint32_t col_block,
              std::vector<VertexId>* dest);

  rma::RankCtx* ctx_;
  const DistGraph* dg_;
  const EngineConfig* config_;
  std::optional<clampi::CachedWindow<EdgeIndex>> c_offsets_;
  std::optional<clampi::CachedWindow<VertexId>> c_adj_;
  std::vector<std::vector<VertexId>> buffers_;   ///< ring of depth slots
  std::vector<std::uint64_t> generations_;       ///< per-slot recycle count
  std::size_t next_slot_ = 0;
  std::uint64_t remote_fetches_ = 0;
  std::uint64_t in_flight_ = 0;  ///< claimed ring slots (trace counter only)
  std::vector<std::uint64_t> remote_reads_;
};

}  // namespace atlc::core
