#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>

#ifndef NDEBUG
#include <unordered_map>
#endif

#include "atlc/clampi/cache.hpp"
#include "atlc/rma/runtime.hpp"
#include "atlc/util/check.hpp"

namespace atlc::clampi {

/// RMA window wrapper that transparently caches gets, the way CLaMPI
/// interposes on MPI_Get (paper Fig. 3, steps 5-6):
///   - on hit, only the cache-probe + local-copy time is charged, and the
///     payload is served zero-copy as a read-only view of the owner's
///     exposed part: the window is immutable within an epoch, and the
///     epoch stamp keeps a hit from outliving it (the Cache holds metadata
///     only);
///   - on miss, the get goes to the network and the entry is inserted into
///     the cache when the get completes (at finish()), paying the
///     cache-management overhead on top of the transfer.
///
/// `lookup`/`fetch`/`finish` let the caller overlap the transfer with
/// computation (the engine's double buffering) and take hits without a
/// destination buffer; `get` is the synchronous, copying convenience.
///
/// Gets targeting the local rank bypass the cache entirely: the
/// application reads its own partition directly, matching the paper's
/// usage where only remote reads are intercepted.
///
/// Debug builds record a digest of each entry's bytes at insert and check
/// it on every hit, so exposed bytes that change within an epoch (a
/// mutation without refresh_window) abort instead of being served.
template <typename T>
class CachedWindow {
 public:
  /// A miss transfer in flight, from fetch() to finish().
  struct Pending {
    rma::GetHandle handle{};
    Key key{};
    double score = 0.0;
    std::uint64_t epoch = 0;  ///< window epoch the transfer was issued at
  };

  CachedWindow(rma::RankCtx& ctx, rma::Window<T> window, CacheConfig config)
      : ctx_(&ctx), window_(window), cache_(config) {}

  /// Probe the cache for `count` elements at element `offset` of a remote
  /// `target`'s exposed region. A hit is charged and returned as a
  /// read-only view of the owner's exposed part, valid until this window's
  /// next refresh_window. A miss returns nullopt; the caller then issues
  /// the transfer with fetch().
  std::optional<std::span<const T>> lookup(std::uint32_t target,
                                           std::uint64_t offset,
                                           std::uint64_t count) {
    ATLC_DCHECK(target != ctx_->rank(), "local reads bypass the cache");
    const Key key{target, offset * sizeof(T), count * sizeof(T)};
    // Pin the cache to the window's current data epoch: entries fetched
    // before the last refresh_window are recycled on probe instead of
    // served (stale-hit-as-miss; the always-cache assumption holds only
    // within one epoch on dynamic graphs — DESIGN.md §7).
    cache_.set_epoch(window_.epoch());
    // Stale probes show up as a stale_evictions bump inside lookup(); the
    // delta distinguishes cache_stale from a plain cache_miss in traces.
    const std::uint64_t stale_before =
        ctx_->tracer().enabled() ? cache_.stats().stale_evictions : 0;
    if (cache_.lookup(key)) {
      ctx_->charge_comm(ctx_->net().time_cache_hit(key.bytes), "cache_hit");
      ctx_->tracer().instant("cache_hit", {"epoch", window_.epoch()},
                             {"bytes", key.bytes});
      const std::span<const T> hit = window_.view(target, offset, count);
#ifndef NDEBUG
      ATLC_CHECK(digests_.at(key) == digest(hit),
                 "exposed bytes changed within an epoch (mutation without "
                 "refresh_window)");
#endif
      return hit;
    }
    if (ctx_->tracer().enabled())
      ctx_->tracer().instant(
          cache_.stats().stale_evictions > stale_before ? "cache_stale"
                                                        : "cache_miss",
          {"epoch", window_.epoch()}, {"bytes", key.bytes});
    return std::nullopt;
  }

  /// Issue the remote get of a range lookup() just missed, into `dst`.
  /// `score` is the application-defined eviction score (paper Section
  /// III-B2); ignored unless the cache policy is UserScore.
  Pending fetch(std::uint32_t target, std::uint64_t offset,
                std::uint64_t count, T* dst, double score = 0.0) {
    Pending p;
    p.handle = window_.get(target, offset, count, dst);
    p.key = Key{target, offset * sizeof(T), count * sizeof(T)};
    p.score = score;
    p.epoch = window_.epoch();
    return p;
  }

  /// Complete a fetch(): wait for the transfer (virtual time) and insert
  /// its entry into the cache.
  void finish(const Pending& p) {
    ctx_->flush(p.handle);
    if (p.epoch != window_.epoch()) {
      // The window was refreshed while this transfer was pending: it read
      // the old exposure, so it is not a fetch of the current epoch and is
      // not admitted — a later probe misses and refetches, priced like any
      // stale probe. The caller's own dst holding old bytes is its
      // overlap-across-fence problem (erroneous under MPI_Win_fence
      // semantics too).
      return;
    }
    // Pipelines deeper than the paper's double buffering can have two
    // misses of the same key in flight at once (depth 2 cannot: a new get
    // only starts after the previous finish). The first completion inserts;
    // later ones find the key resident and skip the duplicate insert —
    // their transfer happened and its miss bookkeeping is still charged.
    cache_.set_epoch(window_.epoch());
    if (!cache_.contains(p.key) && cache_.insert(p.key, p.score)) {
#ifndef NDEBUG
      digests_[p.key] = digest(window_.view(
          p.key.target, p.key.offset / sizeof(T), p.key.bytes / sizeof(T)));
#endif
    }
    ctx_->charge_comm(ctx_->net().cache_miss_overhead_s, "cache_insert");
  }

  /// Synchronous cached get into `dst`: local targets read the window
  /// directly, hits copy the view, misses fetch and finish.
  void get(std::uint32_t target, std::uint64_t offset, std::uint64_t count,
           T* dst, double score = 0.0) {
    if (target == ctx_->rank()) {
      // Local part: plain window get, never cached.
      ctx_->flush(window_.get(target, offset, count, dst));
    } else if (const auto hit = lookup(target, offset, count)) {
      std::copy(hit->begin(), hit->end(), dst);
    } else {
      finish(fetch(target, offset, count, dst, score));
    }
  }

  [[nodiscard]] Cache& cache() { return cache_; }
  [[nodiscard]] const Cache& cache() const { return cache_; }
  [[nodiscard]] rma::Window<T>& window() { return window_; }

 private:
  rma::RankCtx* ctx_;
  rma::Window<T> window_;
  Cache cache_;
#ifndef NDEBUG
  struct KeyHasher {
    std::size_t operator()(const Key& k) const { return key_hash(k); }
  };
  /// FNV-1a 64 over the bytes of `view`.
  static std::uint64_t digest(std::span<const T> view) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::byte b : std::as_bytes(view))
      h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ull;
    return h;
  }
  /// Digest of each admitted entry's bytes at its insert.
  std::unordered_map<Key, std::uint64_t, KeyHasher> digests_;
#endif
};

}  // namespace atlc::clampi
