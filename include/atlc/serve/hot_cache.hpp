#pragma once

// HotVertexCache: a traffic-skew hotspot cache for the serving layer,
// adapted from CHIME's IdxCache (SNIPPETS.md snippet 1; DESIGN.md §13).
//
// Set-associative buckets keyed by (vertex, query kind); each entry
// memoizes a finished answer (an LCC value or a top-k recommendation list)
// plus a saturating frequency counter. Eviction is the IdxCache
// frequency-decrement discipline made deterministic: an insert into a full
// bucket finds the minimum-frequency victim (lowest slot index on ties)
// and *decrements* it — only a victim already at frequency zero is
// actually replaced, otherwise the incoming entry is rejected. A hot entry
// therefore needs several cold probes-worth of pressure before it falls
// out, which is exactly the behaviour that protects Zipf-head vertices.
//
// Consistency reuses the CLaMPI stale-hit-as-miss discipline from the
// rma/clampi windows: entries carry no epoch stamp, only a stale flag. The
// engine marks entries whose memo a committed batch may have changed
// (endpoint-or-neighbor predicate, DESIGN.md §13), and a probe that lands
// on a stale entry counts a stale miss and erases it. The cache never
// returns data from a previous epoch, so hot-cache on/off is
// answer-invariant — the parity matrix in tests/test_serve.cpp enforces
// that, and the fuzz test in the same file drives this class against a
// map-based reference model.
//
// Distinct from the two resident tiers below it: HubReplica (PR 5) is
// degree-skew keyed and replicates raw rows at build time; the CLaMPI
// window cache is access-pattern keyed and caches remote segments.
// HotVertexCache is *traffic*-skew keyed and caches finished answers.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "atlc/serve/query.hpp"
#include "atlc/util/counters.hpp"

namespace atlc::serve {

struct HotCacheConfig {
  std::size_t entries = 0;  ///< total slots; 0 disables the cache
  std::size_t ways = 4;     ///< bucket associativity (clamped to entries)
  std::int32_t max_freq = 64;  ///< frequency saturation cap
};

struct HotCacheStats {
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;        ///< key absent (cold or evicted)
  std::uint64_t stale_misses = 0;  ///< entry present but batch-invalidated
  std::uint64_t short_misses = 0;  ///< top-k memo shallower than requested
  std::uint64_t inserts = 0;       ///< new entry placed in an empty slot
  std::uint64_t updates = 0;       ///< existing key refreshed in place
  std::uint64_t evictions = 0;     ///< zero-frequency victim replaced
  std::uint64_t decrements = 0;    ///< victim decremented, insert rejected
  std::uint64_t rejects = 0;       ///< inserts the full bucket turned away
  std::uint64_t invalidated = 0;   ///< entries marked stale by batches

  /// The counter list: JSON key order, field-wise sums, audits.
  static constexpr auto counters() {
    using S = HotCacheStats;
    return std::tuple{
        util::Counter{"probes", &S::probes},
        util::Counter{"hits", &S::hits},
        util::Counter{"misses", &S::misses},
        util::Counter{"stale_misses", &S::stale_misses},
        util::Counter{"short_misses", &S::short_misses},
        util::Counter{"inserts", &S::inserts},
        util::Counter{"updates", &S::updates},
        util::Counter{"evictions", &S::evictions},
        util::Counter{"decrements", &S::decrements},
        util::Counter{"rejects", &S::rejects},
        util::Counter{"invalidated", &S::invalidated}};
  }

  HotCacheStats& operator+=(const HotCacheStats& o) {
    return util::add_counters(*this, o);
  }
  bool operator==(const HotCacheStats&) const = default;

  [[nodiscard]] double hit_rate() const {
    return probes == 0 ? 0.0 : static_cast<double>(hits) /
                                   static_cast<double>(probes);
  }
};
static_assert(util::lists_every_member<HotCacheStats>());

class HotVertexCache {
 public:
  explicit HotVertexCache(const HotCacheConfig& config);

  struct Probe {
    bool hit = false;
    double lcc = 0.0;
    /// First `k` memoized recommendations; valid until the next non-const
    /// call on the cache.
    std::span<const Recommendation> topk;
  };

  [[nodiscard]] bool enabled() const { return num_buckets_ != 0; }

  /// Look up (v, kind). A TopK probe hits only when the memo is at least
  /// `k` deep (it then serves the first k); an Lcc probe ignores `k`.
  [[nodiscard]] Probe probe(VertexId v, QueryKind kind, std::uint32_t k);

  void insert_lcc(VertexId v, double lcc);
  void insert_topk(VertexId v, QueryKind kind, std::uint32_t k,
                   std::vector<Recommendation> topk);

  /// Mark every live entry whose vertex satisfies `stale_pred` as stale.
  /// Called between batch adjudication and row application so the
  /// predicate can consult pre-batch neighborhoods (DESIGN.md §13). The
  /// predicate is invoked once per live unstale entry; `probes_out`, when
  /// non-null, accrues the number of invocations for cost charging.
  template <typename Pred>
  void invalidate_if(Pred&& stale_pred, std::uint64_t* probes_out = nullptr) {
    for (Entry& e : slots_) {
      if (!e.used || e.stale) continue;
      if (probes_out != nullptr) ++*probes_out;
      if (stale_pred(e.v)) {
        e.stale = true;
        ++stats_.invalidated;
      }
    }
  }

  [[nodiscard]] const HotCacheStats& stats() const { return stats_; }
  [[nodiscard]] const HotCacheConfig& config() const { return config_; }
  [[nodiscard]] std::size_t live_entries() const;

 private:
  struct Entry {
    VertexId v = 0;
    QueryKind kind = QueryKind::Lcc;
    std::uint32_t k = 0;  ///< memo depth for TopK kinds
    std::int32_t freq = 0;
    bool used = false;
    bool stale = false;
    double lcc = 0.0;
    std::vector<Recommendation> topk;
  };

  [[nodiscard]] std::size_t bucket_of(VertexId v, QueryKind kind) const;
  void insert_entry(VertexId v, QueryKind kind, std::uint32_t k, double lcc,
                    std::vector<Recommendation> topk);

  HotCacheConfig config_;
  std::size_t num_buckets_ = 0;
  std::vector<Entry> slots_;
  HotCacheStats stats_;
};

}  // namespace atlc::serve
