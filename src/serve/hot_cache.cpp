#include "atlc/serve/hot_cache.hpp"

#include <algorithm>
#include <utility>

#include "atlc/util/check.hpp"
#include "atlc/util/rng.hpp"

namespace atlc::serve {

const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::Lcc:
      return "lcc";
    case QueryKind::TopKCommon:
      return "topk_common";
    case QueryKind::TopKAdamicAdar:
      return "topk_adamic_adar";
  }
  return "unknown";
}

HotVertexCache::HotVertexCache(const HotCacheConfig& config)
    : config_(config) {
  if (config_.entries == 0) return;
  config_.ways = std::clamp<std::size_t>(config_.ways, 1, config_.entries);
  num_buckets_ = config_.entries / config_.ways;
  if (num_buckets_ == 0) num_buckets_ = 1;
  slots_.resize(num_buckets_ * config_.ways);
}

std::size_t HotVertexCache::bucket_of(VertexId v, QueryKind kind) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(v) << 2) | static_cast<std::uint64_t>(kind);
  return static_cast<std::size_t>(util::mix64(key) % num_buckets_);
}

HotVertexCache::Probe HotVertexCache::probe(VertexId v, QueryKind kind,
                                            std::uint32_t k) {
  if (!enabled()) return {};
  ++stats_.probes;
  const std::size_t base = bucket_of(v, kind) * config_.ways;
  for (std::size_t w = 0; w < config_.ways; ++w) {
    Entry& e = slots_[base + w];
    if (!e.used || e.v != v || e.kind != kind) continue;
    if (e.stale) {
      // CLaMPI discipline: a stale hit is a miss, and the entry is gone.
      ++stats_.stale_misses;
      e = Entry{};
      return {};
    }
    if (kind != QueryKind::Lcc && e.k < k) {
      // Memo not deep enough to serve a top-k prefix; the recompute will
      // refresh it at the larger depth.
      ++stats_.short_misses;
      return {};
    }
    ++stats_.hits;
    if (e.freq < config_.max_freq) ++e.freq;
    Probe p;
    p.hit = true;
    p.lcc = e.lcc;
    p.topk = std::span<const Recommendation>(
        e.topk.data(), std::min<std::size_t>(e.topk.size(), k));
    return p;
  }
  ++stats_.misses;
  return {};
}

void HotVertexCache::insert_entry(VertexId v, QueryKind kind, std::uint32_t k,
                                  double lcc,
                                  std::vector<Recommendation> topk) {
  if (!enabled()) return;
  const std::size_t base = bucket_of(v, kind) * config_.ways;

  // Refresh in place if the key is already resident (possibly stale after
  // an invalidation — the fresh answer supersedes it).
  for (std::size_t w = 0; w < config_.ways; ++w) {
    Entry& e = slots_[base + w];
    if (e.used && e.v == v && e.kind == kind) {
      e.k = k;
      e.stale = false;
      e.lcc = lcc;
      e.topk = std::move(topk);
      if (e.freq < config_.max_freq) ++e.freq;
      ++stats_.updates;
      return;
    }
  }

  // Empty (or stale — reclaim eagerly) slot: lowest index wins. Otherwise
  // the full bucket runs IdxCache frequency-decrement: the deterministic
  // victim is the minimum-frequency entry, lowest slot index on ties, and
  // only a victim already at frequency zero is replaced.
  std::size_t slot = 0;
  while (slot < config_.ways && slots_[base + slot].used &&
         !slots_[base + slot].stale)
    ++slot;
  if (slot == config_.ways) {
    slot = 0;
    for (std::size_t w = 1; w < config_.ways; ++w) {
      if (slots_[base + w].freq < slots_[base + slot].freq) slot = w;
    }
    Entry& ve = slots_[base + slot];
    if (ve.freq > 0) {
      --ve.freq;
      ++stats_.decrements;
      ++stats_.rejects;  // incoming entry turned away this time
      return;
    }
    ++stats_.evictions;
  }
  Entry& e = slots_[base + slot];
  e = Entry{};
  e.used = true;
  e.v = v;
  e.kind = kind;
  e.k = k;
  e.freq = 1;
  e.lcc = lcc;
  e.topk = std::move(topk);
  ++stats_.inserts;
}

void HotVertexCache::insert_lcc(VertexId v, double lcc) {
  insert_entry(v, QueryKind::Lcc, 0, lcc, {});
}

void HotVertexCache::insert_topk(VertexId v, QueryKind kind, std::uint32_t k,
                                 std::vector<Recommendation> topk) {
  ATLC_CHECK(kind != QueryKind::Lcc, "insert_topk: kind must be a TopK kind");
  insert_entry(v, kind, k, 0.0, std::move(topk));
}

std::size_t HotVertexCache::live_entries() const {
  std::size_t n = 0;
  for (const Entry& e : slots_) {
    if (e.used && !e.stale) ++n;
  }
  return n;
}

}  // namespace atlc::serve
