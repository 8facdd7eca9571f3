#pragma once

#include <cstddef>
#include <cstdint>

#include "atlc/clampi/config.hpp"
#include "atlc/graph/types.hpp"
#include "atlc/intersect/cost_model.hpp"

namespace atlc::obs {
class TraceCollector;
}  // namespace atlc::obs

namespace atlc::core {

class LocalSliceSource;  // core/dist_graph.hpp

using graph::VertexId;

/// Sizing of the two CLaMPI caches (paper Section IV-D2): from a total
/// memory budget, C_offsets gets room for 0.4*|V| (start,end) pairs —
/// 6.4*|V| bytes with this engine's 64-bit offsets, capped at half the
/// budget — and C_adj takes the remainder (see paper_default in
/// src/core/edge_pipeline.cpp). C_offsets holds ⌊offsets_bytes / 16⌋
/// pairs: a budget under one pair admits nothing.
struct CacheSizing {
  std::uint64_t offsets_bytes = 1u << 20;
  std::uint64_t adj_bytes = 8u << 20;

  /// The paper's allocation rule for a given graph size and budget.
  static CacheSizing paper_default(VertexId num_vertices,
                                   std::uint64_t total_budget_bytes);
};

/// Configuration of the distributed edge-analytic engine (paper Algorithm 3
/// generalised by core::EdgePipeline): every analytic — LCC, TC, the
/// similarity measures, the stream counter, serve's queries — runs on the
/// same configuration surface. `method`, `intersect_tier`, `tier_policy` and
/// `cost` build each rank's intersect::Intersector (core::make_intersector),
/// the one place an intersection is counted and priced.
struct EngineConfig {
  intersect::Method method = intersect::Method::Hybrid;

  /// Dispatch and pricing of local intersections (intersect/tiered.hpp,
  /// DESIGN.md §9). `Paper` — the default — runs count_binary/count_ssi as
  /// `method` selects, priced as the paper's kernels, and is what every
  /// checked-in virtual-time smoke baseline was recorded against; it must
  /// stay the default so those baselines reproduce bit-identically.
  /// `Tiered` dispatches per list shape: count_binary's galloping search
  /// for highly skewed pairs, count_ssi's block merge for the rest. Results
  /// are identical under either tier (both kernels are exact); only the
  /// charged virtual compute time differs.
  intersect::Tier intersect_tier = intersect::Tier::Paper;

  /// Shape threshold of the Tiered dispatch (ignored under Paper).
  intersect::TierPolicy tier_policy{};

  /// Compute-cost model for virtual-time charging (see
  /// intersect/cost_model.hpp). Benches calibrate this once on startup.
  intersect::CostModel cost{};

  /// Enable CLaMPI caching (paper Section III-B). A window is cached iff
  /// this is set and its `cache_sizing` budget is non-zero: a zero budget
  /// leaves that window uncached, which is how paper Fig. 7 studies each
  /// window's cache in isolation.
  bool use_cache = false;
  CacheSizing cache_sizing{};
  /// C_adj's victim selection: LruPositional = CLaMPI default scores;
  /// UserScore = this paper's degree-centrality extension (Fig. 8).
  /// C_offsets is always LRU (clampi::FixedCache).
  clampi::VictimPolicy victim_policy = clampi::VictimPolicy::LruPositional;

  /// Prefetch-pipeline depth k >= 1 of the edge stream: the engine keeps up
  /// to k-1 items' adjacency transfers in flight under the current
  /// intersection, each landing in its own entry of the pipeline's k-entry
  /// item ring (EdgePipeline). k=2 is the paper's double buffering
  /// (Section III-A); k=1 is the no-overlap engine; larger k hides more
  /// latency until the initiator's NIC serialisation saturates (DESIGN.md
  /// §2, `pipeline_depth` scenario).
  ///
  /// Interaction with the cache (`use_cache`): each begin() probes the
  /// CLaMPI windows, so a depth-k run holds up to k-1 *cache-resolved*
  /// transfers in flight too. Hits complete at hash-probe cost, freeing the
  /// NIC injection port for the remaining misses — which is why the cached
  /// columns of the `pipeline_depth` scenario keep improving past the depth
  /// where the uncached run saturates (DESIGN.md §6). Note the in-flight
  /// window also bounds span lifetime: a kernel's spans are valid only
  /// during its call, since its item's entry is reused k items later.
  std::size_t pipeline_depth = 2;

  /// Fraction δ of the highest-degree vertices whose adjacency rows are
  /// replicated on every rank at graph-build time (graph::HubReplica,
  /// DESIGN.md §8). The fetcher then serves those rows from local memory —
  /// zero RMA, counted in CommStats::hub_local_hits — which removes the
  /// hub-row churn from the CLaMPI caches. 0 disables replication with
  /// zero overhead (bit-identical to builds without the feature); the
  /// `skew` scenario sweeps δ ∈ {0, 0.1%, 1%}. Per-vertex results are
  /// unchanged for any δ; virtual times change (fewer remote gets) but
  /// stay deterministic.
  double hub_fraction = 0.0;

  /// Out-of-core graph build: when non-null, run_edge_analytic passes this
  /// to build_dist_graph and each rank's local CSR slice is read from it
  /// (ingest::SnapshotReader over an atlc_ingest snapshot, DESIGN.md §11)
  /// instead of sliced out of the in-memory global CSR.
  /// Results are bit-identical either way — the snapshot stores exactly
  /// the rows the in-memory build derives. Not owned; must outlive the
  /// run, and must be safe to call from all rank threads.
  const LocalSliceSource* slice_source = nullptr;

  /// Snapshot the C_adj cache contents at the end of the compute phase
  /// (drives paper Fig. 5 right: entry sizes vs reuse).
  bool dump_cache_entries = false;

  /// Virtual-time trace sink (atlc::obs, DESIGN.md §12): when non-null,
  /// the drivers pass it to rma::Runtime::Options and every layer's hooks
  /// record into it. Null (the default) keeps every hook a single pointer
  /// test and the virtual-time results bit-identical to pre-tracing builds.
  /// Not owned; must outlive the run.
  obs::TraceCollector* trace = nullptr;
};

}  // namespace atlc::core
