#pragma once

// QueryEngine: the resident serving layer (ROADMAP item 3, DESIGN.md §13).
//
// Runs a virtual-time-stamped stream of ServeEpochs — point queries
// interleaved with stream::Batch updates — on top of the PR 4 streaming
// engine. Per epoch: admitted queries are answered at their owner ranks by
// driving (lv, neighbor) work lists through EdgePipeline::run_over (so
// every fetch and intersection is priced by the engine's cost model and
// depth-k prefetch ring), then the epoch's batch is adjudicated, the
// HotVertexCache is invalidated against the pre-batch neighborhoods, and
// BatchApplier commits the rows. Epoch-consistency contract: epoch e's
// answers reflect batches 0..e-1 exactly — never partial state — and are
// bit-identical across rank counts and hot-cache settings (the parity
// matrix in tests/test_serve.cpp enforces this against answer_reference).
//
// Admission control is deterministic by construction: the per-epoch bound
// is applied to the submission order of the input stream, a pure function
// every rank evaluates identically, so the accept/reject sequence is
// byte-identical at every rank count (tests/test_serve.cpp pins this).

#include <cstdint>
#include <span>
#include <vector>

#include "atlc/core/engine_config.hpp"
#include "atlc/core/query_stats.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/rma/network_model.hpp"
#include "atlc/serve/hot_cache.hpp"
#include "atlc/serve/query.hpp"

namespace atlc::serve {

struct ServeOptions {
  core::EngineConfig engine{};
  rma::NetworkModel net{};
  /// 1D partitions only: point queries need whole adjacency rows.
  graph::PartitionKind partition = graph::PartitionKind::Block1D;
  /// Bounded in-flight queue per epoch window: of each epoch's queries, the
  /// first `admission_capacity` (submission order) are admitted, the rest
  /// rejected with `QueryAnswer::rejected` set. 0 rejects everything
  /// (updates still apply).
  std::size_t admission_capacity = 1024;
  /// entries = 0 (default) disables the hot cache — answers are unchanged
  /// either way, only virtual latencies and hit counters move.
  HotCacheConfig hot_cache{};
};

/// Per-epoch accounting, filled on rank 0 at each epoch's commit barrier.
struct EpochOutcome {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t hot_hits = 0;  ///< summed over ranks
  std::uint64_t effective_insertions = 0;
  std::uint64_t effective_deletions = 0;
  std::uint64_t rows_rebuilt = 0;       ///< summed over ranks
  double query_makespan = 0.0;   ///< epoch open -> slowest rank done serving
  double update_makespan = 0.0;  ///< query barrier -> batch commit
};

struct ServeResult {
  /// One answer per submitted query, in submission order (rejected ones
  /// carry only identity + timing).
  std::vector<QueryAnswer> answers;
  core::QueryStats stats;
  HotCacheStats hot_cache_total;  ///< field-wise sum of hot_cache_ranks
  std::vector<HotCacheStats> hot_cache_ranks;
  std::vector<EpochOutcome> epochs;
  double build_makespan = 0.0;  ///< graph build + window setup
  double serve_makespan = 0.0;  ///< epoch loop (queries + updates)
};

class QueryEngine {
 public:
  explicit QueryEngine(const graph::CSRGraph& g, ServeOptions options = {});

  /// Serve the stream over `ranks` simulated ranks. Rejects directed
  /// graphs and Grid2D partitions (ATLC_CHECK).
  [[nodiscard]] ServeResult run(std::span<const ServeEpoch> epochs,
                                std::uint32_t ranks) const;

  [[nodiscard]] const ServeOptions& options() const { return options_; }

 private:
  const graph::CSRGraph* g_;
  ServeOptions options_;
};

/// Single-node from-scratch answer of one query against `g` — the oracle
/// the parity matrix compares engine answers to, bit for bit, at each
/// query's epoch snapshot. It shares only the Adamic–Adar weight, the
/// ascending friend order and the top-k total order with the engine, not
/// its accumulator: top-k scores go through a std::map here. No virtual
/// time involved.
[[nodiscard]] QueryAnswer answer_reference(const graph::CSRGraph& g,
                                           const Query& q);

}  // namespace atlc::serve
