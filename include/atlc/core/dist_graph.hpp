#pragma once

#include <vector>

#include "atlc/graph/csr.hpp"
#include "atlc/graph/hub_replica.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/rma/runtime.hpp"

namespace atlc::core {

using graph::CSRGraph;
using graph::Directedness;
using graph::EdgeIndex;
using graph::Partition;
using graph::VertexId;

/// Per-rank view of the distributed graph (paper Section III-A, Fig. 3):
/// the rank's CSR partition plus the two RMA windows every rank exposes —
/// `w_offsets` over its offsets array and `w_adj` over its adjacencies
/// array. Reading a remote adjacency list takes two gets: offsets[lv, lv+2)
/// from the owner's w_offsets, then adjacencies[start, end) from its w_adj.
///
/// Under PartitionKind::Grid2D the local CSR is the rank's *segment store*:
/// row slot lv holds only the slice of vertex global_id(rank, lv)'s
/// adjacency row whose neighbor ids fall in the rank's column block, and
/// the two-get protocol against segment_owner(v, b) naturally returns the
/// b-th segment — the owner's offsets delimit exactly its stored slice.
/// For 1D kinds col_blocks() == 1 and the "segment" is the whole row.
struct DistGraph {
  Partition partition;
  Directedness directedness = Directedness::Undirected;

  /// Local partition as a compact CSR over local vertex indices
  /// (global id = partition.global_id(rank, local_index)). Adjacency
  /// entries remain GLOBAL vertex ids.
  std::vector<EdgeIndex> offsets;       // n_local + 1
  std::vector<VertexId> adjacencies;    // local edge count

  /// This rank's copy of the replicated hub rows (empty unless the engine
  /// ran with EngineConfig::hub_fraction > 0). AdjacencyFetcher serves hub
  /// adjacencies from here instead of issuing the two-get protocol;
  /// stream::BatchApplier keeps the rows current per batch. DESIGN.md §8.
  graph::HubReplica hubs;

  rma::Window<EdgeIndex> w_offsets;
  rma::Window<VertexId> w_adj;

  [[nodiscard]] VertexId num_local() const {
    return static_cast<VertexId>(offsets.size() - 1);
  }
  [[nodiscard]] std::span<const VertexId> local_neighbors(VertexId lv) const {
    return {adjacencies.data() + offsets[lv],
            adjacencies.data() + offsets[lv + 1]};
  }
  [[nodiscard]] VertexId local_degree(VertexId lv) const {
    return static_cast<VertexId>(offsets[lv + 1] - offsets[lv]);
  }
};

/// Out-of-core seam: an object that can materialise a rank's local CSR
/// slice directly — offsets over local row slots plus global-id adjacency
/// entries, exactly the layout build_dist_graph derives from the global
/// CSR. ingest::SnapshotReader implements it by reading the rank's rows
/// out of an atlc_ingest snapshot (DESIGN.md §11), which is the paper's
/// Fig. 3 step 1 done literally: each rank reads only its rows from disk.
/// Implementations must be safe to call concurrently from all rank
/// threads.
class LocalSliceSource {
 public:
  virtual ~LocalSliceSource() = default;
  virtual void read_slice(const Partition& partition, std::uint32_t rank,
                          std::vector<EdgeIndex>& offsets,
                          std::vector<VertexId>& adjacencies) const = 0;
};

/// Build the rank-local partition from the (process-shared) global CSR and
/// expose it over RMA windows. Collective: every rank must call it.
///
/// In a real MPI deployment each rank would read only its chunk from disk
/// (paper Fig. 3, step 1); in this shared-address-space simulation the
/// "read" is a slice-copy out of the shared CSR, preserving the property
/// that a rank's accessible state is its own partition + the windows.
/// When `slice` is non-null the rank's slice comes from it instead (e.g.
/// read from a snapshot), and the global CSR is only consulted for hub
/// rows. Either path must produce identical
/// vectors; build_dist_graph cross-checks the row count.
///
/// When `hubs` is non-null and non-empty, the prototype replica is copied
/// into the rank's DistGraph and the replication traffic is priced on the
/// virtual clock: each rank is charged one modeled remote get per hub row
/// it does not own (the allgather a real deployment would run at load
/// time). With a null/empty replica nothing is charged — δ=0 runs are
/// bit-identical to pre-replication builds.
[[nodiscard]] DistGraph build_dist_graph(
    rma::RankCtx& ctx, const CSRGraph& global, const Partition& partition,
    const graph::HubReplica* hubs = nullptr,
    const LocalSliceSource* slice = nullptr);

}  // namespace atlc::core
