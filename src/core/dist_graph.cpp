#include "atlc/core/dist_graph.hpp"

#include "atlc/util/check.hpp"

namespace atlc::core {

DistGraph build_dist_graph(rma::RankCtx& ctx, const CSRGraph& global,
                           const Partition& partition,
                           const graph::HubReplica* hubs,
                           const LocalSliceSource* slice) {
  ATLC_CHECK(partition.num_ranks() == ctx.num_ranks(),
             "partition rank count must match runtime");
  ATLC_CHECK(partition.num_vertices() == global.num_vertices(),
             "partition vertex count must match graph");

  DistGraph dg{partition, global.directedness(), {}, {}, {}, {}, {}};

  const VertexId n_local = partition.part_size(ctx.rank());
  if (slice != nullptr) {
    // Out-of-core path: the slice source reads this rank's rows (e.g. from
    // a snapshot) instead of slicing the global CSR.
    slice->read_slice(partition, ctx.rank(), dg.offsets, dg.adjacencies);
    ATLC_CHECK(dg.offsets.size() == static_cast<std::size_t>(n_local) + 1,
               "slice source row count must match the partition");
  } else {
    // Under Grid2D the rank's local CSR *is* the segment store: each row
    // slot keeps only the slice of the adjacency row whose neighbor ids
    // fall in the rank's column block. 1D kinds take the whole row (their
    // one column block), so the build below is shared.
    const std::uint32_t col = partition.grid_col(ctx.rank());
    dg.offsets.reserve(static_cast<std::size_t>(n_local) + 1);
    dg.offsets.push_back(0);
    for (VertexId lv = 0; lv < n_local; ++lv) {
      const auto seg = partition.row_segment(
          global.neighbors(partition.global_id(ctx.rank(), lv)), col);
      dg.adjacencies.insert(dg.adjacencies.end(), seg.begin(), seg.end());
      dg.offsets.push_back(dg.adjacencies.size());
    }
  }

  if (hubs && !hubs->empty()) {
    dg.hubs = *hubs;
    // Price the replication: one modeled remote get per hub row this rank
    // does not own (offsets pair + row payload — the same bytes the two-get
    // protocol would move once). Owned rows cost nothing: the copy stands
    // in for the rank contributing its own rows to the allgather.
    double seconds = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t gets = 0;
    const auto ids = dg.hubs.hub_ids();
    for (std::size_t slot = 0; slot < ids.size(); ++slot) {
      if (partition.owner(ids[slot]) == ctx.rank()) continue;
      const std::uint64_t row_bytes =
          dg.hubs.neighbors_at(slot).size() * sizeof(VertexId) +
          2 * sizeof(EdgeIndex);
      seconds += ctx.net().time_remote(row_bytes);
      bytes += row_bytes;
      ++gets;
    }
    ctx.stats().remote_gets += gets;
    ctx.stats().remote_bytes += bytes;
    ctx.charge_comm(seconds);
  }

  // Windows must be created after the vectors reached their final size —
  // the runtime captures raw spans (like MPI_Win_create pins a buffer).
  dg.w_offsets = ctx.create_window<EdgeIndex>(dg.offsets);
  dg.w_adj = ctx.create_window<VertexId>(dg.adjacencies);
  return dg;
}

}  // namespace atlc::core
