#pragma once

#include <cstdint>
#include <vector>

#include "atlc/graph/csr.hpp"
#include "atlc/intersect/cost_model.hpp"
#include "atlc/rma/runtime.hpp"

namespace atlc::tric {

using graph::CSRGraph;
using graph::EdgeIndex;
using graph::VertexId;

/// Reimplementation of TriC (Ghosh & Halappanavar, HPEC'20 Graph Challenge
/// champion), the paper's comparison baseline (Section IV-B).
///
/// TriC counts triangles per-vertex with a query-response scheme: the owner
/// of apex vertex i enumerates candidate closing edges (j,k) with
/// i < j < k, verifies them locally when it owns j, and otherwise sends a
/// query to owner(j). Queries and credit responses travel in BLOCKING
/// all-to-all rounds — every rank waits for the slowest each round, which
/// is the synchronisation cost the paper's asynchronous design removes.
///
/// Ranks own edge-balanced vertex blocks (balanced_boundaries): the paper
/// runs TriC with `-b`. Each query entry also pays a fixed two-sided
/// handling cost (tric.cpp's kTwoSidedEntryNs), once at the sender and
/// once at the receiver; the async engine's RMA transfers land directly in
/// the user buffer and pay none (the paper's Section II-E argument).
struct TricConfig {
  /// TriC-Buffered: cap on queued query entries (uint32 words) per
  /// destination rank; a full buffer forces an early exchange round.
  /// 0 = unbuffered (the original TriC). The paper caps buffers at 16 MiB.
  std::uint64_t buffer_entries = 0;
  /// Compute-cost model (same as the async engine, for a fair comparison).
  intersect::CostModel cost{};
};

struct TricResult {
  std::uint64_t global_triangles = 0;
  /// Distinct triangles per vertex (note: half the edge-centric t(v) the
  /// async engine reports for undirected graphs).
  std::vector<std::uint64_t> per_vertex;
  std::vector<double> lcc;
  rma::Runtime::Result run;
  std::uint64_t rounds = 0;          ///< communication rounds executed
  std::uint64_t query_entries = 0;   ///< total uint32 words sent as queries
};

/// Run distributed TriC on `ranks` simulated ranks. Undirected input only
/// (TriC is an undirected triangle counter).
[[nodiscard]] TricResult run_tric(const CSRGraph& g, std::uint32_t ranks,
                                  const TricConfig& config = {},
                                  const rma::NetworkModel& net = {});

/// Edge-balanced 1D partition boundaries (TriC's -b flag): vertex blocks
/// chosen so each rank owns ~m/p adjacency entries. Returns p+1 boundaries.
[[nodiscard]] std::vector<VertexId> balanced_boundaries(const CSRGraph& g,
                                                        std::uint32_t ranks);

}  // namespace atlc::tric
