#include "atlc/graph/partition.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "atlc/graph/csr.hpp"
#include "atlc/util/even_split.hpp"

namespace atlc::graph {

namespace {

/// The parts+1 even cuts of [0, n) (util::even_split).
std::vector<VertexId> even_cuts(VertexId n, std::uint32_t parts) {
  std::vector<VertexId> cuts(static_cast<std::size_t>(parts) + 1);
  for (std::uint32_t i = 0; i <= parts; ++i)
    cuts[i] = static_cast<VertexId>(util::even_split(n, parts, i).first);
  return cuts;
}

/// The parts+1 cuts of [0, weights.size()) that degree_balanced()
/// documents: part k takes vertices until its weight reaches
/// ceil(remaining_weight / remaining_parts).
std::vector<VertexId> greedy_cuts(std::span<const std::uint64_t> weights,
                                  std::uint32_t parts) {
  const auto n = static_cast<VertexId>(weights.size());
  std::vector<VertexId> cuts(static_cast<std::size_t>(parts) + 1, n);

  std::uint64_t remaining = 0;
  for (const std::uint64_t w : weights) remaining += w;

  VertexId i = 0;
  for (std::uint32_t r = 0; r < parts; ++r) {
    cuts[r] = i;
    const std::uint32_t parts_left = parts - r;
    if (remaining == 0) {
      // Zero-weight tail (or an all-zero sequence): nothing left to
      // balance, fall back to vertex-count balance over what remains.
      const VertexId take = (n - i + parts_left - 1) / parts_left;
      i += take;
      continue;
    }
    // Re-quota against what is left: ceil keeps every prefix of parts at or
    // above its fair share, which is what front-loads the remainder and
    // makes all-equal weights reproduce the Block1D boundaries.
    const std::uint64_t quota = (remaining + parts_left - 1) / parts_left;
    std::uint64_t owned = 0;
    while (i < n && owned < quota) {
      owned += weights[i];
      ++i;
    }
    remaining -= owned;
  }
  return cuts;
}

}  // namespace

Partition::Partition(PartitionKind kind, VertexId num_vertices,
                     std::uint32_t ranks)
    : kind_(kind), n_(num_vertices), p_(ranks) {
  ATLC_CHECK(ranks > 0, "partition needs >= 1 rank");
  ATLC_CHECK(kind != PartitionKind::DegreeBalanced1D,
             "DegreeBalanced1D needs degrees: use Partition::"
             "degree_balanced() or graph::make_partition()");
  if (kind == PartitionKind::Grid2D) {
    // Largest divisor of p not exceeding floor(sqrt(p)) keeps the grid as
    // square as p allows while using every rank (prime p -> 1 x p).
    for (std::uint32_t d = 1; d * d <= p_; ++d)
      if (p_ % d == 0) grid_rows_ = d;
    grid_cols_ = p_ / grid_rows_;
  }
  // A 1D kind has p row blocks (grid_cols_ == 1), Grid2D has pr.
  if (kind != PartitionKind::Cyclic1D)
    row_cuts_ = even_cuts(n_, p_ / grid_cols_);
  col_cuts_ = even_cuts(n_, grid_cols_);
}

Partition Partition::from_cuts(std::vector<VertexId> cuts,
                               std::vector<VertexId> col_cuts) {
  const auto check = [](const std::vector<VertexId>& table) {
    ATLC_CHECK(table.size() >= 2 && table.front() == 0,
               "partition cuts must start at 0 and bound >= 1 rank");
    ATLC_CHECK(std::is_sorted(table.begin(), table.end()),
               "partition cuts must not decrease");
  };
  check(cuts);
  const bool grid = !col_cuts.empty();
  if (grid) {
    check(col_cuts);
    ATLC_CHECK(col_cuts.back() == cuts.back(),
               "row and column cuts must end at the same n");
  }
  // The Block1D constructor sets n, p and the {0, n} column cuts of a 1D
  // kind; a grid sets its shape and column cuts after it.
  const auto rows = static_cast<std::uint32_t>(cuts.size() - 1);
  const auto cols = grid ? static_cast<std::uint32_t>(col_cuts.size() - 1) : 1;
  Partition p(PartitionKind::Block1D, cuts.back(), rows * cols);
  p.kind_ = grid ? PartitionKind::Grid2D : PartitionKind::DegreeBalanced1D;
  p.row_cuts_ = std::move(cuts);
  if (grid) {
    p.grid_rows_ = rows;
    p.grid_cols_ = cols;
    p.col_cuts_ = std::move(col_cuts);
  }
  return p;
}

Partition Partition::degree_balanced(std::span<const std::uint64_t> weights,
                                     std::uint32_t ranks) {
  return from_cuts(greedy_cuts(weights, ranks));
}

Partition Partition::degree_balanced(std::span<const VertexId> degrees,
                                     std::uint32_t ranks) {
  std::vector<std::uint64_t> weights(degrees.begin(), degrees.end());
  return degree_balanced(std::span<const std::uint64_t>(weights), ranks);
}

Partition make_partition(const CSRGraph& g, PartitionKind kind,
                         std::uint32_t ranks, bool upper_triangle) {
  if (kind == PartitionKind::Grid2D && upper_triangle) {
    // w(j) of the header, in one pass over the rows: for an edge (v, j),
    // |adj(v) ∩ (j, n)| is the number of v's neighbors after j in its
    // sorted row, and each row v adds deg(v) * |adj(v) ∩ (v, n)| to its
    // own weight with one upper_bound.
    std::vector<std::uint64_t> weights(g.num_vertices(), 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto row = g.neighbors(v);
      for (std::size_t k = 0; k < row.size(); ++k)
        weights[row[k]] += row.size() - k - 1;
      const auto above = static_cast<std::uint64_t>(
          row.end() - std::upper_bound(row.begin(), row.end(), v));
      weights[v] += static_cast<std::uint64_t>(row.size()) * above;
    }
    // The grid shape of the even build, its even row cuts, and the
    // greedy's column cuts.
    const Partition even(kind, g.num_vertices(), ranks);
    return Partition::from_cuts(even_cuts(g.num_vertices(), even.grid_rows()),
                                greedy_cuts(weights, even.grid_cols()));
  }
  if (kind != PartitionKind::DegreeBalanced1D)
    return Partition(kind, g.num_vertices(), ranks);
  // Weight vertex v by the modeled cost of its edge stream: each local edge
  // (v, j) contributes deg(v) + deg(j) — the linear-merge intersection
  // bound, which also tracks the fetch volume of adj(j). Balancing this
  // prefix sum balances both stream length and hub-row work; on an
  // all-equal degree sequence it degenerates to 2d^2 per vertex, i.e. the
  // plain |E|/p endpoint cut (== Block1D boundaries). DESIGN.md §8.
  std::vector<std::uint64_t> weights(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto dv = static_cast<std::uint64_t>(g.degree(v));
    std::uint64_t w = 0;
    for (const VertexId j : g.neighbors(v)) w += dv + g.degree(j);
    weights[v] = w;
  }
  return Partition::degree_balanced(weights, ranks);
}

const char* partition_kind_name(PartitionKind kind) {
  switch (kind) {
    case PartitionKind::Block1D:
      return "block1d";
    case PartitionKind::Cyclic1D:
      return "cyclic1d";
    case PartitionKind::DegreeBalanced1D:
      return "degree1d";
    case PartitionKind::Grid2D:
      return "grid2d";
  }
  return "unknown";
}

}  // namespace atlc::graph
