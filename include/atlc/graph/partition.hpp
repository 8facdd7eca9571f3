#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "atlc/graph/types.hpp"
#include "atlc/util/check.hpp"

namespace atlc::graph {

class CSRGraph;

/// Partitioning scheme for distributing vertices over ranks.
enum class PartitionKind : std::uint8_t {
  /// Paper Section III-A: contiguous blocks of n/p vertices per rank
  /// (V_k = (k-1)n/p .. kn/p]). Can be imbalanced on skewed graphs.
  Block1D,
  /// Cyclic distribution [Lumsdaine et al., HPEC'20]: owner = v mod p.
  /// Listed by the paper as the balance-improving alternative; implemented
  /// for the partitioning ablation.
  Cyclic1D,
  /// Skew-aware contiguous ranges cut by a degree prefix sum, so each rank
  /// owns an ~equal share of degree-weighted edge endpoints instead of
  /// ~|V|/p vertices. make_partition() weights every local edge (v, j) by
  /// deg(v) + deg(j) — the linear-merge intersection cost the engine
  /// charges — which balances both the rank's edge-stream length and the
  /// hub-row work that Block1D piles onto whichever rank owns the hubs.
  /// Requires the degree sequence at construction: use
  /// Partition::degree_balanced() or make_partition(). With an all-equal
  /// degree sequence the cuts coincide with Block1D exactly. DESIGN.md §8,
  /// docs/partitioning.md.
  DegreeBalanced1D,
  /// ROADMAP item 2 (Tom & Karypis, "A 2D Parallel Triangle Counting
  /// Algorithm"): ranks own *edge blocks* of a pr×pc grid over the vertex
  /// range instead of whole adjacency rows. Rank (r, c) — linearised as
  /// r*pc + c — stores, for every vertex in row block r, only the segment
  /// of its adjacency row whose neighbor ids fall in column block c. The
  /// row axis gets Block1D's even cuts (front-loaded remainder), and so
  /// does the column axis, except under upper-triangle TC, where
  /// make_partition() cuts the columns by trimmed intersection work.
  /// pr is the largest divisor of p with pr <= floor(sqrt(p)), pc = p/pr,
  /// so p = 8 -> 2x4, p = 12 -> 3x4, and prime p degrades to 1xp. The
  /// *home* rank of a vertex (owner()) is the diagonal-ish rank
  /// (row_block(v), col_block(v)) — the unique rank used for per-vertex
  /// bookkeeping; segment fetches resolve owners per (vertex, column
  /// block) via segment_owner(). DESIGN.md §10, docs/partitioning.md.
  Grid2D,
};

/// Maps global vertex ids to (rank, local index) and back. Every
/// contiguous kind is one cut table per axis: the row cuts split [0, n)
/// into row blocks (p of them on a 1D kind, pr on Grid2D) and the column
/// cuts into column blocks (pc on Grid2D, the single block {0, n} on a 1D
/// kind). Rank r holds row block r / pc and column block r % pc. The kinds
/// differ only in how they cut: even cuts for Block1D and both Grid2D
/// axes, the degree-prefix greedy for DegreeBalanced1D and for the column
/// axis of an upper-triangle TC grid, given cuts for from_cuts(). Every
/// lookup is the same O(log p) search over one table
/// (the distributed inner loop calls segment_slot() per edge endpoint).
/// Cyclic1D, the one kind that is not contiguous, keeps its modular
/// arithmetic and has no row cuts.
class Partition {
 public:
  /// Block1D, Cyclic1D and Grid2D, whose cuts follow from n and p alone.
  /// DegreeBalanced1D needs the degree sequence: construct it with
  /// degree_balanced() or make_partition().
  Partition(PartitionKind kind, VertexId num_vertices, std::uint32_t ranks);

  /// DegreeBalanced1D factory: cut [0, n) into `ranks` contiguous ranges by
  /// greedy prefix sum over per-vertex weights — rank k takes vertices
  /// until its weight reaches ceil(remaining_weight / remaining_ranks).
  /// The greedy re-quota front-loads the remainder the same way Block1D
  /// does, so an all-equal weight sequence reproduces the Block1D
  /// boundaries exactly (and an all-zero tail degrades to vertex-count
  /// balance). Pass raw degrees for plain |E|/p endpoint balance, or the
  /// deg(v)+deg(j) edge weights make_partition() uses for work balance.
  [[nodiscard]] static Partition degree_balanced(
      std::span<const std::uint64_t> weights, std::uint32_t ranks);
  /// Convenience overload for a plain degree sequence.
  [[nodiscard]] static Partition degree_balanced(
      std::span<const VertexId> degrees, std::uint32_t ranks);

  /// A partition from explicit cuts. With only row cuts it is 1D: rank r
  /// owns [cuts[r], cuts[r+1]), so p = cuts.size() - 1 and n = cuts.back(),
  /// and its kind is DegreeBalanced1D, the kind of every uneven 1D split;
  /// degree_balanced() ends here, and so do TriC's edge-balanced blocks.
  /// With column cuts too it is a Grid2D of pr = cuts.size() - 1 rows and
  /// pc = col_cuts.size() - 1 columns (p = pr * pc), the grid that
  /// make_partition() cuts for upper-triangle TC. Every table must start
  /// at 0 and never decrease (equal cuts leave a block empty), and both
  /// must end at the same n.
  [[nodiscard]] static Partition from_cuts(std::vector<VertexId> cuts,
                                           std::vector<VertexId> col_cuts = {});

  [[nodiscard]] PartitionKind kind() const { return kind_; }
  [[nodiscard]] VertexId num_vertices() const { return n_; }
  [[nodiscard]] std::uint32_t num_ranks() const { return p_; }

  /// Grid shape (1x1 for every 1D kind, pr x pc for Grid2D).
  [[nodiscard]] std::uint32_t grid_rows() const { return grid_rows_; }
  [[nodiscard]] std::uint32_t grid_cols() const { return grid_cols_; }
  /// Grid coordinates of a linearised rank id (rank = row * pc + col). On
  /// a 1D kind grid_col is 0 and grid_row is the rank itself.
  [[nodiscard]] std::uint32_t grid_row(std::uint32_t rank) const {
    return rank / grid_cols_;
  }
  [[nodiscard]] std::uint32_t grid_col(std::uint32_t rank) const {
    return rank % grid_cols_;
  }

  /// Number of column blocks each adjacency row is split into. 1 for every
  /// 1D kind — the seam callers use to treat a whole row as the single
  /// segment and keep the 1D fast paths bit-identical.
  [[nodiscard]] std::uint32_t col_blocks() const { return grid_cols_; }

  /// Column block containing global vertex id v (always 0 for 1D kinds).
  [[nodiscard]] std::uint32_t col_block_of(VertexId v) const {
    ATLC_DCHECK(v < n_, "vertex out of range");
    return cut_index(col_cuts_, v);
  }

  /// Half-open global-id range [first, last) of column block b. For 1D
  /// kinds block 0 covers the whole vertex range.
  [[nodiscard]] std::pair<VertexId, VertexId> col_block_range(
      std::uint32_t b) const {
    ATLC_DCHECK(b < grid_cols_, "column block out of range");
    return {col_cuts_[b], col_cuts_[b + 1]};
  }

  /// The part of a sorted adjacency row whose ids fall in column block b
  /// (the whole row on a 1D kind): the segment the rank in column b
  /// stores.
  [[nodiscard]] std::span<const VertexId> row_segment(
      std::span<const VertexId> row, std::uint32_t b) const {
    const auto [lo, hi] = col_block_range(b);
    const auto first = std::lower_bound(row.begin(), row.end(), lo);
    return {first, std::lower_bound(first, row.end(), hi)};
  }

  /// Where the column-block-b segment of v's adjacency row lives: its
  /// rank and v's row slot there. One row-block search serves both, so a
  /// fetch (which needs both) pays one.
  struct Slot {
    std::uint32_t rank;
    VertexId local;
  };
  [[nodiscard]] Slot segment_slot(VertexId v, std::uint32_t b) const {
    ATLC_DCHECK(v < n_ && b < grid_cols_, "segment out of range");
    if (kind_ == PartitionKind::Cyclic1D) return {v % p_, v / p_};
    const std::uint32_t r = cut_index(row_cuts_, v);
    return {r * grid_cols_ + b, v - row_cuts_[r]};
  }

  /// Rank storing the column-block-b segment of v's adjacency row. For 1D
  /// kinds (b == 0) this is owner(v): whole rows live on the vertex owner.
  [[nodiscard]] std::uint32_t segment_owner(VertexId v,
                                            std::uint32_t b) const {
    return segment_slot(v, b).rank;
  }

  /// Rank storing the segment of u's row that would contain neighbor v,
  /// i.e. the owner of edge slot (u, v) under the 2D grid. Degrades to
  /// owner(u) for 1D kinds.
  [[nodiscard]] std::uint32_t edge_owner(VertexId u, VertexId v) const {
    return segment_owner(u, col_block_of(v));
  }

  /// Owning rank of a global vertex. Under Grid2D this is the vertex's
  /// *home* rank (row_block(v), col_block(v)) — the unique rank charged
  /// with per-vertex bookkeeping (adjudication, hub skip pricing); note
  /// the home rank's stored segment is just one slice of v's row.
  [[nodiscard]] std::uint32_t owner(VertexId v) const {
    return edge_owner(v, v);
  }

  /// Number of local row slots on `rank`: the size of its row block.
  /// Under Grid2D every rank of grid row r holds a (segment) slot for each
  /// vertex of row block r, so the pc ranks of a grid row report the same
  /// size. Cyclic1D gives the first n%p ranks one extra vertex, as the
  /// even cuts of Block1D do.
  [[nodiscard]] VertexId part_size(std::uint32_t rank) const {
    ATLC_DCHECK(rank < p_, "rank out of range");
    if (kind_ == PartitionKind::Cyclic1D)
      return n_ / p_ + (rank < n_ % p_ ? 1 : 0);
    const std::uint32_t r = grid_row(rank);
    return row_cuts_[r + 1] - row_cuts_[r];
  }

  /// First global vertex owned by `rank` (contiguous kinds only; under
  /// Grid2D: first vertex of the rank's row block).
  [[nodiscard]] VertexId block_begin(std::uint32_t rank) const {
    ATLC_CHECK(kind_ != PartitionKind::Cyclic1D,
               "block_begin: contiguous kinds only");
    ATLC_DCHECK(rank < p_, "rank out of range");
    return row_cuts_[grid_row(rank)];
  }

  /// Local index of global vertex v on its owner rank (the same row slot
  /// on every rank of its grid row).
  [[nodiscard]] VertexId local_index(VertexId v) const {
    return segment_slot(v, 0).local;
  }

  /// Global id of local index `l` on `rank`.
  [[nodiscard]] VertexId global_id(std::uint32_t rank, VertexId l) const {
    ATLC_DCHECK(rank < p_, "rank out of range");
    if (kind_ == PartitionKind::Cyclic1D) return l * p_ + rank;
    return row_cuts_[grid_row(rank)] + l;
  }

 private:
  /// Index of the block of `cuts` that holds v: the number of cuts after
  /// the first that are <= v (std::upper_bound's answer). Equal cuts
  /// (empty blocks) are skipped, so a vertex on a cut belongs to the block
  /// that starts there. The halving step is a conditional move, not a
  /// branch: the ids a fetch looks up are close to random, and
  /// std::upper_bound's mispredicted branches made it 2-4x slower than
  /// this loop (x86-64, GCC 12, -O2).
  [[nodiscard]] static std::uint32_t cut_index(
      const std::vector<VertexId>& cuts, VertexId v) {
    const VertexId* const first = cuts.data() + 1;
    const VertexId* base = first;
    for (std::size_t len = cuts.size() - 1; len > 1;) {
      const std::size_t half = len / 2;
      base = base[half] <= v ? base + half : base;
      len -= half;
    }
    return static_cast<std::uint32_t>(base - first) + (*base <= v ? 1 : 0);
  }
  PartitionKind kind_;
  VertexId n_;
  std::uint32_t p_;
  std::uint32_t grid_rows_ = 1;  ///< pr (Grid2D; 1 for 1D kinds)
  std::uint32_t grid_cols_ = 1;  ///< pc (Grid2D; 1 for 1D kinds)
  /// Row-block boundaries: p+1 on a contiguous 1D kind, pr+1 on Grid2D,
  /// empty on Cyclic1D.
  std::vector<VertexId> row_cuts_;
  /// Column-block boundaries: pc+1 on Grid2D, {0, n} on every 1D kind.
  std::vector<VertexId> col_cuts_;
};

/// Build a partition of `g` for `ranks`: even cuts for Block1D and Grid2D,
/// modular for Cyclic1D, degree-prefix-sum cuts (fed from g's degree
/// sequence) for DegreeBalanced1D. The one entry point for a kind chosen
/// at run time.
///
/// `upper_triangle` tells a Grid2D build that the run counts only common
/// neighbors above each edge's j (paper Section II-C). Rank (r, c) then
/// works only in column blocks b >= c, and column 0 would carry most of
/// the work under even cuts, so the column axis is cut by the same greedy
/// as DegreeBalanced1D over each column vertex j's trimmed work
///   w(j) = sum_{v : j in adj(v)} |adj(v) ∩ (j, n)| + deg(j) * |adj(j) ∩ (j, n)|,
/// the two suffix_above lengths of every edge (v, j). The row axis keeps
/// its even cuts, and every other kind ignores the flag. DESIGN.md §10.
[[nodiscard]] Partition make_partition(const CSRGraph& g, PartitionKind kind,
                                       std::uint32_t ranks,
                                       bool upper_triangle = false);

/// Human-readable kind name ("block1d" / "cyclic1d" / "degree1d" /
/// "grid2d"), the spelling the CLI and the bench JSON use.
[[nodiscard]] const char* partition_kind_name(PartitionKind kind);

}  // namespace atlc::graph
