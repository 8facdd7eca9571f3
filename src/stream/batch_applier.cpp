#include "atlc/stream/batch_applier.hpp"

#include <algorithm>
#include <map>

#include "atlc/util/check.hpp"

namespace atlc::stream {

namespace {

/// Wire format of one adjudicated op: (a, b, op) as three uint32 words on
/// the all_to_all substrate.
constexpr std::size_t kOpWords = 3;

}  // namespace

std::vector<graph::VertexId> touched_vertices(const EffectiveBatch& eff) {
  std::vector<graph::VertexId> out;
  out.reserve(eff.ops.size() * 2);
  for (const CanonicalUpdate& op : eff.ops) {
    out.push_back(op.a);
    out.push_back(op.b);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

EffectiveBatch BatchApplier::adjudicate(const Batch& batch) {
  const auto& part = dg_->partition;
  const std::uint32_t p = ctx_->num_ranks();
  const std::vector<CanonicalUpdate> ops = normalize(batch);

  // Adjudicate the ops this rank owns: the owner of edge slot (a, b) —
  // under a 2D partition the rank storing the column-block segment of a's
  // row that would contain b (its sorted segment answers presence in one
  // binary search); on 1D partitions edge_owner degrades to owner(a), the
  // original whole-row adjudicator.
  std::vector<CanonicalUpdate> mine;
  double probe_seconds = 0.0;
  for (const CanonicalUpdate& op : ops) {
    if (part.edge_owner(op.a, op.b) != ctx_->rank()) continue;
    const auto row = dg_->local_neighbors(part.local_index(op.a));
    const bool present = std::binary_search(row.begin(), row.end(), op.b);
    probe_seconds += config_->cost.seconds_probes(1, row.size());
    const bool effective = (op.op == Op::Delete) ? present : !present;
    if (effective) mine.push_back(op);
  }
  ctx_->charge_compute(probe_seconds);

  // Replicate the verdicts: every rank needs the full effective sets (for
  // row rebuilds of the second endpoint and for the min-new-edge triangle
  // attribution), so each rank broadcasts its adjudications to all peers.
  std::vector<std::vector<std::uint32_t>> out(p);
  for (std::uint32_t dst = 0; dst < p; ++dst) {
    if (dst == ctx_->rank()) continue;
    out[dst].reserve(mine.size() * kOpWords);
    for (const CanonicalUpdate& op : mine) {
      out[dst].push_back(op.a);
      out[dst].push_back(op.b);
      out[dst].push_back(static_cast<std::uint32_t>(op.op));
    }
  }
  const auto in = ctx_->all_to_all(out);

  EffectiveBatch eff;
  eff.ops = std::move(mine);
  for (std::uint32_t src = 0; src < p; ++src) {
    if (src == ctx_->rank()) continue;
    ATLC_CHECK(in[src].size() % kOpWords == 0, "stream: bad op payload");
    for (std::size_t i = 0; i < in[src].size(); i += kOpWords)
      eff.ops.push_back({in[src][i], in[src][i + 1],
                         static_cast<Op>(in[src][i + 2])});
  }
  // Each canonical edge was adjudicated by exactly one rank, so the merged
  // list has no duplicates; sorting makes every rank's view identical.
  std::sort(eff.ops.begin(), eff.ops.end());
  return eff;
}

std::uint64_t BatchApplier::apply_to_rows(const EffectiveBatch& eff) {
  const auto& part = dg_->partition;

  // Gather the per-local-row change lists (an undirected edge touches the
  // rows of BOTH endpoints; either or both may be local). Ownership is per
  // edge SLOT, not per row: under a 2D partition only the rank storing the
  // (row, neighbor-column-block) segment rebuilds it — the touched-row
  // refresh is segment-granular, and sibling ranks of the grid row leave
  // their other segments untouched. 1D degrades to the whole-row rule.
  std::map<VertexId, std::vector<std::pair<VertexId, Op>>> touched;
  auto note = [&](VertexId owner_v, VertexId nbr, Op op) {
    if (part.edge_owner(owner_v, nbr) != ctx_->rank()) return;
    touched[part.local_index(owner_v)].push_back({nbr, op});
  };
  for (const CanonicalUpdate& op : eff.ops) {
    note(op.a, op.b, op.op);
    note(op.b, op.a, op.op);
  }
  // Globally empty batches never reach this point (the engine gates on
  // eff.empty(), so all ranks agree — the effective sets are replicated).
  // A rank with nothing local to rebuild still participates in the
  // collective refresh below.
  ATLC_CHECK(!eff.empty(), "apply_to_rows on an empty effective batch");

  // Rebuild: merge each touched row against its sorted change list, then
  // re-lay the flat CSR arrays. Only touched rows are recomputed; untouched
  // rows are block-copied. The virtual clock is charged for the bytes of
  // the rows actually rewritten (a chunked layout could avoid the copy of
  // untouched rows, so their movement is not priced — DESIGN.md §7).
  std::map<VertexId, std::vector<VertexId>> new_rows;
  std::uint64_t rebuilt_bytes = 0;
  for (auto& [lv, changes] : touched) {
    const auto old_row = dg_->local_neighbors(lv);
    std::vector<VertexId> row(old_row.begin(), old_row.end());
    for (const auto& [nbr, op] : changes) {
      auto it = std::lower_bound(row.begin(), row.end(), nbr);
      if (op == Op::Insert) {
        ATLC_DCHECK(it == row.end() || *it != nbr,
                    "stream: effective insert of a present edge");
        row.insert(it, nbr);
      } else {
        ATLC_DCHECK(it != row.end() && *it == nbr,
                    "stream: effective delete of an absent edge");
        row.erase(it);
      }
    }
    rebuilt_bytes += (old_row.size() + row.size()) * sizeof(VertexId);
    new_rows.emplace(lv, std::move(row));
  }

  if (!new_rows.empty()) {
    const VertexId n_local = dg_->num_local();
    std::vector<graph::EdgeIndex> offsets;
    std::vector<VertexId> adjacencies;
    offsets.reserve(n_local + 1);
    adjacencies.reserve(dg_->adjacencies.size());
    offsets.push_back(0);
    for (VertexId lv = 0; lv < n_local; ++lv) {
      if (const auto it = new_rows.find(lv); it != new_rows.end()) {
        adjacencies.insert(adjacencies.end(), it->second.begin(),
                           it->second.end());
      } else {
        const auto row = dg_->local_neighbors(lv);
        adjacencies.insert(adjacencies.end(), row.begin(), row.end());
      }
      offsets.push_back(adjacencies.size());
    }
    ctx_->charge_compute(ctx_->net().time_local(
        rebuilt_bytes + new_rows.size() * sizeof(graph::EdgeIndex)));
    dg_->offsets = std::move(offsets);
    dg_->adjacencies = std::move(adjacencies);
  }

  // Replica maintenance (DESIGN.md §8): every rank holds the full effective
  // sets (they rode the verdict all_to_all above — no extra traffic), so
  // each rank folds the ops touching a hub into its own replica copy here,
  // inside the same collective step that republishes the windows. Reads of
  // the pre-batch state stopped at the caller's barrier and resume only
  // after the epoch-bumping refresh below, so replica and windows advance
  // together: a hub row can never be observed at a different batch state
  // than the owner's row behind the window.
  if (!dg_->hubs.empty()) {
    std::uint64_t replica_bytes = 0;
    for (const CanonicalUpdate& op : eff.ops) {
      const bool insert = op.op == Op::Insert;
      replica_bytes += dg_->hubs.apply(op.a, op.b, insert);
      replica_bytes += dg_->hubs.apply(op.b, op.a, insert);
    }
    if (replica_bytes > 0)
      ctx_->charge_compute(ctx_->net().time_local(replica_bytes));
  }

  // Republish: collective fences inside refresh_window order the swap
  // against every peer's reads and advance both window epochs, which is
  // what invalidates CLaMPI entries fetched from the pre-batch exposure.
  ctx_->refresh_window(dg_->w_offsets, std::span<const graph::EdgeIndex>(
                                           dg_->offsets));
  ctx_->refresh_window(dg_->w_adj,
                       std::span<const VertexId>(dg_->adjacencies));
  return new_rows.size();
}

}  // namespace atlc::stream
