#include "atlc/ingest/pipeline.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <vector>

#include "atlc/graph/io.hpp"
#include "atlc/graph/relabel.hpp"
#include "atlc/ingest/external_sorter.hpp"
#include "atlc/ingest/snapshot.hpp"
#include "atlc/obs/trace.hpp"
#include "atlc/util/check.hpp"
#include "atlc/util/recorder.hpp"
#include "atlc/util/timer.hpp"

#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
#include <omp.h>
#define ATLC_INGEST_OMP 1
#endif

namespace atlc::ingest {

namespace {

using graph::Directedness;

constexpr VertexId kRemoved = static_cast<VertexId>(-1);

int resolve_threads(int requested) {
#ifdef ATLC_INGEST_OMP
  return requested > 0 ? requested : omp_get_max_threads();
#else
  return requested > 0 ? requested : 1;
#endif
}

std::string tmp_prefix(const std::string& output, const std::string& tmp_dir) {
  if (tmp_dir.empty()) return output + ".tmp";
  const std::filesystem::path out(output);
  return (std::filesystem::path(tmp_dir) / out.filename()).string() + ".tmp";
}

/// Stage-1 text ingest: chunked read, parallel parse, sequential intern in
/// chunk order (first-appearance compaction must be order-deterministic),
/// edges pushed into the raw sorter. Undirected input is symmetrized here —
/// both orientations enter the sort, exactly like EdgeList::symmetrize()
/// after load_text_edges().
void ingest_text(const std::string& input, const IngestOptions& opt,
                 int threads, ExternalEdgeSorter& sorter, IngestReport& rep) {
  graph::ChunkReader reader(input, opt.chunk_bytes);
  graph::IdInterner intern(reader.file_bytes(), opt.max_vertices, input);
  const bool symmetrize = opt.directedness == Directedness::Undirected;

  std::vector<graph::TextChunk> chunks(static_cast<std::size_t>(threads));
  std::vector<std::vector<graph::RawPair>> pairs(chunks.size());
  std::vector<std::size_t> chunk_lines(chunks.size());
  std::vector<Edge> batch;
  for (;;) {
    std::size_t live = 0;
    while (live < chunks.size() && reader.next(chunks[live])) ++live;
    if (live == 0) break;
#ifdef ATLC_INGEST_OMP
#pragma omp parallel for num_threads(threads) schedule(dynamic, 1)
#endif
    for (std::size_t c = 0; c < live; ++c) {
      pairs[c].clear();
      chunk_lines[c] = graph::parse_text_chunk(chunks[c].data, pairs[c]);
    }
    batch.clear();
    for (std::size_t c = 0; c < live; ++c) {
      rep.lines += chunk_lines[c];
      rep.pairs_parsed += pairs[c].size();
      for (const graph::RawPair& p : pairs[c]) {
        // Braced init evaluates left to right: intern(a) before intern(b),
        // load_text_edges' first-appearance order.
        const Edge e{intern(p.a), intern(p.b)};
        batch.push_back(e);
        if (symmetrize && e.u != e.v) batch.push_back({e.v, e.u});
      }
    }
    sorter.add(batch);
  }
  rep.bytes_read = reader.bytes_read();
  rep.raw_edges = sorter.total_edges();
  rep.vertices_in = intern.size();
}

/// Replay `sorter`'s merged stream with the dedup/self-loop filter applied
/// (the fused sort_and_dedup + remove_self_loops), visiting surviving edges
/// in strictly increasing order.
template <typename Visit>
void for_each_clean(const ExternalEdgeSorter& sorter, Visit&& visit) {
  Edge prev{0, 0};
  bool first = true;
  sorter.for_each_sorted([&](const Edge& e) {
    if (e.u == e.v) return;
    if (!first && e == prev) return;
    prev = e;
    first = false;
    visit(e);
  });
}

}  // namespace

IngestReport run_ingest(const std::string& input, const std::string& output,
                        const IngestOptions& opt) {
  util::Timer total;
  IngestReport rep;
  graph::require_text(input);

  const int threads = resolve_threads(opt.num_threads);
  const std::string prefix = tmp_prefix(output, opt.tmp_dir);

  // Stage spans recorded as rank 0 against a WALL clock — ingest has no
  // virtual time, so these traces are machine-dependent by construction
  // (IngestOptions::trace). Unbound when tracing is off: zero overhead.
  obs::Tracer tracer;
  if (opt.trace != nullptr) {
    opt.trace->prepare(1);
    tracer.bind(
        opt.trace, 0,
        [](const void* t) {
          return static_cast<const util::Timer*>(t)->elapsed_s();
        },
        &total);
  }

  // ---- Stage 1: stream the input into the raw external sorter. ----------
  tracer.begin("read_parse");
  util::Timer parse_timer;
  ExternalEdgeSorter raw(prefix + ".raw", opt.mem_budget_bytes, threads);
  ingest_text(input, opt, threads, raw, rep);
  raw.finish();
  const double stage1_wall = parse_timer.elapsed_s();
  rep.parse_seconds = stage1_wall - raw.sort_seconds();
  tracer.end("read_parse");

  const VertexId n0 = rep.vertices_in;

  // ---- Pass A: merged replay -> dedup stats + degree counts. ------------
  // deg_filter replicates remove_low_degree_once's count (u always, v only
  // when directed).
  tracer.begin("merge_degree");
  util::Timer merge_timer;
  std::vector<VertexId> deg_filter(n0, 0);
  std::uint64_t m_clean = 0;
  {
    Edge prev{0, 0};
    bool first = true;
    raw.for_each_sorted([&](const Edge& e) {
      if (e.u == e.v) {
        ++rep.self_loops_removed;
        return;
      }
      if (!first && e == prev) {
        ++rep.duplicates_removed;
        return;
      }
      prev = e;
      first = false;
      ++m_clean;
      ++deg_filter[e.u];
      if (opt.directedness == Directedness::Directed) ++deg_filter[e.v];
    });
  }

  // Low-degree removal (one pass, matching CleanOptions defaults):
  // survivors renumbered in id order — remove_low_degree_once's `next++`.
  std::vector<VertexId> remap(n0, kRemoved);
  std::vector<VertexId> orig_of(n0);
  VertexId n1 = 0;
  for (VertexId v = 0; v < n0; ++v) {
    const bool keep = !opt.remove_degree_lt2 || deg_filter[v] >= 2;
    if (keep) {
      orig_of[n1] = v;
      remap[v] = n1++;
    }
  }
  orig_of.resize(n1);
  rep.vertices_removed = n0 - n1;
  rep.num_vertices = n1;
  tracer.end("merge_degree");
  tracer.begin("map_relabel");

  // Relabel permutation over the compacted survivor ids.
  std::vector<VertexId> perm;
  switch (opt.relabel) {
    case RelabelMode::None:
      break;
    case RelabelMode::Random:
      perm = graph::random_permutation(n1, opt.relabel_seed);
      break;
    case RelabelMode::DegreeDescending: {
      // Keyed on pre-filter degrees (the post-filter ones depend on which
      // edges survive, which depends on this very relabel for nothing —
      // ids never change degrees — but pre-filter is the stable choice and
      // is what a DODG orientation wants). Compact ids preserve original
      // id order, so comparing them breaks ties by first appearance.
      std::vector<VertexId> order(n1);
      std::iota(order.begin(), order.end(), VertexId{0});
      std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
        const VertexId da = deg_filter[orig_of[a]];
        const VertexId db = deg_filter[orig_of[b]];
        return da != db ? da > db : a < b;
      });
      perm.resize(n1);
      for (VertexId i = 0; i < n1; ++i) perm[order[i]] = i;
      break;
    }
  }

  // ---- Pass B: build the final sorted stream. ---------------------------
  // Identity fast path: nothing removed and no relabel means the clean
  // stream from pass A *is* the final stream — replay it instead of paying
  // a second sort. Otherwise map every surviving edge and re-sort (the
  // relabel scrambles lexicographic order).
  const bool identity = rep.vertices_removed == 0 && perm.empty();
  std::unique_ptr<ExternalEdgeSorter> mapped;
  if (!identity) {
    mapped = std::make_unique<ExternalEdgeSorter>(
        prefix + ".mapped", opt.mem_budget_bytes, threads);
    std::vector<Edge> batch;
    batch.reserve(std::size_t{1} << 15);
    for_each_clean(raw, [&](const Edge& e) {
      const VertexId cu = remap[e.u];
      const VertexId cv = remap[e.v];
      if (cu == kRemoved || cv == kRemoved) return;
      const Edge fe = perm.empty() ? Edge{cu, cv} : Edge{perm[cu], perm[cv]};
      batch.push_back(fe);
      if (batch.size() == batch.capacity()) {
        mapped->add(batch);
        batch.clear();
      }
    });
    mapped->add(batch);
    // Drop stage-A storage before stage B's spill replays peak; capture the
    // stats first (clear() resets the run list).
    rep.spill_runs = raw.spill_runs();
    rep.sort_seconds = raw.sort_seconds();
    raw.clear();
    mapped->finish();
  }
  rep.merge_seconds = merge_timer.elapsed_s() -
                      (identity ? 0.0 : mapped->sort_seconds());
  tracer.end("map_relabel");

  // ---- Stage 3: emit the snapshot. --------------------------------------
  tracer.begin("write_snapshot");
  util::Timer write_timer;
  {
    SnapshotWriter writer(output, n1, opt.directedness);
    const auto append = [&](const Edge& e) { writer.append(e); };
    if (identity)
      for_each_clean(raw, append);
    else
      mapped->for_each_sorted(append);
    writer.finalize();
    rep.num_edges = writer.num_edges();
    rep.edge_checksum = writer.edge_checksum();
    rep.degree_checksum = writer.degree_checksum();
  }
  rep.write_seconds = write_timer.elapsed_s();
  tracer.end("write_snapshot");
  tracer.unbind();
  ATLC_CHECK(!identity || rep.num_edges == m_clean,
             "identity path must emit every cleaned edge");

  if (identity) {
    rep.spill_runs = raw.spill_runs();
    rep.sort_seconds = raw.sort_seconds();
  } else {
    rep.spill_runs += mapped->spill_runs();
    rep.sort_seconds += mapped->sort_seconds();
  }
  rep.parse_sort_seconds = rep.parse_seconds + rep.sort_seconds;
  rep.snapshot_bytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(output));
  rep.peak_rss_bytes = util::peak_rss_bytes();
  rep.total_seconds = total.elapsed_s();
  return rep;
}

}  // namespace atlc::ingest
