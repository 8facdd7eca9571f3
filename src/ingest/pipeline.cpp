#include "atlc/ingest/pipeline.hpp"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "atlc/graph/clean.hpp"
#include "atlc/graph/io.hpp"
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

/// What for_each_clean's filter dropped.
struct Dropped {
  std::uint64_t self_loops = 0;
  std::uint64_t duplicates = 0;
};

/// Replay `sorter`'s merged stream with the dedup/self-loop filter applied
/// (the fused remove_self_loops + sort_and_dedup of graph::clean),
/// visiting surviving edges in strictly increasing order.
template <typename Visit>
Dropped for_each_clean(const ExternalEdgeSorter& sorter, Visit&& visit) {
  Dropped dropped;
  Edge prev{0, 0};
  bool first = true;
  sorter.for_each_sorted([&](const Edge& e) {
    if (e.u == e.v) {
      ++dropped.self_loops;
      return;
    }
    if (!first && e == prev) {
      ++dropped.duplicates;
      return;
    }
    prev = e;
    first = false;
    visit(e);
  });
  return dropped;
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
  // The degrees graph::clean_ids takes: out-degree on the symmetrized
  // undirected stream, in + out on a directed one.
  tracer.begin("merge_degree");
  util::Timer merge_timer;
  std::vector<VertexId> degree(n0, 0);
  std::uint64_t m_clean = 0;
  const Dropped dropped = for_each_clean(raw, [&](const Edge& e) {
    ++m_clean;
    ++degree[e.u];
    if (opt.directedness == Directedness::Directed) ++degree[e.v];
  });
  rep.self_loops_removed = dropped.self_loops;
  rep.duplicates_removed = dropped.duplicates;
  tracer.end("merge_degree");
  tracer.begin("map_relabel");

  // Section II-B's vertex policy, shared with graph::clean: one degree<2
  // pass, then the seeded relabel (RelabelMode::Random; seed 0 = none).
  std::vector<VertexId> ids = graph::clean_ids(
      degree, {.remove_degree_lt2 = opt.remove_degree_lt2,
               .relabel_seed = opt.relabel == RelabelMode::Random
                                   ? opt.relabel_seed
                                   : 0});
  const auto n1 = static_cast<VertexId>(
      n0 - std::count(ids.begin(), ids.end(), graph::kRemovedVertex));
  rep.vertices_removed = n0 - n1;
  rep.num_vertices = n1;
  if (opt.relabel == RelabelMode::DegreeDescending) {
    // Re-rank the survivors by descending pre-filter degree (the stable
    // choice, and what a DODG orientation wants), ties by id, i.e. by
    // first appearance.
    std::vector<VertexId> order;
    order.reserve(n1);
    for (VertexId v = 0; v < n0; ++v)
      if (ids[v] != graph::kRemovedVertex) order.push_back(v);
    std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
      return degree[a] != degree[b] ? degree[a] > degree[b] : a < b;
    });
    for (VertexId i = 0; i < n1; ++i) ids[order[i]] = i;
  }

  // ---- Pass B: map every surviving edge through `ids` and re-sort (the
  // relabel scrambles lexicographic order). ------------------------------
  ExternalEdgeSorter mapped(prefix + ".mapped", opt.mem_budget_bytes,
                            threads);
  {
    std::vector<Edge> batch;
    batch.reserve(std::size_t{1} << 15);
    for_each_clean(raw, [&](const Edge& e) {
      const Edge fe{ids[e.u], ids[e.v]};
      if (fe.u == graph::kRemovedVertex || fe.v == graph::kRemovedVertex)
        return;
      batch.push_back(fe);
      if (batch.size() == batch.capacity()) {
        mapped.add(batch);
        batch.clear();
      }
    });
    mapped.add(batch);
  }
  // Drop stage-A storage before stage B's spill replays peak; capture the
  // stats first (clear() resets the run list).
  rep.spill_runs = raw.spill_runs();
  rep.sort_seconds = raw.sort_seconds();
  raw.clear();
  mapped.finish();
  rep.merge_seconds = merge_timer.elapsed_s() - mapped.sort_seconds();
  tracer.end("map_relabel");

  // ---- Stage 3: emit the snapshot. --------------------------------------
  tracer.begin("write_snapshot");
  util::Timer write_timer;
  {
    SnapshotWriter writer(output, n1, opt.directedness);
    mapped.for_each_sorted([&](const Edge& e) { writer.append(e); });
    writer.finalize();
    rep.num_edges = writer.num_edges();
    rep.edge_checksum = writer.edge_checksum();
    rep.degree_checksum = writer.degree_checksum();
  }
  rep.write_seconds = write_timer.elapsed_s();
  tracer.end("write_snapshot");
  tracer.unbind();
  ATLC_CHECK(rep.vertices_removed != 0 || rep.num_edges == m_clean,
             "with no vertex removed, every cleaned edge must be emitted");

  rep.spill_runs += mapped.spill_runs();
  rep.sort_seconds += mapped.sort_seconds();
  rep.parse_sort_seconds = rep.parse_seconds + rep.sort_seconds;
  rep.snapshot_bytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(output));
  rep.peak_rss_bytes = util::peak_rss_bytes();
  rep.total_seconds = total.elapsed_s();
  return rep;
}

}  // namespace atlc::ingest
