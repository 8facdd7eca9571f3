#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>

#include "atlc/core/dist_graph.hpp"
#include "atlc/core/edge_pipeline.hpp"
#include "atlc/core/lcc.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/ingest/pipeline.hpp"
#include "atlc/ingest/snapshot.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/intersect/tiered.hpp"
#include "atlc/serve/query_engine.hpp"
#include "atlc/stream/update.hpp"
#include "inputs.hpp"

namespace bench {

void set_metric(std::vector<Metric>& metrics, std::string_view name,
                double value) {
  for (Metric& m : metrics)
    if (m.name == name) {
      m.value = value;
      return;
    }
  throw std::logic_error("metric " + std::string(name) +
                         " is not declared in BENCHMARK.json");
}

namespace {

using atlc::core::DistGraph;
using atlc::core::EdgePipeline;
using atlc::core::EngineConfig;
using atlc::graph::CSRGraph;
using atlc::graph::EdgeList;
using atlc::graph::Partition;
using atlc::graph::PartitionKind;
using atlc::graph::VertexId;
using atlc::rma::RankCtx;
using Row = std::span<const VertexId>;

constexpr unsigned kEdgeFactor = 16;
/// Smoke runs read graphs 2^4 times smaller than the full-size ones.
constexpr unsigned kSmokeScaleDrop = 4;
/// Vertex relabeling seed of the cleaning step (paper Section II-B). Fixed:
/// the --seed already varies the graph itself.
constexpr std::uint64_t kRelabelSeed = 1;
constexpr double kMiB = 1024.0 * 1024.0;

ServeStreamConfig serve_stream_config(bool smoke) {
  ServeStreamConfig c;
  if (smoke) {
    c.epochs = 2;
    c.queries_per_epoch = 256;
    c.batch_size = 64;
  }
  return c;
}

/// Serving answers checked against a from-scratch reference: every 16th
/// query in submission order.
constexpr std::uint64_t kServeCheckStride = 16;

std::string graph_path(const std::string& dir) { return dir + "/graph.txt"; }
std::string expected_path(const std::string& dir) {
  return dir + "/expected.txt";
}

using Scope = SpanRecorder::Scope;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Slowest rank over the mean rank (1 = balanced).
double imbalance(const std::vector<double>& per_rank) {
  if (per_rank.empty()) return 0.0;
  const double sum = std::accumulate(per_rank.begin(), per_rank.end(), 0.0);
  return ratio(*std::max_element(per_rank.begin(), per_rank.end()),
               sum / static_cast<double>(per_rank.size()));
}

/// Layer metrics every engine run reports the same way: RMA traffic, CLaMPI
/// counters and the pipeline's edge totals.
void fill_engine_stats(const atlc::core::EdgeAnalyticStats& s,
                       std::vector<Metric>& metrics) {
  const auto comm = s.run.total();
  set_metric(metrics, "core.imbalance_v", s.imbalance());
  set_metric(metrics, "core.edges", static_cast<double>(s.edges_processed));
  set_metric(metrics, "core.remote_edge_frac", s.remote_edge_fraction());
  set_metric(metrics, "rma.remote_gets", static_cast<double>(comm.remote_gets));
  set_metric(metrics, "rma.remote_mb", static_cast<double>(comm.remote_bytes) / kMiB);
  set_metric(metrics, "rma.comm_vs", comm.comm_seconds);
  set_metric(metrics, "rma.comm_share_v",
      ratio(comm.comm_seconds, comm.comm_seconds + comm.compute_seconds));
  set_metric(metrics, "intersect.compute_vs", comm.compute_seconds);
  const auto& adj = s.adj_cache_total;
  const auto& off = s.offsets_cache_total;
  set_metric(metrics, "clampi.adj_hit_rate", adj.hit_rate());
  set_metric(metrics, "clampi.offsets_hit_rate", off.hit_rate());
  set_metric(metrics, "clampi.evictions",
      static_cast<double>(adj.evictions_space + adj.evictions_conflict +
                          off.evictions_space + off.evictions_conflict));
  set_metric(metrics, "clampi.admission_rejects",
      static_cast<double>(adj.admission_rejects + off.admission_rejects));
  set_metric(metrics, "clampi.stale_evictions",
      static_cast<double>(adj.stale_evictions + off.stale_evictions));
}

/// Graph shape after cleaning, checked on every job of every workload.
Tally check_shape(const CSRGraph& g, const Expected& e) {
  const bool ok = g.num_vertices() == e.vertices && g.num_edges() == e.slots;
  if (!ok)
    std::fprintf(stderr,
                 "# wrong graph: %u vertices / %llu slots, expected %llu / "
                 "%llu\n",
                 g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
                 static_cast<unsigned long long>(e.vertices),
                 static_cast<unsigned long long>(e.slots));
  return {1, ok ? 0u : 1u};
}

EdgeList load_and_clean(const std::string& dir, SpanRecorder* spans) {
  EdgeList edges = [&] {
    Scope s(spans, "graph.load_text");
    return atlc::graph::load_text_edges(graph_path(dir),
                                        atlc::graph::Directedness::Undirected);
  }();
  Scope s(spans, "graph.clean");
  atlc::graph::clean(edges, {.relabel_seed = kRelabelSeed});
  return edges;
}

CSRGraph build_csr(const EdgeList& edges, SpanRecorder* spans) {
  Scope s(spans, "graph.csr_build");
  return CSRGraph::from_edges(edges);
}

/// One rank's intersection replay: pairs, Σ|a|+|b|, common neighbors.
struct RankLayer {
  std::uint64_t calls = 0;
  std::uint64_t elements = 0;
  std::uint64_t common = 0;
};

using FetchPass =
    std::function<void(RankCtx&, const DistGraph&, const EngineConfig&)>;
using ComputePass = std::function<void(RankCtx&, const DistGraph&)>;
using ReplayPass = std::function<RankLayer(std::uint32_t, const DistGraph&)>;

/// Per-rank host cost of the layers below the solve: window setup, a
/// fetch-only pipeline pass (host cost of fetcher + CLaMPI + RMA), the
/// per-rank compute, and a replay of the rank's exact intersection pairs
/// through the workload's kernel entry point. The fetch pass runs with
/// `config` and, when that caches, once more uncached. Barriers separate
/// the phases, so no rank's span overlaps another phase on a sibling rank.
/// `compute` may be empty: the 2D TC path has no per-rank entry point.
std::vector<RankLayer> probe_ranks(SpanRecorder& spans, const CSRGraph& g,
                                   const Partition& part,
                                   const EngineConfig& config,
                                   const FetchPass& fetch,
                                   const ComputePass& compute,
                                   const ReplayPass& replay) {
  std::vector<RankLayer> out(kRanks);
  const int probe = spans.begin("layer_probe");
  atlc::rma::Runtime::Options opts;
  opts.ranks = kRanks;
  (void)atlc::rma::Runtime::run(opts, [&](RankCtx& ctx) {
    const std::uint32_t r = ctx.rank();
    const DistGraph dg = [&] {
      Scope s(&spans, "core.build_dist_graph", r, probe);
      return atlc::core::build_dist_graph(ctx, g, part, nullptr,
                                          config.slice_source);
    }();
    ctx.barrier();
    {
      Scope s(&spans, "core.fetch", r, probe);
      fetch(ctx, dg, config);
    }
    ctx.barrier();
    if (config.use_cache) {
      EngineConfig uncached = config;
      uncached.use_cache = false;
      Scope s(&spans, "core.fetch_uncached", r, probe);
      fetch(ctx, dg, uncached);
    }
    ctx.barrier();
    if (compute) {
      Scope s(&spans, "core.compute", r, probe);
      compute(ctx, dg);
    }
    ctx.barrier();
    {
      Scope s(&spans, "intersect.replay", r, probe);
      out[r] = replay(r, dg);
    }
    ctx.barrier();  // windows stay exposed until every rank is done
  });
  spans.end(probe);
  return out;
}

/// Metrics every workload derives from its probe the same way.
void fill_probe_metrics(const SpanRecorder& spans,
                        const std::vector<RankLayer>& ranks, bool cached,
                        std::vector<Metric>& metrics) {
  set_metric(metrics, "core.build_dist_graph_s",
             spans.max_seconds("core.build_dist_graph"));
  set_metric(metrics, "core.fetch_s", spans.max_seconds("core.fetch"));
  set_metric(metrics, "clampi.host_overhead_s",
             cached ? spans.max_seconds("core.fetch") -
                          spans.max_seconds("core.fetch_uncached")
                    : 0.0);
  if (!spans.durations("core.compute").empty()) {
    set_metric(metrics, "core.compute_s", spans.max_seconds("core.compute"));
    set_metric(metrics, "core.wall_imbalance",
               imbalance(spans.durations("core.compute")));
  }
  RankLayer sum;
  for (const RankLayer& r : ranks) {
    sum.calls += r.calls;
    sum.elements += r.elements;
  }
  const double replay_s = spans.max_seconds("intersect.replay");
  set_metric(metrics, "intersect.s", replay_s);
  set_metric(metrics, "intersect.calls", static_cast<double>(sum.calls));
  set_metric(metrics, "intersect.elements", static_cast<double>(sum.elements));
  set_metric(metrics, "intersect.melem_per_s",
             ratio(static_cast<double>(sum.elements) / 1e6, replay_s));
}

/// The replay must count what the engine counted, or it replayed other
/// pairs than the engine intersected.
Tally check_replay(const std::vector<RankLayer>& ranks,
                   std::uint64_t expected_common) {
  std::uint64_t common = 0;
  for (const RankLayer& r : ranks) common += r.common;
  if (common != expected_common)
    std::fprintf(stderr, "# intersection replay counted %llu, expected %llu\n",
                 static_cast<unsigned long long>(common),
                 static_cast<unsigned long long>(expected_common));
  return {1, common == expected_common ? 0u : 1u};
}

/// Base class of the three static analytics (LCC cached/uncached, 2D TC).
class StaticWorkload : public Workload {
 public:
  explicit StaticWorkload(std::string dir)
      : dir_(std::move(dir)), expected_(read_expected(expected_path(dir_))) {}

  [[nodiscard]] double makespan() const override {
    return result_.run.makespan;
  }

  void reset() override {
    g_ = CSRGraph();
    result_ = atlc::core::RunResult();
  }

 protected:
  std::string dir_;
  Expected expected_;
  CSRGraph g_;
  EngineConfig config_;
  atlc::core::RunResult result_;
};

/// R-MAT S16 → text loader + clean + CSR → run_distributed_lcc on Block1D,
/// with CLaMPI caching on or off.
class LccWorkload final : public StaticWorkload {
 public:
  LccWorkload(std::string dir, bool cached)
      : StaticWorkload(std::move(dir)), cached_(cached) {}

  void setup(SpanRecorder* spans) override {
    const EdgeList edges = load_and_clean(dir_, spans);
    g_ = build_csr(edges, spans);
    config_ = EngineConfig{};
    if (cached_) {
      // The atlc_run --cache defaults: degree scores, half the CSR size.
      config_.use_cache = true;
      config_.cache_sizing = atlc::core::CacheSizing::paper_default(
          g_.num_vertices(), g_.csr_bytes() / 2);
      config_.victim_policy = atlc::clampi::VictimPolicy::UserScore;
    }
  }

  void solve(SpanRecorder* spans) override {
    Scope s(spans, "solve");
    result_ = atlc::core::run_distributed_lcc(g_, kRanks, config_);
  }

  [[nodiscard]] Tally check() const override {
    Tally t = check_shape(g_, expected_);
    std::vector<std::pair<std::uint32_t, std::uint64_t>> got;
    got.reserve(g_.num_vertices());
    std::uint64_t bad_lcc = 0;
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      const std::uint32_t d = g_.degree(v);
      const std::uint64_t tv = result_.triangles[v];
      got.emplace_back(d, tv);
      const double want =
          d < 2 ? 0.0
                : static_cast<double>(tv) /
                      (static_cast<double>(d) * (static_cast<double>(d) - 1.0));
      if (result_.lcc[v] != want) ++bad_lcc;
    }
    std::sort(got.begin(), got.end());
    const auto& want = expected_.degree_t;
    std::uint64_t wrong = got.size() > want.size() ? got.size() - want.size()
                                                   : want.size() - got.size();
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
      if (got[i] != want[i]) ++wrong;
    wrong = std::max(wrong, bad_lcc);
    if (result_.global_triangles != expected_.triangles)
      wrong = std::max<std::uint64_t>(wrong, 1);
    if (wrong != 0)
      std::fprintf(stderr,
                   "# lcc: %llu wrong vertices, %llu triangles (expected "
                   "%llu), digest %016llx (expected %016llx)\n",
                   static_cast<unsigned long long>(wrong),
                   static_cast<unsigned long long>(result_.global_triangles),
                   static_cast<unsigned long long>(expected_.triangles),
                   static_cast<unsigned long long>(digest(got)),
                   static_cast<unsigned long long>(digest(want)));
    t += Tally{std::max<std::uint64_t>(want.size(), 1), wrong};
    return t;
  }

  Tally layers(SpanRecorder& spans, double /*solve_median*/,
               std::vector<Metric>& metrics) override {
    const auto part = [&] {
      Scope s(&spans, "graph.partition");
      return atlc::graph::make_partition(g_, PartitionKind::Block1D, kRanks);
    }();
    const auto ranks = probe_ranks(
        spans, g_, part, config_,
        [](RankCtx& ctx, const DistGraph& dg, const EngineConfig& cfg) {
          EdgePipeline(ctx, dg, cfg).run([](VertexId, VertexId, Row, Row) {});
        },
        [&](RankCtx& ctx, const DistGraph& dg) {
          EdgePipeline pipeline(ctx, dg, config_);
          (void)atlc::core::compute_lcc_rank(ctx, dg, config_, pipeline);
        },
        [&](std::uint32_t, const DistGraph& dg) {
          // Whole rows through count_common, the Paper-tier entry point.
          RankLayer out;
          for (VertexId lv = 0; lv < dg.num_local(); ++lv) {
            const Row adj_v = dg.local_neighbors(lv);
            for (const VertexId j : adj_v) {
              const Row adj_j = g_.neighbors(j);
              out.common +=
                  atlc::intersect::count_common(adj_v, adj_j, config_.method);
              ++out.calls;
              out.elements += adj_v.size() + adj_j.size();
            }
          }
          return out;
        });
    fill_engine_stats(result_, metrics);
    fill_probe_metrics(spans, ranks, config_.use_cache, metrics);
    return check_replay(ranks, 6 * expected_.triangles);
  }

 private:
  bool cached_;
};

/// R-MAT S16 → out-of-core ingest → snapshot slices → 2D TC on a 2x2 grid
/// with the Tiered kernels.
class TcGridWorkload final : public StaticWorkload {
 public:
  using StaticWorkload::StaticWorkload;

  void setup(SpanRecorder* spans) override {
    atlc::ingest::IngestOptions opts;
    opts.num_threads = static_cast<int>(kRanks);
    opts.ranks = kRanks;
    opts.relabel = atlc::ingest::RelabelMode::Random;
    opts.relabel_seed = kRelabelSeed;
    opts.tmp_dir = dir_;
    {
      Scope s(spans, "ingest.run");
      ingest_ = atlc::ingest::run_ingest(graph_path(dir_), snapshot_path(),
                                         opts);
    }
    const EdgeList edges = [&] {
      Scope s(spans, "ingest.snapshot_read");
      reader_.emplace(snapshot_path());
      return reader_->read_all();
    }();
    g_ = build_csr(edges, spans);
    config_ = EngineConfig{};
    config_.intersect_tier = atlc::intersect::Tier::Tiered;
    config_.slice_source = &*reader_;
  }

  void solve(SpanRecorder* spans) override {
    Scope s(spans, "solve");
    result_ = atlc::core::run_distributed_tc_result(g_, kRanks, config_, {},
                                                    PartitionKind::Grid2D);
  }

  [[nodiscard]] Tally check() const override {
    Tally t = check_shape(g_, expected_);
    const bool ok = result_.global_triangles == expected_.triangles;
    if (!ok)
      std::fprintf(stderr, "# tc: %llu triangles, expected %llu\n",
                   static_cast<unsigned long long>(result_.global_triangles),
                   static_cast<unsigned long long>(expected_.triangles));
    t += Tally{1, ok ? 0u : 1u};
    return t;
  }

  void reset() override {
    StaticWorkload::reset();
    config_.slice_source = nullptr;
    reader_.reset();
  }

  Tally layers(SpanRecorder& spans, double /*solve_median*/,
               std::vector<Metric>& metrics) override {
    const auto part = [&] {
      Scope s(&spans, "graph.partition");
      return atlc::graph::make_partition(g_, PartitionKind::Grid2D, kRanks);
    }();
    // Column-block cut positions of every row, so the replay slices
    // segments without searching.
    const std::uint32_t nb = part.col_blocks();
    std::vector<std::uint32_t> cuts(
        static_cast<std::size_t>(g_.num_vertices()) * (nb + 1));
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      const Row row = g_.neighbors(v);
      for (std::uint32_t b = 0; b <= nb; ++b) {
        const VertexId lo =
            b < nb ? part.col_block_range(b).first : g_.num_vertices();
        cuts[static_cast<std::size_t>(v) * (nb + 1) + b] = static_cast<
            std::uint32_t>(std::lower_bound(row.begin(), row.end(), lo) -
                           row.begin());
      }
    }
    const auto segment = [&](VertexId v, std::uint32_t b) {
      const std::uint32_t* c = &cuts[static_cast<std::size_t>(v) * (nb + 1)];
      return g_.neighbors(v).subspan(c[b], c[b + 1] - c[b]);
    };
    const auto ranks = probe_ranks(
        spans, g_, part, config_,
        [](RankCtx& ctx, const DistGraph& dg, const EngineConfig& cfg) {
          EdgePipeline(ctx, dg, cfg).run_segments(
              [](VertexId, VertexId, std::uint32_t, Row, Row) {});
        },
        {},
        [&](std::uint32_t r, const DistGraph& dg) {
          // Every (local edge, column block) item, suffix-trimmed as the
          // upper-triangle TC path does, through intersect_transient.
          RankLayer out;
          atlc::intersect::TieredIntersector tiered(
              config_.tier_policy, config_.cost, g_.num_vertices());
          for (VertexId lv = 0; lv < dg.num_local(); ++lv) {
            const VertexId v = part.global_id(r, lv);
            for (const VertexId j : dg.local_neighbors(lv)) {
              for (std::uint32_t b = 0; b < nb; ++b) {
                const Row lhs = atlc::intersect::suffix_above(segment(v, b), j);
                const Row rhs = atlc::intersect::suffix_above(segment(j, b), j);
                out.common += tiered.intersect_transient(lhs, rhs).common;
                ++out.calls;
                out.elements += lhs.size() + rhs.size();
              }
            }
          }
          return out;
        });
    fill_engine_stats(result_, metrics);
    fill_probe_metrics(spans, ranks, config_.use_cache, metrics);
    // The 2D path has no per-rank compute entry point: the whole TC call
    // is its compute, and the replay spans carry its rank balance.
    set_metric(metrics, "core.compute_s", spans.max_seconds("solve"));
    set_metric(metrics, "core.wall_imbalance",
               imbalance(spans.durations("intersect.replay")));
    const double run_s = spans.max_seconds("ingest.run");
    set_metric(metrics, "ingest.run_s", run_s);
    set_metric(metrics, "ingest.snapshot_read_s",
               spans.max_seconds("ingest.snapshot_read"));
    set_metric(metrics, "ingest.mb_per_s",
               ratio(static_cast<double>(ingest_.bytes_read) / kMiB, run_s));
    return check_replay(ranks, 3 * expected_.triangles);
  }

 private:
  [[nodiscard]] std::string snapshot_path() const {
    return dir_ + "/graph.snap";
  }

  atlc::ingest::IngestReport ingest_;
  std::optional<atlc::ingest::SnapshotReader> reader_;
};

/// R-MAT S14 → text loader + clean + CSR → QueryEngine::run over Zipf point
/// queries with one update batch per epoch.
class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(std::string dir)
      : dir_(std::move(dir)),
        expected_(read_expected(expected_path(dir_))),
        stream_(read_serve_stream(stream_path(dir_))),
        reference_(read_answers(answers_path(dir_))) {}

  /// Writes the query/update stream and the reference answers of every
  /// kServeCheckStride-th query, each computed from scratch on its epoch's
  /// snapshot. The stream names vertices as the workload's own load and
  /// clean steps number them, so those two steps run here too.
  static void generate(const std::string& dir, std::uint64_t seed,
                       bool smoke) {
    EdgeList edges = load_and_clean(dir, nullptr);
    const auto stream = make_serve_stream(CSRGraph::from_edges(edges),
                                          serve_stream_config(smoke),
                                          derive_seed(seed, 4));
    std::vector<atlc::serve::QueryAnswer> answers;
    std::uint64_t id = 0;
    for (const auto& epoch : stream) {
      const CSRGraph snapshot = CSRGraph::from_edges(edges);
      for (const auto& q : epoch.queries) {
        if (id % kServeCheckStride == 0) {
          answers.push_back(atlc::serve::answer_reference(snapshot, q));
          answers.back().id = id;
        }
        ++id;
      }
      atlc::stream::apply_to_edge_list(edges, epoch.updates);
    }
    write_serve_stream(stream_path(dir), stream);
    write_answers(answers_path(dir), answers);
  }

  void setup(SpanRecorder* spans) override {
    const EdgeList edges = load_and_clean(dir_, spans);
    g_ = build_csr(edges, spans);
    options_ = atlc::serve::ServeOptions{};
    options_.engine.use_cache = true;
    options_.engine.cache_sizing = atlc::core::CacheSizing::paper_default(
        g_.num_vertices(), g_.csr_bytes() / 2);
    options_.admission_capacity = 2048;
    options_.hot_cache.entries = 1024;
  }

  void solve(SpanRecorder* spans) override {
    Scope s(spans, "solve");
    result_ = atlc::serve::QueryEngine(g_, options_).run(stream_, kRanks);
  }

  [[nodiscard]] double makespan() const override {
    return result_.serve_makespan;
  }

  [[nodiscard]] Tally check() const override {
    Tally t = check_shape(g_, expected_);
    std::uint64_t wrong = 0, rejected = 0;
    for (const auto& a : result_.answers) {
      if (a.rejected) {
        ++rejected;  // a refused query counts as a failed one
      } else if (a.id % kServeCheckStride == 0) {
        const std::size_t i = a.id / kServeCheckStride;
        const bool ok = i < reference_.size() && a.id == reference_[i].id &&
                        a.kind == reference_[i].kind &&
                        a.v == reference_[i].v && a.lcc == reference_[i].lcc &&
                        a.topk == reference_[i].topk;
        ++t.attempted;
        if (!ok) ++wrong;
      }
    }
    std::size_t submitted = 0;
    for (const auto& epoch : stream_) submitted += epoch.queries.size();
    if (result_.answers.size() != submitted) ++wrong, ++t.attempted;
    t.attempted += rejected;
    t.failed += wrong + rejected;
    if (wrong + rejected != 0)
      std::fprintf(stderr, "# serve: %llu wrong answers, %llu rejected\n",
                   static_cast<unsigned long long>(wrong),
                   static_cast<unsigned long long>(rejected));
    return t;
  }

  void reset() override {
    g_ = CSRGraph();
    result_ = atlc::serve::ServeResult();
  }

  /// The probe replays the queries the engine computed (admitted, not
  /// served from the hot cache), each at its owner rank, on the stream's
  /// initial graph; the engine ran each on its own epoch's graph.
  Tally layers(SpanRecorder& spans, double solve_median,
               std::vector<Metric>& metrics) override {
    using atlc::serve::QueryAnswer;
    using atlc::serve::QueryKind;
    const auto part = [&] {
      Scope s(&spans, "graph.partition");
      return atlc::graph::make_partition(g_, options_.partition, kRanks);
    }();
    std::vector<std::vector<const QueryAnswer*>> computed(kRanks);
    for (const QueryAnswer& a : result_.answers)
      if (!a.rejected && !a.hot_hit) computed[part.owner(a.v)].push_back(&a);
    const auto work_list = [&](const DistGraph& dg, VertexId v) {
      const VertexId lv = part.local_index(v);
      std::vector<std::pair<VertexId, VertexId>> work;
      for (const VertexId f : dg.local_neighbors(lv)) work.emplace_back(lv, f);
      return work;
    };
    // Epoch-0 LCC answers were computed on the initial graph, so the
    // replay's count must reproduce them exactly.
    std::vector<Tally> replay_check(kRanks);
    const auto ranks = probe_ranks(
        spans, g_, part, options_.engine,
        [&](RankCtx& ctx, const DistGraph& dg, const EngineConfig& cfg) {
          // Each query's (v, neighbor) work list through run_over, as the
          // engine drives it, with a no-op kernel.
          EdgePipeline pipeline(ctx, dg, cfg);
          for (const QueryAnswer* a : computed[ctx.rank()])
            pipeline.run_over(work_list(dg, a->v),
                              [](VertexId, VertexId, Row, Row) {});
        },
        [&](RankCtx& ctx, const DistGraph&) {
          // The answers from local memory: no fetches, no virtual time.
          for (const QueryAnswer* a : computed[ctx.rank()])
            (void)atlc::serve::answer_reference(
                g_, atlc::serve::Query{a->kind, a->v, a->k});
        },
        [&](std::uint32_t r, const DistGraph& dg) {
          // The LCC queries' row pairs through count_common, as the engine
          // intersects them; the top-k kinds scan rows instead.
          RankLayer out;
          for (const QueryAnswer* a : computed[r]) {
            if (a->kind != QueryKind::Lcc) continue;
            const Row adj_v = dg.local_neighbors(part.local_index(a->v));
            std::uint64_t tri = 0;
            for (const VertexId f : adj_v) {
              const Row adj_f = g_.neighbors(f);
              tri += atlc::intersect::count_common(adj_v, adj_f,
                                                   options_.engine.method);
              ++out.calls;
              out.elements += adj_v.size() + adj_f.size();
            }
            out.common += tri;
            if (a->epoch == 0) {
              const double lcc = atlc::graph::lcc_score(
                  tri, static_cast<VertexId>(adj_v.size()));
              replay_check[r] += Tally{1, lcc == a->lcc ? 0u : 1u};
            }
          }
          return out;
        });
    const auto& qs = result_.stats;
    fill_engine_stats(qs, metrics);
    fill_probe_metrics(spans, ranks, options_.engine.use_cache, metrics);
    double query_vs = 0.0, update_vs = 0.0, rows = 0.0, updates = 0.0;
    for (const auto& e : result_.epochs) {
      query_vs += e.query_makespan;
      update_vs += e.update_makespan;
      rows += static_cast<double>(e.rows_rebuilt);
      updates += static_cast<double>(e.effective_insertions +
                                     e.effective_deletions);
    }
    const auto answered = static_cast<double>(qs.answered);
    set_metric(metrics, "serve.query_vs", query_vs);
    set_metric(metrics, "serve.update_vs", update_vs);
    set_metric(metrics, "serve.hot_hit_rate", result_.hot_cache_total.hit_rate());
    set_metric(metrics, "serve.hot_stale",
        static_cast<double>(result_.hot_cache_total.stale_misses));
    set_metric(metrics, "serve.edges_per_query",
        ratio(static_cast<double>(qs.edges_processed), answered));
    set_metric(metrics, "serve.query_p50_vs", qs.latency_percentile(50.0));
    set_metric(metrics, "serve.query_p999_vs", qs.latency_percentile(99.9));
    set_metric(metrics, "serve.queries_per_s", ratio(answered, solve_median));
    set_metric(metrics, "serve.rejected_frac",
        ratio(static_cast<double>(qs.rejected),
              static_cast<double>(qs.submitted)));
    set_metric(metrics, "stream.rows_rebuilt", rows);
    set_metric(metrics, "stream.effective_updates", updates);
    Tally t;
    for (const Tally& c : replay_check) t += c;
    if (t.failed != 0)
      std::fprintf(stderr, "# serve replay: %llu of %llu epoch-0 LCC answers "
                           "differ\n",
                   static_cast<unsigned long long>(t.failed),
                   static_cast<unsigned long long>(t.attempted));
    return t;
  }

 private:
  static std::string stream_path(const std::string& dir) {
    return dir + "/stream.txt";
  }
  static std::string answers_path(const std::string& dir) {
    return dir + "/answers.txt";
  }

  std::string dir_;
  Expected expected_;
  std::vector<atlc::serve::ServeEpoch> stream_;
  std::vector<atlc::serve::QueryAnswer> reference_;
  CSRGraph g_;
  atlc::serve::ServeOptions options_;
  atlc::serve::ServeResult result_;
};

template <typename W, auto... Args>
std::unique_ptr<Workload> construct(const std::string& dir) {
  return std::make_unique<W>(dir, Args...);
}

/// Every workload by name. The name list in BENCHMARK.json is what run.sh
/// runs; this table says what each name means.
struct WorkloadEntry {
  std::string_view name;
  /// Which seed-derived graph it reads: the two LCC workloads share one.
  std::uint64_t graph_tag;
  unsigned scale;  ///< R-MAT scale of the full-size graph
  std::unique_ptr<Workload> (*make)(const std::string& dir);
  /// Inputs beyond the graph and its expected outputs; may be null.
  void (*generate_more)(const std::string& dir, std::uint64_t seed,
                        bool smoke);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"lcc-uncached", 1, 16, &construct<LccWorkload, false>, nullptr},
    {"lcc-cached", 1, 16, &construct<LccWorkload, true>, nullptr},
    {"tc-grid2d-snapshot", 2, 16, &construct<TcGridWorkload>, nullptr},
    {"serve-zipf-updates", 3, 14, &construct<ServeWorkload>,
     &ServeWorkload::generate},
};

const WorkloadEntry& find_workload(std::string_view name) {
  for (const WorkloadEntry& w : kWorkloads)
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload " + std::string(name));
}

}  // namespace

void generate_inputs(std::string_view workload, std::uint64_t seed,
                     const std::string& dir, bool smoke) {
  const WorkloadEntry& w = find_workload(workload);
  const unsigned scale = smoke ? w.scale - kSmokeScaleDrop : w.scale;
  const auto raw =
      generate_rmat(scale, kEdgeFactor, derive_seed(seed, w.graph_tag));
  write_snap_text(graph_path(dir), raw,
                  "R-MAT scale " + std::to_string(scale) + " edge factor " +
                      std::to_string(kEdgeFactor) + " seed " +
                      std::to_string(seed));
  write_expected(expected_path(dir), reference_triangles(raw, 1u << scale));
  if (w.generate_more) w.generate_more(dir, seed, smoke);
}

std::unique_ptr<Workload> make_workload(std::string_view workload,
                                        const std::string& dir) {
  return find_workload(workload).make(dir);
}

}  // namespace bench
