#include "atlc/ingest/external_sorter.hpp"

#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
#include <omp.h>
#endif

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "atlc/graph/io.hpp"
#include "atlc/util/check.hpp"
#include "atlc/util/even_split.hpp"
#include "atlc/util/timer.hpp"

namespace atlc::ingest {

void parallel_sort_edges(std::span<Edge> edges, int num_threads) {
#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
  const int threads = num_threads > 0 ? num_threads : omp_get_max_threads();
  // A too-small parallel region costs more in fork/merge overhead than the
  // sort; the sequential kernel also keeps tiny spills deterministic-cheap.
  if (threads <= 1 || edges.size() < (std::size_t{1} << 14)) {
    std::sort(edges.begin(), edges.end());
    return;
  }
  // Run k of an even split starts at run_begin(k); run_begin(threads) is
  // the end.
  const auto run_begin = [&](int k) {
    const std::size_t at =
        util::even_split(edges.size(), static_cast<std::size_t>(threads),
                         static_cast<std::size_t>(k))
            .first;
    return edges.begin() + static_cast<std::ptrdiff_t>(at);
  };
  // Per-thread sorted runs...
#pragma omp parallel for num_threads(threads) schedule(static)
  for (int t = 0; t < threads; ++t) std::sort(run_begin(t), run_begin(t + 1));
  // ...merged pairwise: level `width` merges runs [i, i+width) with
  // [i+width, i+2*width), each pair disjoint, so the level parallelises.
  for (int width = 1; width < threads; width *= 2) {
#pragma omp parallel for num_threads(threads) schedule(dynamic, 1)
    for (int i = 0; i < threads; i += 2 * width) {
      if (i + width >= threads) continue;
      std::inplace_merge(run_begin(i), run_begin(i + width),
                         run_begin(std::min(i + 2 * width, threads)));
    }
  }
#else
  (void)num_threads;
  std::sort(edges.begin(), edges.end());
#endif
}

ExternalEdgeSorter::ExternalEdgeSorter(std::string tmp_prefix,
                                       std::uint64_t mem_budget_bytes,
                                       int num_threads)
    : tmp_prefix_(std::move(tmp_prefix)),
      budget_(mem_budget_bytes),
      threads_(num_threads) {}

ExternalEdgeSorter::~ExternalEdgeSorter() { clear(); }

void ExternalEdgeSorter::add(Edge e) {
  ATLC_CHECK(!finished_, "ExternalEdgeSorter: add() after finish()");
  buffer_.push_back(e);
  ++total_;
  maybe_spill();
}

void ExternalEdgeSorter::add(std::span<const Edge> edges) {
  ATLC_CHECK(!finished_, "ExternalEdgeSorter: add() after finish()");
  buffer_.insert(buffer_.end(), edges.begin(), edges.end());
  total_ += edges.size();
  maybe_spill();
}

void ExternalEdgeSorter::maybe_spill() {
  if (budget_ > 0 && buffer_.size() * sizeof(Edge) >= budget_) spill();
}

void ExternalEdgeSorter::spill() {
  if (buffer_.empty()) return;
  util::Timer timer;
  parallel_sort_edges(buffer_, threads_);
  Run run;
  run.path = tmp_prefix_ + ".run" + std::to_string(runs_.size());
  run.count = buffer_.size();
  graph::File f = graph::open_or_throw(run.path, "wb");
  const std::size_t wrote =
      std::fwrite(buffer_.data(), sizeof(Edge), buffer_.size(), f.get());
  f.reset();
  if (wrote != buffer_.size())
    throw std::runtime_error("atlc: short write to spill file (disk full?): " +
                             run.path);
  runs_.push_back(std::move(run));
  buffer_.clear();
  buffer_.shrink_to_fit();
  sort_seconds_ += timer.elapsed_s();
}

void ExternalEdgeSorter::finish() {
  ATLC_CHECK(!finished_, "ExternalEdgeSorter: finish() called twice");
  util::Timer timer;
  parallel_sort_edges(buffer_, threads_);
  sort_seconds_ += timer.elapsed_s();
  finished_ = true;
}

void ExternalEdgeSorter::for_each_sorted(
    const std::function<void(const Edge&)>& visit) const {
  ATLC_CHECK(finished_, "ExternalEdgeSorter: for_each_sorted() before "
                        "finish()");
  if (runs_.empty()) {
    for (const Edge& e : buffer_) visit(e);
    return;
  }

  // K-way merge over the run files plus the in-memory tail, via a binary
  // min-heap of cursors keyed by their head edge. Equal heads may pop in
  // any order — the stream is a multiset, so ties are interchangeable.
  struct Cursor {
    graph::File f;                    // null for the in-memory tail
    const Edge* mem = nullptr;        // in-memory tail (served zero-copy)
    std::size_t mem_count = 0;
    std::uint64_t remaining = 0;      // file edges not yet loaded into buf
    std::vector<Edge> buf;
    std::size_t pos = 0;
    Edge head{0, 0};

    bool advance() {
      if (!f) {
        if (pos >= mem_count) return false;
        head = mem[pos++];
        return true;
      }
      if (pos >= buf.size()) {
        if (remaining == 0) return false;
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, 1u << 15));
        buf.resize(want);
        const std::size_t got =
            std::fread(buf.data(), sizeof(Edge), want, f.get());
        if (got != want)
          throw std::runtime_error("atlc: short read from spill file");
        remaining -= got;
        pos = 0;
      }
      head = buf[pos++];
      return true;
    }
  };

  std::vector<Cursor> cursors;
  cursors.reserve(runs_.size() + 1);
  for (const Run& run : runs_) {
    Cursor c;
    c.f = graph::open_or_throw(run.path, "rb");
    c.remaining = run.count;
    cursors.push_back(std::move(c));
  }
  if (!buffer_.empty()) {
    Cursor c;
    c.mem = buffer_.data();
    c.mem_count = buffer_.size();
    cursors.push_back(std::move(c));
  }

  // Heap of cursor indices; top = smallest head.
  std::vector<std::size_t> heap;
  const auto greater = [&](std::size_t a, std::size_t b) {
    return cursors[b].head < cursors[a].head;
  };
  for (std::size_t i = 0; i < cursors.size(); ++i)
    if (cursors[i].advance()) heap.push_back(i);
  std::make_heap(heap.begin(), heap.end(), greater);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const std::size_t idx = heap.back();
    visit(cursors[idx].head);
    if (cursors[idx].advance()) {
      std::push_heap(heap.begin(), heap.end(), greater);
    } else {
      heap.pop_back();
    }
  }
}

void ExternalEdgeSorter::clear() {
  buffer_.clear();
  buffer_.shrink_to_fit();
  for (const Run& run : runs_) std::remove(run.path.c_str());
  runs_.clear();
  finished_ = true;
}

}  // namespace atlc::ingest
