#include "atlc/ingest/external_sorter.hpp"

#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
#include <omp.h>
#endif

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "atlc/util/check.hpp"
#include "atlc/util/timer.hpp"

namespace atlc::ingest {

#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
namespace {

/// Split [0, n) into `parts` nearly-equal ranges; returns [begin, end) of
/// range `idx` (same arithmetic as intersect/parallel.cpp's chunk()).
std::pair<std::size_t, std::size_t> chunk(std::size_t n, int parts, int idx) {
  const std::size_t base = n / static_cast<std::size_t>(parts);
  const std::size_t extra = n % static_cast<std::size_t>(parts);
  const auto i = static_cast<std::size_t>(idx);
  const std::size_t begin = i * base + std::min(i, extra);
  const std::size_t end = begin + base + (i < extra ? 1 : 0);
  return {begin, end};
}

}  // namespace
#endif

void parallel_sort_edges(std::span<Edge> edges, int num_threads) {
#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
  const int threads = num_threads > 0 ? num_threads : omp_get_max_threads();
  // A too-small parallel region costs more in fork/merge overhead than the
  // sort; the sequential kernel also keeps tiny spills deterministic-cheap.
  if (threads <= 1 || edges.size() < (std::size_t{1} << 14)) {
    std::sort(edges.begin(), edges.end());
    return;
  }
  // Per-thread sorted runs...
#pragma omp parallel for num_threads(threads) schedule(static)
  for (int t = 0; t < threads; ++t) {
    const auto [begin, end] = chunk(edges.size(), threads, t);
    std::sort(edges.begin() + static_cast<std::ptrdiff_t>(begin),
              edges.begin() + static_cast<std::ptrdiff_t>(end));
  }
  // ...merged pairwise: level `width` merges runs [i, i+width) with
  // [i+width, i+2*width), each pair disjoint, so the level parallelises.
  for (int width = 1; width < threads; width *= 2) {
#pragma omp parallel for num_threads(threads) schedule(dynamic, 1)
    for (int i = 0; i < threads; i += 2 * width) {
      if (i + width >= threads) continue;
      const std::size_t lo = chunk(edges.size(), threads, i).first;
      const std::size_t mid = chunk(edges.size(), threads, i + width).first;
      const std::size_t hi =
          chunk(edges.size(), threads, std::min(i + 2 * width, threads) - 1)
              .second;
      std::inplace_merge(edges.begin() + static_cast<std::ptrdiff_t>(lo),
                         edges.begin() + static_cast<std::ptrdiff_t>(mid),
                         edges.begin() + static_cast<std::ptrdiff_t>(hi));
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
  std::FILE* f = std::fopen(run.path.c_str(), "wb");
  if (!f)
    throw std::runtime_error("atlc: cannot create spill file: " + run.path);
  const std::size_t wrote =
      std::fwrite(buffer_.data(), sizeof(Edge), buffer_.size(), f);
  std::fclose(f);
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
    std::FILE* f = nullptr;           // null for the in-memory tail
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
        const std::size_t got = std::fread(buf.data(), sizeof(Edge), want, f);
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
  struct FileGuard {
    std::vector<std::FILE*> files;
    ~FileGuard() {
      for (std::FILE* f : files)
        if (f) std::fclose(f);
    }
  } guard;

  for (const Run& run : runs_) {
    Cursor c;
    c.f = std::fopen(run.path.c_str(), "rb");
    if (!c.f)
      throw std::runtime_error("atlc: cannot reopen spill file: " + run.path);
    guard.files.push_back(c.f);
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
