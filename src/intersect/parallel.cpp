#include "atlc/intersect/parallel.hpp"

#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
#include <omp.h>
#else
// No OpenMP: the pragmas below are ignored and these shims make the
// chunking collapse to a single full-range chunk (sequential execution).
namespace {
inline int omp_get_max_threads() { return 1; }
inline int omp_get_num_threads() { return 1; }
inline int omp_get_thread_num() { return 0; }
}  // namespace
#endif

#include <algorithm>

#include "atlc/util/even_split.hpp"

namespace atlc::intersect {

std::uint64_t count_binary_parallel(std::span<const VertexId> a,
                                    std::span<const VertexId> b,
                                    const ParallelConfig& cfg) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() + b.size() < cfg.cutoff) return count_binary(a, b);

  std::uint64_t total = 0;
  // Chunk the shorter (keys) array across threads; each thread searches its
  // keys in the full longer list with the serial kernel.
#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
#pragma omp parallel num_threads(cfg.num_threads > 0 ? cfg.num_threads \
                                                     : omp_get_max_threads()) \
    reduction(+ : total)
#endif
  {
    const auto [begin, end] = util::even_split(
        a.size(), static_cast<std::size_t>(omp_get_num_threads()),
        static_cast<std::size_t>(omp_get_thread_num()));
    total += count_binary(a.subspan(begin, end - begin), b);
  }
  return total;
}

std::uint64_t count_ssi_parallel(std::span<const VertexId> a,
                                 std::span<const VertexId> b,
                                 const ParallelConfig& cfg) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() + b.size() < cfg.cutoff) return count_ssi(a, b);

  std::uint64_t total = 0;
  // Chunk the longer array; every thread SSI-merges its chunk against the
  // subrange of the shorter list that can overlap it (narrowed by binary
  // search on the chunk's value range).
#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
#pragma omp parallel num_threads(cfg.num_threads > 0 ? cfg.num_threads \
                                                     : omp_get_max_threads()) \
    reduction(+ : total)
#endif
  {
    const auto [begin, end] = util::even_split(
        b.size(), static_cast<std::size_t>(omp_get_num_threads()),
        static_cast<std::size_t>(omp_get_thread_num()));
    if (begin < end) {
      const auto b_chunk = b.subspan(begin, end - begin);
      const auto lo = std::lower_bound(a.begin(), a.end(), b_chunk.front());
      const auto hi = std::upper_bound(lo, a.end(), b_chunk.back());
      total += count_ssi(a.subspan(static_cast<std::size_t>(lo - a.begin()),
                                   static_cast<std::size_t>(hi - lo)),
                         b_chunk);
    }
  }
  return total;
}

std::uint64_t count_hybrid_parallel(std::span<const VertexId> a,
                                    std::span<const VertexId> b,
                                    const ParallelConfig& cfg) {
  return prefer_ssi(a.size(), b.size()) ? count_ssi_parallel(a, b, cfg)
                                        : count_binary_parallel(a, b, cfg);
}

std::uint64_t count_common_parallel(std::span<const VertexId> a,
                                    std::span<const VertexId> b, Method m,
                                    const ParallelConfig& cfg) {
  switch (m) {
    case Method::Binary: return count_binary_parallel(a, b, cfg);
    case Method::SSI: return count_ssi_parallel(a, b, cfg);
    case Method::Hybrid: return count_hybrid_parallel(a, b, cfg);
  }
  return 0;
}

}  // namespace atlc::intersect
