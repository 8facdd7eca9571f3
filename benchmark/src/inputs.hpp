#pragma once

// Benchmark inputs, generated from the seed alone and independent of the
// library under test: an R-MAT edge-list writer, an exact triangle
// reference computed from the generated edges, and the serving workload's
// query/update stream. A later change to the library's own generators or
// reference code therefore cannot move the benchmark's inputs or answers.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "atlc/graph/csr.hpp"
#include "atlc/serve/query.hpp"

namespace bench {

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_[4];
};

/// Mixes a workload tag into the run seed, so each workload's input is a
/// different graph for the same --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// R-MAT (a=.57, b=c=.19, d=.05) with 2^scale vertices and
/// edge_factor * 2^scale sampled edges, self loops and duplicates included
/// (the library's clean step removes them). Written as SNAP text, one
/// `u v` pair per line.
std::vector<std::pair<std::uint32_t, std::uint32_t>> generate_rmat(
    unsigned scale, unsigned edge_factor, std::uint64_t seed);
void write_snap_text(
    const std::string& path,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    const std::string& header);

/// Expected outputs of the static workloads, derived from the raw edges by
/// the library's cleaning rules (undirected, no self loops or duplicates,
/// one pass removing vertices of degree < 2). The library renames vertices
/// while loading and cleaning, so per-vertex results are compared as the
/// sorted multiset of (degree, edge-centric triangle count t(v)) pairs.
struct Expected {
  std::uint64_t vertices = 0;
  std::uint64_t slots = 0;  ///< directed edge slots (2 per undirected edge)
  std::uint64_t triangles = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> degree_t;  ///< sorted
};

Expected reference_triangles(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& raw,
    std::uint32_t num_ids);
void write_expected(const std::string& path, const Expected& e);
Expected read_expected(const std::string& path);

/// FNV-1a 64 over the (degree, t) pairs, for the printed record.
std::uint64_t digest(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& pairs);

/// Serving traffic: Zipf(skew) point queries over one seeded rank->vertex
/// permutation (traffic skew independent of degree skew), a 50/30/20
/// lcc / top-k common / top-k Adamic-Adar mix, and one update batch per
/// epoch whose deletions always target an edge present at that point.
struct ServeStreamConfig {
  std::size_t epochs = 16;
  std::size_t queries_per_epoch = 2048;
  double zipf_skew = 1.2;
  double lcc_fraction = 0.5;
  double common_fraction = 0.3;
  std::uint32_t topk = 8;
  std::size_t batch_size = 512;
  double insert_fraction = 0.7;
};

std::vector<atlc::serve::ServeEpoch> make_serve_stream(
    const atlc::graph::CSRGraph& g, const ServeStreamConfig& cfg,
    std::uint64_t seed);

/// Text files for the serving stream and its reference answers. Doubles
/// are stored as their bit patterns, so answers compare exactly.
void write_serve_stream(const std::string& path,
                        const std::vector<atlc::serve::ServeEpoch>& epochs);
std::vector<atlc::serve::ServeEpoch> read_serve_stream(const std::string& path);
void write_answers(const std::string& path,
                   const std::vector<atlc::serve::QueryAnswer>& answers);
std::vector<atlc::serve::QueryAnswer> read_answers(const std::string& path);

}  // namespace bench
