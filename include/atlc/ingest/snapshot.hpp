#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "atlc/core/dist_graph.hpp"
#include "atlc/graph/edge_list.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/graph/types.hpp"

namespace atlc::ingest {

using graph::Directedness;
using graph::Edge;
using graph::EdgeIndex;
using graph::EdgeList;
using graph::Partition;
using graph::VertexId;

/// The binary graph snapshot, format version graph::kSnapshotVersion, the
/// one binary graph format. It starts with the 24-byte ATLC prefix
/// (graph/io.hpp's read_atlc_prefix / write_atlc_prefix); the payload is
/// the CLEANED graph — deduped, self-loop-free, optionally relabeled,
/// edges sorted lexicographically by (u, v) — and its out-degrees.
///
/// Layout (host-endian, fixed-width fields, no struct padding):
///   header            (kHeaderBytes, field offsets below)
///   degrees           n x u32 out-degrees, at kHeaderBytes
///   edges             m x {u32 u, u32 v},  at kHeaderBytes + 4n
/// so a snapshot is exactly kHeaderBytes + 4n + 8m bytes.
///
/// The file stores no partition: the prefix sums of the degrees give the
/// edge-slot range of every row, so each rank of any partition, at any
/// rank count, reads its rows straight off the file (DESIGN.md §11).
namespace snapshot_layout {

// Header field byte offsets (also the corruption-test patch points); the
// first five are the ATLC prefix.
constexpr std::size_t kMagicOffset = 0;           // u32
constexpr std::size_t kVersionOffset = 4;         // u32
constexpr std::size_t kDirectednessOffset = 8;    // u32 (0/1)
constexpr std::size_t kNumVerticesOffset = 12;    // u32
constexpr std::size_t kNumEdgesOffset = 16;       // u64
constexpr std::size_t kEdgeChecksumOffset = 24;   // u64 FNV-1a over edges
constexpr std::size_t kDegreeChecksumOffset = 32; // u64 FNV-1a over degrees
constexpr std::size_t kHeaderBytes = 40;

/// FNV-1a 64-bit over a byte range, chainable via `state`.
constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                             std::uint64_t state = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= 0x100000001b3ull;
  }
  return state;
}

}  // namespace snapshot_layout

/// Streaming snapshot writer. Usage:
///   SnapshotWriter w(path, n, dir);
///   for each edge in sorted order: w.append(e);
///   w.finalize();
///
/// append() counts the out-degrees and checksums the payload; finalize()
/// writes the degrees and the header (the edge count is only known once
/// the stream ends). Edges must arrive strictly increasing by (u, v) —
/// deduped, self-loop-free; violations throw.
class SnapshotWriter {
 public:
  SnapshotWriter(const std::string& path, VertexId num_vertices,
                 Directedness directedness);
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  void append(Edge e);
  void finalize();

  [[nodiscard]] std::uint64_t num_edges() const { return m_; }
  [[nodiscard]] std::uint64_t edge_checksum() const { return edge_checksum_; }
  [[nodiscard]] std::uint64_t degree_checksum() const {
    return degree_checksum_;
  }

 private:
  void flush();

  std::string path_;
  graph::File f_;
  VertexId n_;
  Directedness dir_;
  std::uint64_t m_ = 0;
  Edge last_{0, 0};
  std::uint64_t edge_checksum_ = snapshot_layout::kFnvOffsetBasis;
  std::uint64_t degree_checksum_ = snapshot_layout::kFnvOffsetBasis;
  std::vector<VertexId> degrees_;
  std::vector<Edge> write_buf_;
  bool finalized_ = false;
};

/// Validating snapshot reader; implements core::LocalSliceSource so
/// build_dist_graph can read per-rank slices straight off the file.
///
/// The constructor validates the container (prefix, file size == the
/// layout n and m describe), the degree-array checksum, and that the
/// degrees sum to m, then keeps the n+1 row-start prefix of the degrees.
/// read_all() additionally verifies the edge payload checksum and
/// per-edge invariants; read_slice() checks every edge it streams against
/// the row the prefix places it in. Violations throw std::runtime_error
/// with an "atlc:"-prefixed message naming the failure.
///
/// read_slice() opens its own file handle per call, so concurrent calls
/// from all rank threads are safe (the runtime's threads-as-ranks model).
class SnapshotReader final : public core::LocalSliceSource {
 public:
  explicit SnapshotReader(const std::string& path);

  /// True when graph::sniff_atlc finds graph::kSnapshotVersion (cheap; the
  /// full validation happens in the constructor). Throws when the file
  /// cannot be opened.
  [[nodiscard]] static bool sniff(const std::string& path);

  [[nodiscard]] VertexId num_vertices() const { return n_; }
  [[nodiscard]] std::uint64_t num_edges() const { return m_; }
  [[nodiscard]] Directedness directedness() const { return dir_; }
  [[nodiscard]] std::uint64_t edge_checksum() const { return edge_checksum_; }
  /// Stored out-degree of v.
  [[nodiscard]] VertexId degree(VertexId v) const {
    return static_cast<VertexId>(row_start_[v + 1] - row_start_[v]);
  }

  /// Load the full cleaned edge list; verifies the payload checksum, the
  /// sorted-unique order, endpoint ranges, and that every edge sits in the
  /// row the degree array places it in.
  [[nodiscard]] EdgeList read_all() const;

  /// Read rank `rank`'s local CSR slice under `partition`, which may have
  /// any kind and rank count: Block1D, DegreeBalanced1D and Grid2D read the
  /// rank's contiguous row range in one pass (Grid2D keeping the ids of its
  /// column block), Cyclic1D reads each owned row. An edge whose source is
  /// not the row it is read for, whose target is >= n, or that breaks its
  /// row's strictly increasing order is an "atlc:" corruption error, and so
  /// is a neighbouring edge that shows a row was cut short or long.
  void read_slice(const Partition& partition, std::uint32_t rank,
                  std::vector<EdgeIndex>& offsets,
                  std::vector<VertexId>& adjacencies) const override;

 private:
  /// Append rows [first, last) to the slice, keeping the neighbours in
  /// [lo, hi); `buf` is the caller's read buffer. Also reads the edge just
  /// before and just after the rows, which must belong to other rows.
  void append_rows(std::FILE* f, VertexId first, VertexId last, VertexId lo,
                   VertexId hi, std::vector<Edge>& buf,
                   std::vector<EdgeIndex>& offsets,
                   std::vector<VertexId>& adjacencies) const;

  std::string path_;
  VertexId n_ = 0;
  std::uint64_t m_ = 0;
  Directedness dir_ = Directedness::Undirected;
  std::uint64_t edges_offset_ = 0;
  std::uint64_t edge_checksum_ = 0;
  /// n+1 entries: row v holds edge slots [row_start_[v], row_start_[v+1]).
  std::vector<std::uint64_t> row_start_;
};

}  // namespace atlc::ingest
