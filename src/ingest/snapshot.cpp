#include "atlc/ingest/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "atlc/util/check.hpp"

namespace atlc::ingest {

namespace {

using snapshot_layout::kHeaderBytes;

using graph::File;
using graph::kSnapshotVersion;
using graph::open_or_throw;

/// Edges per read or write call: 256 KiB buffers.
constexpr std::size_t kIoEdges = std::size_t{1} << 15;

void write_bytes(std::FILE* f, const void* data, std::size_t bytes,
                 const std::string& path) {
  if (bytes > 0 && std::fwrite(data, 1, bytes, f) != bytes)
    throw std::runtime_error("atlc: short write (disk full?): " + path);
}

void write_u64(std::FILE* f, std::uint64_t v, const std::string& path) {
  write_bytes(f, &v, sizeof(v), path);
}

void read_bytes(std::FILE* f, void* data, std::size_t bytes,
                const std::string& path) {
  if (bytes > 0 && std::fread(data, 1, bytes, f) != bytes)
    throw std::runtime_error("atlc: truncated snapshot (short read): " + path);
}

std::uint64_t read_u64(std::FILE* f, const std::string& path) {
  std::uint64_t v = 0;
  read_bytes(f, &v, sizeof(v), path);
  return v;
}

void seek_or_throw(std::FILE* f, std::uint64_t offset,
                   const std::string& path) {
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0)
    throw std::runtime_error("atlc: cannot seek: " + path);
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter(const std::string& path, VertexId num_vertices,
                               Directedness directedness)
    : path_(path), n_(num_vertices), dir_(directedness),
      degrees_(num_vertices, 0) {
  write_buf_.reserve(kIoEdges);
  f_ = open_or_throw(path_, "wb");
  // Header and degrees are written by finalize() (both depend on the whole
  // stream); seek straight to the edge section and stream the payload.
  seek_or_throw(f_.get(),
                kHeaderBytes + std::uint64_t{n_} * sizeof(VertexId), path_);
}

SnapshotWriter::~SnapshotWriter() {
  f_.reset();
  // A writer destroyed before finalize() leaves no plausible-looking file.
  if (!finalized_) std::remove(path_.c_str());
}

void SnapshotWriter::flush() {
  write_bytes(f_.get(), write_buf_.data(), write_buf_.size() * sizeof(Edge),
              path_);
  write_buf_.clear();
}

void SnapshotWriter::append(Edge e) {
  ATLC_CHECK(!finalized_, "SnapshotWriter: append() after finalize()");
  ATLC_CHECK(e.u < n_ && e.v < n_, "SnapshotWriter: endpoint out of range");
  ATLC_CHECK(e.u != e.v, "SnapshotWriter: self loop in cleaned stream");
  ATLC_CHECK(m_ == 0 || last_ < e,
             "SnapshotWriter: edges must arrive strictly increasing");
  last_ = e;
  ++degrees_[e.u];
  edge_checksum_ = snapshot_layout::fnv1a64(&e, sizeof(e), edge_checksum_);
  write_buf_.push_back(e);
  if (write_buf_.size() == write_buf_.capacity()) flush();
  ++m_;
}

void SnapshotWriter::finalize() {
  ATLC_CHECK(!finalized_, "SnapshotWriter: finalize() called twice");
  flush();
  std::FILE* const f = f_.get();

  seek_or_throw(f, kHeaderBytes, path_);
  write_bytes(f, degrees_.data(), degrees_.size() * sizeof(VertexId), path_);
  degree_checksum_ = snapshot_layout::fnv1a64(
      degrees_.data(), degrees_.size() * sizeof(VertexId));

  seek_or_throw(f, 0, path_);
  graph::write_atlc_prefix(f, {dir_, n_, m_}, path_);
  write_u64(f, edge_checksum_, path_);
  write_u64(f, degree_checksum_, path_);

  if (std::fflush(f) != 0)
    throw std::runtime_error("atlc: short write (disk full?): " + path_);
  f_.reset();
  finalized_ = true;
}

// ---------------------------------------------------------------------------
// SnapshotReader

bool SnapshotReader::sniff(const std::string& path) {
  return graph::sniff_atlc(path) == kSnapshotVersion;
}

SnapshotReader::SnapshotReader(const std::string& path) : path_(path) {
  File f = open_or_throw(path_, "rb");
  const std::uint64_t actual_bytes = graph::file_size(f.get(), path_);
  const graph::AtlcPrefix prefix = graph::read_atlc_prefix(f.get(), path_);
  if (actual_bytes < kHeaderBytes)
    throw std::runtime_error(
        "atlc: truncated snapshot header (file smaller than the " +
        std::to_string(kHeaderBytes) + "-byte header): " + path_);
  dir_ = prefix.directedness;
  n_ = prefix.num_vertices;
  m_ = prefix.num_edges;
  edge_checksum_ = read_u64(f.get(), path_);
  const std::uint64_t degree_checksum = read_u64(f.get(), path_);

  // n and m place both sections, so the file must be exactly header + 4n +
  // 8m bytes. Bounding m first keeps m * sizeof(Edge) from wrapping.
  edges_offset_ = kHeaderBytes + std::uint64_t{n_} * sizeof(VertexId);
  if (m_ > actual_bytes / sizeof(Edge) ||
      actual_bytes != edges_offset_ + m_ * sizeof(Edge))
    throw std::runtime_error(
        "atlc: corrupt section offsets (n = " + std::to_string(n_) +
        " vertices and m = " + std::to_string(m_) +
        " edges do not describe this " + std::to_string(actual_bytes) +
        "-byte file; truncated or corrupt): " + path_);

  std::vector<VertexId> degrees(n_);
  read_bytes(f.get(), degrees.data(), degrees.size() * sizeof(VertexId),
             path_);
  if (snapshot_layout::fnv1a64(degrees.data(),
                               degrees.size() * sizeof(VertexId)) !=
      degree_checksum)
    throw std::runtime_error(
        "atlc: degree array checksum mismatch (corrupt payload): " + path_);

  // n u32 degrees sum to less than 2^64, so the prefix cannot wrap.
  row_start_.resize(std::size_t{n_} + 1);
  row_start_[0] = 0;
  for (VertexId v = 0; v < n_; ++v)
    row_start_[v + 1] = row_start_[v] + degrees[v];
  if (row_start_[n_] != m_)
    throw std::runtime_error(
        "atlc: degree array sums to " + std::to_string(row_start_[n_]) +
        ", not the header's m = " + std::to_string(m_) +
        " edges (corrupt payload): " + path_);
}

EdgeList SnapshotReader::read_all() const {
  File f = open_or_throw(path_, "rb");
  seek_or_throw(f.get(), edges_offset_, path_);
  std::vector<Edge> edges(m_);
  read_bytes(f.get(), edges.data(), edges.size() * sizeof(Edge), path_);
  std::uint64_t checksum = snapshot_layout::kFnvOffsetBasis;
  if (!edges.empty())
    checksum =
        snapshot_layout::fnv1a64(edges.data(), edges.size() * sizeof(Edge));
  if (checksum != edge_checksum_)
    throw std::runtime_error(
        "atlc: edge payload checksum mismatch (corrupt payload): " + path_);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u >= n_ || e.v >= n_)
      throw std::runtime_error(
          "atlc: edge endpoint out of range (vertex >= " +
          std::to_string(n_) + "; corrupt payload): " + path_);
    if (i > 0 && !(edges[i - 1] < e))
      throw std::runtime_error(
          "atlc: edge payload not sorted-unique (corrupt payload): " + path_);
    if (i < row_start_[e.u] || i >= row_start_[e.u + 1])
      throw std::runtime_error(
          "atlc: edge slot " + std::to_string(i) + " is not in row " +
          std::to_string(e.u) +
          "'s degree range (corrupt payload): " + path_);
  }
  return EdgeList(n_, std::move(edges), dir_);
}

void SnapshotReader::read_slice(const Partition& partition, std::uint32_t rank,
                                std::vector<EdgeIndex>& offsets,
                                std::vector<VertexId>& adjacencies) const {
  ATLC_CHECK(partition.num_vertices() == n_,
             "snapshot/partition vertex count mismatch");
  ATLC_CHECK(rank < partition.num_ranks(), "rank out of range");

  // Grid2D keeps only the neighbours in the rank's column block; every 1D
  // kind has one column block covering [0, n).
  const auto [lo, hi] = partition.col_block_range(partition.grid_col(rank));
  const VertexId rows = partition.part_size(rank);
  std::uint64_t slots = 0;
  for (VertexId l = 0; l < rows; ++l)
    slots += degree(partition.global_id(rank, l));

  offsets.clear();
  offsets.reserve(static_cast<std::size_t>(rows) + 1);
  offsets.push_back(0);
  adjacencies.clear();
  adjacencies.reserve(slots);  // exact for 1D kinds, a bound under Grid2D

  // Read each run of consecutive global ids in one pass: a contiguous kind
  // owns one run, a cyclic rank one run per row.
  File f = open_or_throw(path_, "rb");
  std::vector<Edge> buf;
  for (VertexId l = 0; l < rows;) {
    const VertexId first = partition.global_id(rank, l);
    VertexId run = 1;
    while (l + run < rows && partition.global_id(rank, l + run) == first + run)
      ++run;
    append_rows(f.get(), first, first + run, lo, hi, buf, offsets,
                adjacencies);
    l += run;
  }
}

void SnapshotReader::append_rows(std::FILE* f, VertexId first, VertexId last,
                                 VertexId lo, VertexId hi,
                                 std::vector<Edge>& buf,
                                 std::vector<EdgeIndex>& offsets,
                                 std::vector<VertexId>& adjacencies) const {
  const std::uint64_t begin = row_start_[first];
  const std::uint64_t end = row_start_[last];
  // One edge of context on each side: the edge before the run must belong
  // to an earlier row and the edge after it to a later one, or the degree
  // array cut the run's rows short or long.
  std::uint64_t slot = begin > 0 ? begin - 1 : begin;
  const std::uint64_t stop = end < m_ ? end + 1 : end;
  if (slot < stop) seek_or_throw(f, edges_offset_ + slot * sizeof(Edge), path_);
  VertexId row = first;
  VertexId prev = 0;  // previous neighbour in `row`
  while (slot < stop) {
    buf.resize(static_cast<std::size_t>(
        std::min<std::uint64_t>(stop - slot, kIoEdges)));
    read_bytes(f, buf.data(), buf.size() * sizeof(Edge), path_);
    for (const Edge& e : buf) {
      const bool in_run = slot >= begin && slot < end;
      if (in_run) {
        while (slot >= row_start_[row + 1]) {
          offsets.push_back(adjacencies.size());
          ++row;
        }
      }
      const bool fits =
          in_run ? e.u == row && e.v < n_ &&
                       (slot == row_start_[row] || e.v > prev)
                 : (slot < begin ? e.u < first : e.u >= last);
      if (!fits)
        throw std::runtime_error(
            "atlc: corrupt edge section (edge (" + std::to_string(e.u) +
            ", " + std::to_string(e.v) + ") at slot " + std::to_string(slot) +
            " does not fit the rows the degree array places around it): " +
            path_);
      if (in_run) {
        prev = e.v;
        if (e.v >= lo && e.v < hi) adjacencies.push_back(e.v);
      }
      ++slot;
    }
  }
  for (; row < last; ++row) offsets.push_back(adjacencies.size());
}

}  // namespace atlc::ingest
