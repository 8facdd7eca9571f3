#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "atlc/graph/edge_list.hpp"

namespace atlc::graph {

// The edge-file formats live here and nowhere else (DESIGN.md §11): the
// SNAP text grammar, first-appearance id interning, and the 24-byte prefix
// of the ATLC binary file (the v2 snapshot of ingest/snapshot.hpp, the one
// binary graph format). load_edges, ingest::run_ingest and
// ingest::SnapshotReader all read through these pieces, so the in-memory
// and out-of-core paths cannot disagree on what a file contains.

// ---------------------------------------------------------------- files ---

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
/// An owned stdio handle.
using File = std::unique_ptr<std::FILE, FileCloser>;

/// fopen(path, mode), throwing "atlc: cannot open file" on failure.
[[nodiscard]] File open_or_throw(const std::string& path, const char* mode);

/// Size of the open file `f` in bytes; leaves it rewound. Throws an
/// "atlc:" error when the size cannot be measured.
[[nodiscard]] std::uint64_t file_size(std::FILE* f, const std::string& path);

// ------------------------------------------------------------ SNAP text ---

/// One window of whole text lines cut from the input file. `data` always
/// ends on a line boundary (trailing '\n'), except possibly for the final
/// chunk of a file whose last line has no newline.
struct TextChunk {
  std::uint64_t file_offset = 0;  ///< byte offset of data[0] in the file
  std::string data;
};

/// Streams a text file as fixed-size byte windows stitched to line
/// boundaries: each window is read with one bulk fread of ~chunk_bytes,
/// then trimmed back to the last newline; the partial tail line is carried
/// into the next window. Concatenating all chunks reproduces the file
/// byte-for-byte, so parse_text_chunk yields the same pair stream for
/// every chunk size: load_text_edges reads 64 KiB windows, run_ingest
/// sweeps IngestOptions::chunk_bytes, and both see the same pairs.
///
/// A single line longer than `chunk_bytes` is handled by growing that one
/// window until its newline (or EOF) is found; `chunk_bytes` is a target,
/// not a hard cap, and no line is ever split.
class ChunkReader {
 public:
  ChunkReader(const std::string& path, std::size_t chunk_bytes);

  /// Fill `out` with the next window of whole lines. Returns false at EOF
  /// (out is left empty).
  bool next(TextChunk& out);

  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_; }
  [[nodiscard]] std::uint64_t file_bytes() const { return file_bytes_; }

 private:
  File f_;
  std::size_t chunk_bytes_;
  std::string carry_;            ///< partial last line of the previous window
  std::uint64_t consumed_ = 0;   ///< file offset of the first byte of carry_
  std::uint64_t bytes_read_ = 0;
  std::uint64_t file_bytes_ = 0;
};

/// One raw id pair as it appears in the file, before compaction.
struct RawPair {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// The SNAP line grammar, the only one: lines starting with '#' or '%' and
/// empty lines are skipped, and a line contributes a pair iff two base-10
/// integers parse from its front (strtoull rules: leading whitespace and an
/// optional sign are accepted, negatives wrap, overflow saturates, trailing
/// junk of any length is ignored). Malformed lines are skipped. Appends the
/// pairs of `text` to `out` and returns the number of lines seen (parsed or
/// skipped). Thread-safe on disjoint chunks, so run_ingest fans it out.
std::size_t parse_text_chunk(std::string_view text, std::vector<RawPair>& out);

/// First-appearance id compaction: the k-th distinct raw id becomes k, so
/// the order pairs are interned in decides the ids. The map is pre-sized
/// from the input size (most ids repeat; capped so a huge file cannot force
/// a huge speculative allocation). More than `max_vertices` distinct ids —
/// always clamped to the uint32 VertexId space — throw "atlc: vertex id
/// space overflow" naming `path`, instead of silently wrapping.
class IdInterner {
 public:
  IdInterner(std::uint64_t input_bytes, std::uint64_t max_vertices,
             std::string path);

  VertexId operator()(std::uint64_t raw) {
    const auto [it, inserted] =
        ids_.try_emplace(raw, static_cast<VertexId>(ids_.size()));
    if (inserted && ids_.size() > cap_) overflow();
    return it->second;
  }

  /// Distinct ids seen so far.
  [[nodiscard]] VertexId size() const {
    return static_cast<VertexId>(ids_.size());
  }

 private:
  [[noreturn]] void overflow() const;

  std::unordered_map<std::uint64_t, VertexId> ids_;
  std::uint64_t cap_;
  std::string path_;
};

/// Load a SNAP text edge list: ChunkReader windows, parse_text_chunk, one
/// IdInterner (ids compacted to 0..n-1 in first-appearance order), then
/// EdgeList::symmetrize for undirected input. This is the loader that reads
/// the paper's real datasets (Orkut, LiveJournal, ...) when the SNAP files
/// are available; the benches fall back to synthetic proxies offline.
[[nodiscard]] EdgeList load_text_edges(
    const std::string& path, Directedness directedness,
    std::uint64_t max_vertices = 0xffffffffull);

/// Write the text edge-list format: a '#' comment line, then one "u v"
/// line per edge. A sorted, symmetric undirected list (is_symmetric) is
/// written once per edge (u <= v), since load_text_edges symmetrizes it
/// back to the same EdgeList; any other list is written edge for edge.
/// Returns the number of "u v" lines written. `atlc_run --convert`
/// writes it.
std::size_t save_text_edges(const EdgeList& edges, const std::string& path);

/// The SNAP text loader for a path a user names: load_text_edges, after
/// require_text. `directedness` says how to read the text.
[[nodiscard]] EdgeList load_edges(const std::string& path,
                                  Directedness directedness);

// ---------------------------------------------------------- ATLC binary ---

/// The prefix every ATLC binary file starts with: u32 magic "ATLC",
/// u32 version, u32 directedness (0/1), u32 n, u64 m. kSnapshotVersion,
/// the ingest/snapshot.hpp snapshot, is the only version read or written.
inline constexpr std::uint32_t kSnapshotVersion = 3;
struct AtlcPrefix {
  Directedness directedness = Directedness::Undirected;
  VertexId num_vertices = 0;
  std::uint64_t num_edges = 0;
};
inline constexpr std::uint64_t kAtlcPrefixBytes = 24;

/// The version word of an ATLC binary file (0 when the file ends right
/// after the magic), or nullopt when `path` does not start with the magic,
/// i.e. is text. The one dispatch require_text and SnapshotReader::sniff
/// share. Throws when the file cannot be opened.
[[nodiscard]] std::optional<std::uint32_t> sniff_atlc(const std::string& path);

/// Throw an "atlc:" error when sniff_atlc finds the magic: the SNAP text
/// readers (load_edges, ingest::run_ingest) refuse ATLC binary files
/// instead of parsing their bytes as text. A snapshot's message names
/// `atlc_run --snapshot`, the way to open it.
void require_text(const std::string& path);

/// Read and validate the prefix from the start of `f`: it must be present
/// ("truncated header"), carry the magic ("bad magic"), declare
/// kSnapshotVersion (any other is "unsupported ATLC binary version", with
/// a pointer to atlc_ingest, which rebuilds a snapshot), and hold a 0/1
/// directedness flag ("corrupt directedness flag"). Leaves `f` just past
/// the prefix.
[[nodiscard]] AtlcPrefix read_atlc_prefix(std::FILE* f,
                                          const std::string& path);

/// Write the prefix, version kSnapshotVersion, at `f`'s current position.
void write_atlc_prefix(std::FILE* f, const AtlcPrefix& prefix,
                       const std::string& path);

}  // namespace atlc::graph
