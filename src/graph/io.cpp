#include "atlc/graph/io.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace atlc::graph {

namespace {

constexpr std::uint32_t kMagic = 0x41544c43;  // "ATLC"

/// load_text_edges' read window. 64 KiB amortises the fread as well as
/// 1 MiB does, but 1 MiB windows (and their pair buffers) fragment the
/// glibc heap of a process that loads repeatedly: +6 MiB peak RSS over ten
/// loads of an R-MAT S16 text file.
constexpr std::size_t kTextWindowBytes = std::size_t{1} << 16;

/// strtoull-compatible base-10 parse of [p, end): skips leading whitespace,
/// accepts an optional sign (negative values wrap, as strtoull defines),
/// saturates on overflow. Returns false when no digits are found; `p` is
/// advanced past the consumed prefix on success.
bool parse_u64(const char*& p, const char* end, std::uint64_t& out) {
  while (p != end && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) ++p;
  bool negative = false;
  if (p != end && (*p == '+' || *p == '-')) {
    negative = *p == '-';
    ++p;
  }
  if (p == end || *p < '0' || *p > '9') return false;
  std::uint64_t value = 0;
  bool overflow = false;
  for (; p != end && *p >= '0' && *p <= '9'; ++p) {
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) overflow = true;
    if (!overflow) value = value * 10 + digit;
  }
  if (overflow) value = ~std::uint64_t{0};
  out = negative ? std::uint64_t{0} - value : value;
  return true;
}

}  // namespace

File open_or_throw(const std::string& path, const char* mode) {
  File f(std::fopen(path.c_str(), mode));
  if (!f) throw std::runtime_error("atlc: cannot open file: " + path);
  return f;
}

std::uint64_t file_size(std::FILE* f, const std::string& path) {
  if (std::fseek(f, 0, SEEK_END) != 0)
    throw std::runtime_error("atlc: cannot seek: " + path);
  const long size = std::ftell(f);
  if (size < 0) throw std::runtime_error("atlc: cannot stat: " + path);
  std::rewind(f);
  return static_cast<std::uint64_t>(size);
}

// ---------------------------------------------------------------------------
// SNAP text

ChunkReader::ChunkReader(const std::string& path, std::size_t chunk_bytes)
    : f_(open_or_throw(path, "rb")),
      chunk_bytes_(chunk_bytes > 0 ? chunk_bytes : 1),
      file_bytes_(file_size(f_.get(), path)) {}

bool ChunkReader::next(TextChunk& out) {
  out.file_offset = consumed_;
  out.data.assign(carry_);  // keeps out's buffer: no allocation per window
  carry_.clear();

  bool eof = false;
  while (!eof) {
    const std::size_t old = out.data.size();
    out.data.resize(old + chunk_bytes_);
    const std::size_t got = std::fread(out.data.data() + old, 1, chunk_bytes_,
                                       f_.get());
    out.data.resize(old + got);
    bytes_read_ += got;
    eof = got < chunk_bytes_;
    if (out.data.size() >= chunk_bytes_ || eof) {
      if (!eof) {
        // Trim back to the last line boundary; a window with no newline at
        // all is one oversized line — loop to grow it until its newline.
        const std::size_t nl = out.data.rfind('\n');
        if (nl == std::string::npos) continue;
        carry_.assign(out.data, nl + 1, std::string::npos);
        out.data.resize(nl + 1);
      }
      break;
    }
  }
  consumed_ += out.data.size();
  return !out.data.empty();
}

std::size_t parse_text_chunk(std::string_view text,
                             std::vector<RawPair>& out) {
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lines;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const char* p = line.data();
    const char* const end = line.data() + line.size();
    RawPair pair;
    if (!parse_u64(p, end, pair.a) || !parse_u64(p, end, pair.b)) continue;
    out.push_back(pair);
  }
  return lines;
}

IdInterner::IdInterner(std::uint64_t input_bytes, std::uint64_t max_vertices,
                       std::string path)
    : cap_(std::min<std::uint64_t>(max_vertices, 0xffffffffull)),
      path_(std::move(path)) {
  // A SNAP line is ~12-24 bytes and most ids repeat; sizing up front avoids
  // most of the doublings on large inputs. A 16-byte slot per two hinted
  // ids keeps the table at 8 bytes per hinted id.
  static_assert(sizeof(Slot) == 16);
  const std::uint64_t hint =
      std::min<std::uint64_t>(input_bytes / 24 + 16, std::uint64_t{1} << 26);
  slots_.resize(static_cast<std::size_t>(std::bit_floor(hint / 2)));
  mask_ = slots_.size() - 1;
}

VertexId IdInterner::insert(std::uint64_t raw, std::size_t slot) {
  if (size_ >= cap_) overflow();
  if (std::size_t{size_} + 1 > slots_.size() / 2) {
    const auto empty_slot = [this](std::uint64_t r) {
      std::size_t i = slot_of(r);
      while (slots_[i].id != kEmpty) i = (i + 1) & mask_;
      return i;
    };
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& s : old)
      if (s.id != kEmpty) slots_[empty_slot(s.raw)] = s;
    slot = empty_slot(raw);
  }
  slots_[slot] = {raw, size_};
  return size_++;
}

void IdInterner::overflow() const {
  throw std::runtime_error("atlc: vertex id space overflow: more than " +
                           std::to_string(cap_) + " distinct vertex ids in " +
                           path_);
}

EdgeList load_text_edges(const std::string& path, Directedness directedness,
                         std::uint64_t max_vertices) {
  require_text(path);
  std::vector<Edge> edges;
  VertexId n = 0;
  {
    // Scoped so the window, the pair buffer and the id table are freed
    // before symmetrize doubles the edge list (the load's peak).
    ChunkReader reader(path, kTextWindowBytes);
    IdInterner intern(reader.file_bytes(), max_vertices, path);
    edges.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        reader.file_bytes() / 12 + 16, std::uint64_t{1} << 26)));
    TextChunk chunk;
    std::vector<RawPair> pairs;
    while (reader.next(chunk)) {
      pairs.clear();
      parse_text_chunk(chunk.data, pairs);
      // Braced init evaluates left to right: a is interned before b.
      for (const RawPair& p : pairs)
        edges.push_back({intern(p.a), intern(p.b)});
    }
    n = intern.size();
  }
  EdgeList out(n, std::move(edges), directedness);
  if (directedness == Directedness::Undirected) out.symmetrize();
  return out;
}

std::size_t save_text_edges(const EdgeList& edges, const std::string& path) {
  // A sorted symmetric undirected list stores every edge in both
  // orientations; write it once (u <= v) and let the loader's symmetrize
  // restore the other. In sorted order the first line naming an id is a
  // u <= v line, so the reload interns ids in the same order.
  const std::vector<Edge>& list = edges.edges();
  const bool once = edges.directedness() == Directedness::Undirected &&
                    std::is_sorted(list.begin(), list.end()) &&
                    edges.is_symmetric();
  const auto written = [once](const Edge& e) { return !once || e.u <= e.v; };
  const auto lines = static_cast<std::size_t>(
      std::count_if(list.begin(), list.end(), written));
  File f = open_or_throw(path, "w");
  std::fprintf(f.get(), "# atlc edge list: %u vertices, %zu edges\n",
               edges.num_vertices(), lines);
  for (const Edge& e : list)
    if (written(e)) std::fprintf(f.get(), "%u %u\n", e.u, e.v);
  return lines;
}

// ---------------------------------------------------------------------------
// ATLC binary

std::optional<std::uint32_t> sniff_atlc(const std::string& path) {
  File f = open_or_throw(path, "rb");
  std::uint32_t word[2] = {0, 0};
  if (std::fread(word, sizeof(word[0]), 2, f.get()) == 0 || word[0] != kMagic)
    return std::nullopt;
  return word[1];
}

void require_text(const std::string& path) {
  const std::optional<std::uint32_t> version = sniff_atlc(path);
  if (!version) return;
  if (*version == kSnapshotVersion)
    throw std::runtime_error(
        "atlc: this is an ATLC snapshot, not SNAP text — open it with "
        "atlc_run --snapshot: " + path);
  throw std::runtime_error("atlc: an ATLC binary file (version " +
                           std::to_string(*version) +
                           ") is not SNAP text: " + path);
}

AtlcPrefix read_atlc_prefix(std::FILE* f, const std::string& path) {
  std::uint32_t word[4];
  std::uint64_t m = 0;
  std::rewind(f);
  if (std::fread(word, sizeof(word), 1, f) != 1 ||
      std::fread(&m, sizeof(m), 1, f) != 1)
    throw std::runtime_error(
        "atlc: truncated header (file smaller than the " +
        std::to_string(kAtlcPrefixBytes) + "-byte ATLC header): " + path);
  if (word[0] != kMagic)
    throw std::runtime_error("atlc: bad magic (not an ATLC file): " + path);
  if (word[1] != kSnapshotVersion)
    throw std::runtime_error(
        "atlc: unsupported ATLC binary version " + std::to_string(word[1]) +
        " (expected " + std::to_string(kSnapshotVersion) +
        "; re-run atlc_ingest on the SNAP text to rebuild it): " + path);
  if (word[2] > 1)
    throw std::runtime_error("atlc: corrupt directedness flag: " + path);
  return {word[2] ? Directedness::Directed : Directedness::Undirected,
          word[3], m};
}

void write_atlc_prefix(std::FILE* f, const AtlcPrefix& prefix,
                       const std::string& path) {
  const std::uint32_t word[4] = {
      kMagic, kSnapshotVersion,
      prefix.directedness == Directedness::Directed ? 1u : 0u,
      prefix.num_vertices};
  if (std::fwrite(word, sizeof(word), 1, f) != 1 ||
      std::fwrite(&prefix.num_edges, sizeof(prefix.num_edges), 1, f) != 1)
    throw std::runtime_error("atlc: short write (disk full?): " + path);
}

}  // namespace atlc::graph
