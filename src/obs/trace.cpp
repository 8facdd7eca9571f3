#include "atlc/obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <numeric>

#include "atlc/util/check.hpp"
#include "atlc/util/json.hpp"

namespace atlc::obs {

// ---------------------------------------------------------------------------
// Tracer

void Tracer::bind(TraceSink* sink, std::uint32_t rank, ClockFn clock,
                  const void* clock_obj) {
  ATLC_CHECK(sink != nullptr && clock != nullptr, "Tracer::bind: null sink");
  sink_ = sink;
  rank_ = rank;
  clock_ = clock;
  clock_obj_ = clock_obj;
  run_name_ = nullptr;
  span_stack_.clear();
}

void Tracer::unbind() {
  if (!sink_) return;
  flush_run();
  sink_ = nullptr;
  clock_ = nullptr;
  clock_obj_ = nullptr;
}

void Tracer::emit(const TraceEvent& e) {
  TraceEvent out = e;
  out.wall = sink_->wall_now();
  sink_->on_event(rank_, out);
}

void Tracer::flush_run() {
  if (!run_name_) return;
  TraceEvent e;
  e.name = run_name_;
  e.cat = run_cat_;
  e.phase = EventPhase::Complete;
  e.ts = run_start_;
  e.dur = run_end_ - run_start_;
  run_name_ = nullptr;
  emit(e);
}

void Tracer::begin(const char* name) {
  if (!sink_) return;
  flush_run();
  span_stack_.push_back(name);
  TraceEvent e;
  e.name = name;
  e.cat = "phase";
  e.phase = EventPhase::Begin;
  e.ts = clock_(clock_obj_);
  emit(e);
}

void Tracer::end(const char* name) {
  if (!sink_) return;
  flush_run();
  ATLC_CHECK(!span_stack_.empty(), "Tracer::end without a matching begin");
  ATLC_CHECK(std::strcmp(span_stack_.back(), name) == 0,
             "Tracer::end: span name does not match the innermost begin");
  span_stack_.pop_back();
  TraceEvent e;
  e.name = name;
  e.cat = "phase";
  e.phase = EventPhase::End;
  e.ts = clock_(clock_obj_);
  emit(e);
}

void Tracer::instant(const char* name, TraceArg a0, TraceArg a1) {
  if (!sink_) return;
  TraceEvent e;
  e.name = name;
  e.cat = "event";
  e.phase = EventPhase::Instant;
  e.ts = clock_(clock_obj_);
  e.arg0 = a0;
  e.arg1 = a1;
  emit(e);
}

void Tracer::counter(const char* name, const char* key, std::uint64_t value) {
  if (!sink_) return;
  TraceEvent e;
  e.name = name;
  e.cat = "counter";
  e.phase = EventPhase::Counter;
  e.ts = clock_(clock_obj_);
  e.arg0 = {key, value};
  emit(e);
}

void Tracer::charge(const char* cat, const char* name, double start,
                    double seconds) {
  if (!sink_) return;
  // Coalesce abutting same-cause charges: the engine alternates causes at
  // edge granularity, and the previous charge ended exactly where this one
  // starts whenever nothing else advanced the rank's clock in between.
  if (run_name_ != nullptr && run_end_ == start &&
      std::strcmp(run_name_, name) == 0) {
    run_end_ += seconds;
    return;
  }
  flush_run();
  run_cat_ = cat;
  run_name_ = name;
  run_start_ = start;
  run_end_ = start + seconds;
}

void Tracer::transfer(const char* name, double start, double done,
                      std::uint32_t target, std::uint64_t bytes) {
  if (!sink_) return;
  TraceEvent e;
  e.name = name;
  e.cat = "nic";
  e.phase = EventPhase::Complete;
  e.ts = start;
  e.dur = done - start;
  e.track = 1;
  e.arg0 = {"target", target};
  e.arg1 = {"bytes", bytes};
  emit(e);
}

// ---------------------------------------------------------------------------
// TraceCollector

void TraceCollector::prepare(std::uint32_t ranks) {
  if (buffers_.size() < ranks) buffers_.resize(ranks);
}

void TraceCollector::on_event(std::uint32_t rank, const TraceEvent& e) {
  ATLC_DCHECK(rank < buffers_.size(), "TraceCollector: rank not prepared");
  buffers_[rank].push_back(e);
}

double TraceCollector::wall_now() const {
  return capture_wall ? wall_.elapsed_s() : -1.0;
}

std::uint64_t TraceCollector::total_events() const {
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b.size();
  return n;
}

double TraceCollector::track_total(std::uint32_t rank, const char* cat) const {
  double total = 0.0;
  for (const TraceEvent& e : buffers_[rank])
    if (e.phase == EventPhase::Complete && e.track == 0 &&
        std::strcmp(e.cat, cat) == 0)
      total += e.dur;
  return total;
}

namespace {

void append_kv(std::string& out, const char* key, const char* value) {
  out.push_back('"');
  out += key;
  out += "\":\"";
  out += util::json_escape(value);
  out.push_back('"');
}

/// Timestamps are virtual seconds; Chrome wants microseconds. Fixed-point
/// formatting keeps the mapping monotone (equal or increasing input never
/// formats as a decrease), which check_trace.py validates per track.
void append_us(std::string& out, double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds * 1e6);
  out += buf;
}

const char* phase_str(EventPhase ph) {
  switch (ph) {
    case EventPhase::Begin: return "B";
    case EventPhase::End: return "E";
    case EventPhase::Instant: return "i";
    case EventPhase::Complete: return "X";
    case EventPhase::Counter: return "C";
  }
  return "?";
}

void append_event(std::string& out, const TraceEvent& e, std::uint32_t tid) {
  out += "{";
  append_kv(out, "name", e.name);
  out += ",";
  append_kv(out, "cat", e.cat);
  out += ",";
  append_kv(out, "ph", phase_str(e.phase));
  out += ",\"pid\":0,\"tid\":";
  out += std::to_string(tid);
  out += ",\"ts\":";
  append_us(out, e.ts);
  if (e.phase == EventPhase::Complete) {
    out += ",\"dur\":";
    append_us(out, e.dur);
  }
  if (e.phase == EventPhase::Instant) out += ",\"s\":\"t\"";
  const bool has_args =
      e.arg0.key != nullptr || e.arg1.key != nullptr || e.wall >= 0.0;
  if (has_args) {
    out += ",\"args\":{";
    bool first = true;
    for (const TraceArg* a : {&e.arg0, &e.arg1}) {
      if (!a->key) continue;
      if (!first) out += ",";
      first = false;
      out.push_back('"');
      out += util::json_escape(a->key);
      out += "\":";
      out += std::to_string(a->value);
    }
    if (e.wall >= 0.0) {
      if (!first) out += ",";
      char buf[48];
      std::snprintf(buf, sizeof(buf), "\"wall_s\":%.9f", e.wall);
      out += buf;
    }
    out += "}";
  }
  out += "}";
}

void append_thread_name(std::string& out, std::uint32_t tid,
                        const std::string& name) {
  out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
  out += std::to_string(tid);
  out += ",\"args\":{\"name\":\"";
  out += name;  // generated names only; nothing to escape
  out += "\"}}";
}

}  // namespace

std::string TraceCollector::chrome_trace_string() const {
  std::string out;
  out.reserve(256 + total_events() * 96);
  out += "{\"traceEvents\":[\n";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"atlc virtual-time trace\"}}";
  for (std::uint32_t r = 0; r < ranks(); ++r) {
    out += ",\n";
    append_thread_name(out, 2 * r, "rank " + std::to_string(r));
    out += ",\n";
    append_thread_name(out, 2 * r + 1, "rank " + std::to_string(r) + " nic");
  }
  for (std::uint32_t r = 0; r < ranks(); ++r) {
    const auto& buf = buffers_[r];
    for (std::uint8_t track = 0; track < 2; ++track) {
      // Coalesced charge events are emitted when their run CLOSES, i.e.
      // after later-timestamped instants; a per-track stable sort restores
      // timestamp order (stable: emission order breaks ts ties, which keeps
      // B before E at equal timestamps).
      std::vector<std::uint32_t> idx;
      idx.reserve(buf.size());
      for (std::uint32_t i = 0; i < buf.size(); ++i)
        if (buf[i].track == track) idx.push_back(i);
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return buf[a].ts < buf[b].ts;
                       });
      for (const std::uint32_t i : idx) {
        out += ",\n";
        append_event(out, buf[i], 2 * r + track);
      }
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool TraceCollector::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string text = chrome_trace_string();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace atlc::obs
