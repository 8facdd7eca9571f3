#pragma once

#include <cstdint>

#include "atlc/util/counters.hpp"

namespace atlc::rma {

/// Per-rank communication counters. Benches aggregate these across ranks to
/// produce the paper's reported quantities (remote-read fraction, comm-time
/// share, average remote-read time, bytes moved).
struct CommStats {
  std::uint64_t remote_gets = 0;   ///< one-sided gets targeting other ranks
  std::uint64_t local_gets = 0;    ///< window gets that resolved locally
  std::uint64_t remote_bytes = 0;
  std::uint64_t local_bytes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t barriers = 0;
  std::uint64_t messages_sent = 0;  ///< two-sided (TriC substrate)
  std::uint64_t bytes_sent = 0;
  /// Adjacency fetches that would have been remote but were served from the
  /// rank's hub replica instead (zero RMA; DESIGN.md §8). Not counted in
  /// remote_gets or local_gets — a hub hit issues no window get at all.
  std::uint64_t hub_local_hits = 0;
  /// Remote row-*segment* fetches issued under a 2D partition (a subset of
  /// the two-get protocols counted above; always 0 on 1D partitions, where
  /// the unit of fetch is the whole row). DESIGN.md §10.
  std::uint64_t segment_gets = 0;

  /// Virtual seconds this rank spent blocked on communication (waiting for
  /// get completion, synchronising collectives, two-sided exchanges).
  double comm_seconds = 0.0;
  /// Virtual seconds charged as local computation (thread-CPU measured).
  double compute_seconds = 0.0;

  /// The counter list: JSON key order, field-wise sums, audits.
  static constexpr auto counters() {
    using S = CommStats;
    return std::tuple{
        util::Counter{"remote_gets", &S::remote_gets},
        util::Counter{"local_gets", &S::local_gets},
        util::Counter{"remote_bytes", &S::remote_bytes},
        util::Counter{"local_bytes", &S::local_bytes},
        util::Counter{"flushes", &S::flushes},
        util::Counter{"barriers", &S::barriers},
        util::Counter{"messages_sent", &S::messages_sent},
        util::Counter{"bytes_sent", &S::bytes_sent},
        util::Counter{"hub_local_hits", &S::hub_local_hits},
        util::Counter{"segment_gets", &S::segment_gets},
        util::Counter{"comm_seconds", &S::comm_seconds},
        util::Counter{"compute_seconds", &S::compute_seconds}};
  }

  CommStats& operator+=(const CommStats& o) {
    return util::add_counters(*this, o);
  }
  bool operator==(const CommStats&) const = default;
};
static_assert(util::lists_every_member<CommStats>());

}  // namespace atlc::rma
