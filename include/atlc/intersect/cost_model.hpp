#pragma once

#include <cstddef>

#include "atlc/intersect/intersect.hpp"

namespace atlc::intersect {

/// Analytic cost model of the intersection kernels, used by the distributed
/// engine to charge *compute* time to a rank's virtual clock.
///
/// Rationale: the simulation oversubscribes CPU cores when running many
/// ranks (e.g. 512 ranks on 2 cores), so measuring kernel wall time per edge
/// would be polluted by descheduling, and CLOCK_THREAD_CPUTIME_ID costs a
/// syscall per edge. Charging `c0 + c1 * work` with constants calibrated
/// once against the real kernels keeps per-rank virtual time deterministic,
/// oversubscription-proof, and faithful in shape (the paper's key ratio —
/// communication dominating computation at scale — is preserved, and
/// Section IV-D2 notes computation details have "minor effects on overall
/// performance" in the distributed regime).
///
/// The default constants are fixed prices, not measurements of the current
/// kernels: they are kept as they are so every checked-in virtual-time
/// baseline stays bit-identical when the host code gets faster. calibrate()
/// fits the kernels that run (ROADMAP item 1 tracks the gap).
struct CostModel {
  double per_call_ns = 12.0;          ///< loop/setup overhead per edge
  double ssi_ns_per_elem = 0.9;       ///< per element of |A| + |B|
  double binary_ns_per_probe = 3.5;   ///< per key * log2(|B|) probe step

  /// Per-kernel terms of the Tiered dispatch (tiered.hpp). MergeVec and
  /// Gallop run the same code as SSI and Binary but are priced under their
  /// own terms. These enter a rank's virtual clock ONLY when
  /// EngineConfig::intersect_tier is Tier::Tiered — the Paper tier never
  /// reads them, which is what keeps every pre-existing virtual-time smoke
  /// baseline bit-identical under the default configuration (DESIGN.md §9).
  double merge_ns_per_elem = 0.45;      ///< MergeVec, per element of |A|+|B|
  double gallop_ns_per_probe = 2.2;     ///< per key * log2(|long|/|short|)

  /// Predicted seconds for one |a ∩ b| with the given method. `Hybrid`
  /// prices whichever kernel the Eq. (3) rule would pick.
  [[nodiscard]] double seconds(Method m, std::size_t len_a,
                               std::size_t len_b) const;

  /// Predicted seconds for `keys` independent binary probes into a sorted
  /// list of `tree` elements. Unlike seconds(), no argument swap happens:
  /// this prices exactly that loop (TriC verifies each candidate closing
  /// edge with its own search, even when candidates outnumber the list).
  [[nodiscard]] double seconds_probes(std::size_t keys,
                                      std::size_t tree) const;

  /// Predicted seconds for one tiered intersection of a `len_a` list with
  /// a `len_b` list using kernel `k`.
  [[nodiscard]] double seconds_tiered(TierKernel k, std::size_t len_a,
                                      std::size_t len_b) const;

  /// Measure the real kernels on this host (one-time, ~10 ms) and return a
  /// fitted model. count_ssi is timed once and fits both the SSI and the
  /// MergeVec term, count_binary both the Binary and the Gallop term.
  /// Benches call this once; tests/defaults use the static constants above.
  [[nodiscard]] static CostModel calibrate();
};

}  // namespace atlc::intersect
