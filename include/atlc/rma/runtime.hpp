#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "atlc/obs/trace.hpp"
#include "atlc/rma/comm_stats.hpp"
#include "atlc/rma/network_model.hpp"

namespace atlc::rma {

class RankCtx;
namespace detail {
struct SharedState;
struct WindowState;
}  // namespace detail

/// Completion token of a non-blocking one-sided get (MPI-RMA semantics: the
/// destination buffer may only be read after a flush). `complete_at` is the
/// virtual time at which the transfer finishes under the network model.
struct GetHandle {
  double complete_at = 0.0;
};

/// Type-erased window core. A window is the simulated equivalent of an MPI
/// window created over passive-target epochs: each rank exposes a read-only
/// memory region; any rank may `get` from any part without involving the
/// target. Between collective `refresh_window` calls the exposed data is
/// immutable (the paper's always-cache assumption); each refresh bumps the
/// window's epoch counter, making "the data behind this window changed" an
/// observable event consumers (clampi's epoch invalidation) can key on.
class WindowBase {
 public:
  WindowBase() = default;

  /// Non-blocking byte-granularity get. Data lands in `dst` immediately in
  /// this simulation, but the *virtual* completion respects alpha + s*beta
  /// and per-rank NIC serialisation; callers must flush before relying on
  /// virtual-time ordering.
  GetHandle get_bytes(std::uint32_t target, std::uint64_t byte_offset,
                      std::uint64_t bytes, void* dst) const;

  /// Read-only view of `bytes` bytes at `byte_offset` of `target`'s exposed
  /// part, range-checked like get_bytes() but with no transfer: it touches
  /// no stats and no clock (callers price the access themselves). The view
  /// aliases the exposed memory, so it is valid until the window's next
  /// refresh_window.
  [[nodiscard]] const std::byte* view_bytes(std::uint32_t target,
                                            std::uint64_t byte_offset,
                                            std::uint64_t bytes) const;

  [[nodiscard]] std::uint64_t part_bytes(std::uint32_t rank) const;
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// Stable identifier of this window within the runtime (creation order).
  [[nodiscard]] std::uint64_t id() const;

  /// Version counter: 0 at creation, +1 per completed refresh_window
  /// collective. Stable between collectives (only refresh_window mutates
  /// it, under its barriers), so readers need no synchronisation beyond
  /// participating in the collectives themselves.
  [[nodiscard]] std::uint64_t epoch() const;

 protected:
  friend class RankCtx;
  detail::WindowState* state_ = nullptr;
  RankCtx* ctx_ = nullptr;
};

/// Typed view over a WindowBase, analogous to an MPI window of `T` elements.
template <typename T>
class Window : public WindowBase {
 public:
  Window() = default;
  explicit Window(WindowBase base) : WindowBase(base) {}

  GetHandle get(std::uint32_t target, std::uint64_t offset,
                std::uint64_t count, T* dst) const {
    return get_bytes(target, offset * sizeof(T), count * sizeof(T), dst);
  }

  /// `count` elements at element `offset` of `target`'s exposed part, as a
  /// read-only view (see view_bytes(): no stats, no clock, valid until the
  /// next refresh_window).
  [[nodiscard]] std::span<const T> view(std::uint32_t target,
                                        std::uint64_t offset,
                                        std::uint64_t count) const {
    return {reinterpret_cast<const T*>(
                view_bytes(target, offset * sizeof(T), count * sizeof(T))),
            count};
  }

  [[nodiscard]] std::uint64_t part_size(std::uint32_t rank) const {
    return part_bytes(rank) / sizeof(T);
  }
};

/// Per-rank execution context handed to the SPMD body. Mirrors the MPI-RMA
/// toolbox the paper's implementation uses: window creation (collective),
/// one-sided gets + flush (passive target), plus the small set of
/// collectives needed around the asynchronous compute region.
class RankCtx {
 public:
  [[nodiscard]] std::uint32_t rank() const { return rank_; }
  [[nodiscard]] std::uint32_t num_ranks() const;
  [[nodiscard]] const NetworkModel& net() const;

  [[nodiscard]] CommStats& stats() { return stats_; }
  [[nodiscard]] const CommStats& stats() const { return stats_; }

  /// Virtual clock (seconds since run start on this rank).
  [[nodiscard]] double now() const { return now_; }
  /// Virtual seconds this rank has waited at collectives for slower ranks
  /// to arrive (the clock alignment, not the collectives' own cost).
  /// now() - sync_wait() is the rank's busy time: the load-imbalance input
  /// (core::run_edge_analytic records it per rank).
  [[nodiscard]] double sync_wait() const { return sync_wait_; }
  /// Charge locally-measured computation to the virtual clock.
  void charge_compute(double seconds);
  /// Charge communication wait time to the virtual clock. `why` labels the
  /// charge in traces ("flush_wait", "cache_hit", ...) — string literal.
  void charge_comm(double seconds, const char* why = "comm");

  /// This rank's trace recorder. Unbound (every record call a no-op) unless
  /// the run was launched with Options::trace; layers above hook in through
  /// it without further plumbing.
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }

  /// Collective window creation: every rank contributes its local part.
  /// Must be called by all ranks in the same order (like MPI_Win_create).
  ///
  /// LIFETIME: the exposed memory must stay valid until no peer can still
  /// get from it. As with MPI_Win_free, synchronise (e.g. ctx.barrier())
  /// before destroying an exposed buffer.
  template <typename T>
  Window<T> create_window(std::span<const T> local) {
    return Window<T>(create_window_bytes(local.data(),
                                         local.size() * sizeof(T), sizeof(T)));
  }

  /// Collective republication of a window's local part after the backing
  /// buffer was mutated (or reallocated: pointer and size may both change).
  /// Semantics follow an MPI_Win_fence pair around the mutation:
  ///   - entry barrier: orders the slowest reader's gets before any
  ///     republication;
  ///   - every rank re-registers its part (unchanged ranks pass the same
  ///     span) and the window's epoch() advances by exactly one;
  ///   - exit barrier: the new exposure and epoch are visible everywhere
  ///     before any rank resumes gets.
  /// The entry fence covers replacing the registration with a DIFFERENT
  /// buffer (keep the old one alive until the call returns). Mutating or
  /// freeing the OLD bytes before the call needs the caller's own barrier
  /// first — a peer may still be reading them.
  /// Must be called by all ranks, like create_window. See DESIGN.md §7.
  template <typename T>
  void refresh_window(Window<T>& w, std::span<const T> local) {
    refresh_window_bytes(w, local.data(), local.size() * sizeof(T));
  }

  /// Complete one pending get: advance the clock to its completion.
  void flush(GetHandle h);

  /// Synchronising barrier: aligns all virtual clocks to the max + barrier
  /// cost. Used at setup/teardown only — the compute loop is barrier-free.
  void barrier();

  std::uint64_t allreduce_sum(std::uint64_t value);

  /// Blocking all-to-all of uint32 payloads (the TriC substrate). Entry i of
  /// the argument is sent to rank i; entry i of the result was sent by rank
  /// i. Synchronising: models TriC's round structure where every rank waits
  /// for the slowest before proceeding.
  std::vector<std::vector<std::uint32_t>> all_to_all(
      const std::vector<std::vector<std::uint32_t>>& out);

 private:
  friend class Runtime;
  friend class WindowBase;

  RankCtx(detail::SharedState* shared, std::uint32_t rank)
      : shared_(shared), rank_(rank) {}

  WindowBase create_window_bytes(const void* data, std::uint64_t bytes,
                                 std::size_t elem_size);
  void refresh_window_bytes(WindowBase& w, const void* data,
                            std::uint64_t bytes);
  /// The rendezvous every collective shares: publish this rank's clock and
  /// wait; `read()` consumes the slots the other ranks published and returns
  /// the cost of leaving; wait again, then leave at the slowest arrival plus
  /// that cost. `why` labels the charge in traces. Defined in runtime.cpp,
  /// its only caller.
  template <typename Read>
  void rendezvous(const char* why, Read&& read);

  detail::SharedState* shared_;
  std::uint32_t rank_;
  CommStats stats_;
  obs::Tracer tracer_;
  double now_ = 0.0;
  double sync_wait_ = 0.0;
  double nic_free_ = 0.0;  ///< virtual time the injection port frees up
  std::uint64_t window_seq_ = 0;
};

/// SPMD runtime: runs the rank body on `ranks` OS threads sharing one
/// address space. This is the project's stand-in for `mpirun -n <p>` — see
/// DESIGN.md section 1 for why the substitution preserves the paper's
/// observable behaviour.
class Runtime {
 public:
  struct Options {
    std::uint32_t ranks = 2;
    NetworkModel net{};
    /// Optional trace sink: when set, every RankCtx's tracer is bound to it
    /// for the duration of the run (prepare()d for `ranks` before the rank
    /// threads start). Null = tracing off, hooks compile to a pointer test.
    obs::TraceCollector* trace = nullptr;
  };

  struct Result {
    std::vector<CommStats> stats;   ///< per-rank counters
    std::vector<double> clocks;     ///< per-rank final virtual time
    double makespan = 0.0;          ///< max over clocks ("longest rank")
    double wall_seconds = 0.0;      ///< real elapsed wall time of the run

    [[nodiscard]] CommStats total() const {
      CommStats t;
      for (const auto& s : stats) t += s;
      return t;
    }
  };

  using RankFn = std::function<void(RankCtx&)>;

  /// Launch the SPMD region and join. Exceptions thrown by any rank are
  /// rethrown (first one wins) after all threads have been joined.
  static Result run(const Options& options, const RankFn& fn);
};

}  // namespace atlc::rma
