#include "atlc/rma/runtime.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "atlc/util/check.hpp"
#include "atlc/util/timer.hpp"

namespace atlc::rma {

namespace detail {

/// Cyclic-generation barrier that can be "poisoned" when a rank dies with an
/// exception: waiters wake up and rethrow instead of deadlocking the run.
class PoisonBarrier {
 public:
  explicit PoisonBarrier(std::uint32_t parties) : parties_(parties) {}

  void wait() {
    std::unique_lock lk(mu_);
    if (poisoned_)
      throw std::runtime_error("rma::Runtime: barrier poisoned (a rank failed)");
    const std::uint64_t my_gen = gen_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++gen_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lk, [&] { return gen_ != my_gen || poisoned_; });
    if (poisoned_ && gen_ == my_gen)
      throw std::runtime_error("rma::Runtime: barrier poisoned (a rank failed)");
  }

  void poison() {
    std::lock_guard lk(mu_);
    poisoned_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint32_t parties_;
  std::uint32_t waiting_ = 0;
  std::uint64_t gen_ = 0;
  bool poisoned_ = false;
};

struct WindowState {
  std::vector<std::pair<const std::byte*, std::uint64_t>> parts;
  std::size_t elem_size = 0;
  std::uint64_t id = 0;
  /// Bumped once per completed refresh_window collective. Only mutated
  /// between the collective's barriers, so steady-state readers see a
  /// stable value without locking.
  std::uint64_t epoch = 0;
  std::uint32_t refresh_parties = 0;  ///< ranks arrived at current refresh
};

struct SharedState {
  explicit SharedState(Runtime::Options o)
      : opts(std::move(o)),
        bar(opts.ranks),
        clock_slots(opts.ranks, 0.0),
        u64_slots(opts.ranks, 0),
        dbl_slots(opts.ranks, 0.0),
        a2a(opts.ranks) {}

  Runtime::Options opts;
  PoisonBarrier bar;

  std::mutex window_mu;
  std::map<std::uint64_t, std::unique_ptr<WindowState>> windows;

  std::vector<double> clock_slots;
  std::vector<std::uint64_t> u64_slots;
  std::vector<double> dbl_slots;
  std::vector<std::vector<std::vector<std::uint32_t>>> a2a;  // [src][dst]

  std::mutex error_mu;
  std::exception_ptr first_error;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// WindowBase

const std::byte* WindowBase::view_bytes(std::uint32_t target,
                                        std::uint64_t byte_offset,
                                        std::uint64_t bytes) const {
  ATLC_DCHECK(state_ != nullptr, "view of an invalid window");
  ATLC_CHECK(target < state_->parts.size(), "window get: bad target rank");
  const auto& part = state_->parts[target];
  ATLC_CHECK(byte_offset <= part.second && bytes <= part.second - byte_offset,
             "window get: out of exposed range");
  return part.first + byte_offset;
}

GetHandle WindowBase::get_bytes(std::uint32_t target,
                                std::uint64_t byte_offset, std::uint64_t bytes,
                                void* dst) const {
  ATLC_DCHECK(ctx_ != nullptr, "get on invalid window");
  // The data transfer happens eagerly (shared address space); only the
  // *virtual* completion time reflects the interconnect.
  std::memcpy(dst, view_bytes(target, byte_offset, bytes), bytes);

  auto& ctx = *ctx_;
  if (target == ctx.rank()) {
    ++ctx.stats().local_gets;
    ctx.stats().local_bytes += bytes;
    // Local window reads bypass the NIC; they complete after a DRAM access.
    return GetHandle{ctx.now() + ctx.net().time_local(bytes)};
  }
  ++ctx.stats().remote_gets;
  ctx.stats().remote_bytes += bytes;
  // Per-rank NIC serialisation: consecutive gets from one rank share the
  // injection port, so transfer k cannot start before k-1 left the port.
  const double start = std::max(ctx.now_, ctx.nic_free_);
  const double done = start + ctx.net().time_remote(bytes);
  ctx.nic_free_ = done;
  ctx.tracer_.transfer("get", start, done, target, bytes);
  return GetHandle{done};
}

std::uint64_t WindowBase::part_bytes(std::uint32_t rank) const {
  ATLC_DCHECK(state_ != nullptr, "part_bytes on invalid window");
  return state_->parts[rank].second;
}

std::uint64_t WindowBase::id() const {
  ATLC_DCHECK(state_ != nullptr, "id on invalid window");
  return state_->id;
}

std::uint64_t WindowBase::epoch() const {
  ATLC_DCHECK(state_ != nullptr, "epoch on invalid window");
  return state_->epoch;
}

// ---------------------------------------------------------------------------
// RankCtx

std::uint32_t RankCtx::num_ranks() const { return shared_->opts.ranks; }
const NetworkModel& RankCtx::net() const { return shared_->opts.net; }

void RankCtx::charge_compute(double seconds) {
  tracer_.charge("compute", "compute", now_, seconds);
  now_ += seconds;
  stats_.compute_seconds += seconds;
}

void RankCtx::charge_comm(double seconds, const char* why) {
  tracer_.charge("comm", why, now_, seconds);
  now_ += seconds;
  stats_.comm_seconds += seconds;
}

void RankCtx::flush(GetHandle h) {
  ++stats_.flushes;
  if (h.complete_at > now_) charge_comm(h.complete_at - now_, "flush_wait");
}

void RankCtx::flush_all() { flush(GetHandle{nic_free_}); }

WindowBase RankCtx::create_window_bytes(const void* data, std::uint64_t bytes,
                                        std::size_t elem_size) {
  auto& sh = *shared_;
  const std::uint64_t seq = window_seq_++;
  detail::WindowState* state = nullptr;
  {
    std::lock_guard lk(sh.window_mu);
    auto& slot = sh.windows[seq];
    if (!slot) {
      slot = std::make_unique<detail::WindowState>();
      slot->parts.resize(sh.opts.ranks);
      slot->elem_size = elem_size;
      slot->id = seq;
    }
    ATLC_CHECK(slot->elem_size == elem_size,
               "collective window creation order mismatch across ranks");
    slot->parts[rank_] = {static_cast<const std::byte*>(data), bytes};
    state = slot.get();
  }
  barrier();  // all ranks registered; window creation is collective in MPI
  WindowBase w;
  w.state_ = state;
  w.ctx_ = this;
  return w;
}

void RankCtx::refresh_window_bytes(WindowBase& w, const void* data,
                                   std::uint64_t bytes) {
  ATLC_CHECK(w.valid(), "refresh of an invalid window");
  auto& sh = *shared_;
  // Entry fence: the slowest reader finishes its gets on the old exposure
  // before any rank swaps its part out from under it.
  barrier();
  {
    std::lock_guard lk(sh.window_mu);
    auto* st = w.state_;
    st->parts[rank_] = {static_cast<const std::byte*>(data), bytes};
    if (++st->refresh_parties == sh.opts.ranks) {
      st->refresh_parties = 0;
      ++st->epoch;  // one bump per collective, by the last arriver
    }
  }
  // Exit fence: every part republished and the epoch advanced before any
  // rank resumes issuing gets against the window.
  barrier();
}

template <typename Read>
void RankCtx::rendezvous(const char* why, Read&& read) {
  auto& sh = *shared_;
  sh.clock_slots[rank_] = now_;
  sh.bar.wait();
  const double cost = read();
  const double latest =
      *std::max_element(sh.clock_slots.begin(), sh.clock_slots.end());
  sh.bar.wait();
  const double wait = (latest - now_) + cost;
  tracer_.charge("comm", why, now_, wait);
  stats_.comm_seconds += wait;
  sync_wait_ += latest - now_;
  now_ = latest + cost;
}

void RankCtx::barrier() {
  rendezvous("barrier", [&] { return net().time_barrier(num_ranks()); });
  ++stats_.barriers;
}

std::uint64_t RankCtx::allreduce_sum(std::uint64_t value) {
  auto& sh = *shared_;
  sh.u64_slots[rank_] = value;
  std::uint64_t sum = 0;
  rendezvous("allreduce", [&] {
    for (auto v : sh.u64_slots) sum += v;
    return net().time_barrier(num_ranks());
  });
  return sum;
}

double RankCtx::allreduce_max(double value) {
  auto& sh = *shared_;
  sh.dbl_slots[rank_] = value;
  double result = 0.0;
  rendezvous("allreduce", [&] {
    result = *std::max_element(sh.dbl_slots.begin(), sh.dbl_slots.end());
    return net().time_barrier(num_ranks());
  });
  return result;
}

std::vector<std::vector<std::uint32_t>> RankCtx::all_to_all(
    const std::vector<std::vector<std::uint32_t>>& out) {
  ATLC_CHECK(out.size() == num_ranks(), "all_to_all: need one payload per rank");
  auto& sh = *shared_;
  const std::uint32_t p = num_ranks();

  std::uint64_t bytes_out = 0;
  for (const auto& payload : out) bytes_out += payload.size() * 4;
  sh.a2a[rank_] = out;

  std::vector<std::vector<std::uint32_t>> in(p);
  // Blocking all-to-all cost: synchronise to the slowest rank (this is the
  // synchronisation overhead the paper attributes to TriC), then pay one
  // setup per peer plus the serialised byte volume on the busier direction.
  rendezvous("a2a", [&] {
    std::uint64_t bytes_in = 0;
    for (std::uint32_t src = 0; src < p; ++src) {
      in[src] = sh.a2a[src][rank_];
      bytes_in += in[src].size() * 4;
    }
    return net().remote_alpha_s * static_cast<double>(p - 1) +
           net().remote_byte_s *
               static_cast<double>(std::max(bytes_out, bytes_in)) +
           net().time_barrier(p);
  });
  stats_.messages_sent += p - 1;
  stats_.bytes_sent += bytes_out;
  ++stats_.barriers;
  return in;
}

// ---------------------------------------------------------------------------
// Runtime

Runtime::Result Runtime::run(const Options& options, const RankFn& fn) {
  ATLC_CHECK(options.ranks > 0, "Runtime: need at least one rank");
  detail::SharedState shared(options);

  Result result;
  result.stats.resize(options.ranks);
  result.clocks.resize(options.ranks, 0.0);

  // Size the per-rank trace buffers before any rank thread can record:
  // after this, appends are rank-disjoint and lock-free.
  if (options.trace != nullptr) options.trace->prepare(options.ranks);

  util::Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(options.ranks);
  for (std::uint32_t r = 0; r < options.ranks; ++r) {
    threads.emplace_back([&, r] {
      RankCtx ctx(&shared, r);
      if (shared.opts.trace != nullptr)
        ctx.tracer_.bind(
            shared.opts.trace, r,
            [](const void* p) { return static_cast<const RankCtx*>(p)->now(); },
            &ctx);
      try {
        fn(ctx);
      } catch (...) {
        {
          std::lock_guard lk(shared.error_mu);
          if (!shared.first_error) shared.first_error = std::current_exception();
        }
        shared.bar.poison();
      }
      ctx.tracer_.unbind();  // flush the pending coalesced charge run
      result.stats[r] = ctx.stats();
      result.clocks[r] = ctx.now();
    });
  }
  for (auto& t : threads) t.join();
  result.wall_seconds = wall.elapsed_s();

  if (shared.first_error) std::rethrow_exception(shared.first_error);

  result.makespan = *std::max_element(result.clocks.begin(), result.clocks.end());
  return result;
}

}  // namespace atlc::rma
