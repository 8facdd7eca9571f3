// Tests for the simulated MPI-3 RMA runtime: SPMD launch, windows,
// passive-target get/flush semantics, the virtual-clock network model,
// collectives, and the two-sided all-to-all substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "atlc/rma/comm_stats.hpp"
#include "atlc/rma/network_model.hpp"
#include "atlc/rma/runtime.hpp"

namespace atlc::rma {
namespace {

Runtime::Options opts(std::uint32_t ranks) {
  Runtime::Options o;
  o.ranks = ranks;
  return o;
}

// ---------------------------------------------------------------- launch ---

TEST(Runtime, RunsEveryRankExactlyOnce) {
  std::vector<std::atomic<int>> hits(8);
  Runtime::run(opts(8), [&](RankCtx& ctx) {
    EXPECT_EQ(ctx.num_ranks(), 8u);
    ++hits[ctx.rank()];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Runtime, SingleRankWorks) {
  int count = 0;
  Runtime::run(opts(1), [&](RankCtx& ctx) {
    EXPECT_EQ(ctx.rank(), 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(Runtime, ManyRanksOnFewCores) {
  // 128 ranks on a 2-core host must still complete (oversubscription).
  std::atomic<int> total{0};
  Runtime::run(opts(128), [&](RankCtx& ctx) {
    ctx.barrier();
    ++total;
  });
  EXPECT_EQ(total.load(), 128);
}

TEST(Runtime, ExceptionPropagatesWithoutDeadlock) {
  EXPECT_THROW(Runtime::run(opts(4),
                            [&](RankCtx& ctx) {
                              if (ctx.rank() == 2)
                                throw std::runtime_error("rank 2 died");
                              // Other ranks head into a barrier that rank 2
                              // never reaches — the poison must wake them.
                              ctx.barrier();
                            }),
               std::runtime_error);
}

TEST(Runtime, SyncWaitCountsOnlyWaitingForSlowerRanks) {
  std::vector<double> busy(3), waited(3);
  Runtime::run(opts(3), [&](RankCtx& ctx) {
    ctx.charge_compute(0.5 * (ctx.rank() + 1));
    ctx.barrier();
    ctx.charge_compute(ctx.rank() == 0 ? 1.0 : 0.0);
    (void)ctx.allreduce_sum(1);
    waited[ctx.rank()] = ctx.sync_wait();
    busy[ctx.rank()] = ctx.now() - ctx.sync_wait();
  });
  // Barrier: ranks 0 and 1 wait 1.0 and 0.5 for rank 2; allreduce: ranks 1
  // and 2 wait 1.0 for rank 0.
  EXPECT_NEAR(waited[0], 1.0, 1e-12);
  EXPECT_NEAR(waited[1], 1.5, 1e-12);
  EXPECT_NEAR(waited[2], 1.0, 1e-12);
  // Busy time is the rank's own work plus the collectives' own costs.
  EXPECT_NEAR(busy[0], busy[2], 1e-12);
  EXPECT_NEAR(busy[2] - busy[1], 0.5, 1e-12);
}

TEST(Runtime, CollectsPerRankStatsAndClocks) {
  const auto result = Runtime::run(opts(3), [&](RankCtx& ctx) {
    ctx.charge_compute(0.5 * (ctx.rank() + 1));
  });
  ASSERT_EQ(result.clocks.size(), 3u);
  EXPECT_DOUBLE_EQ(result.clocks[0], 0.5);
  EXPECT_DOUBLE_EQ(result.clocks[2], 1.5);
  EXPECT_DOUBLE_EQ(result.makespan, 1.5);
  EXPECT_DOUBLE_EQ(result.total().compute_seconds, 3.0);
  EXPECT_GT(result.wall_seconds, 0.0);
}

// --------------------------------------------------------------- windows ---

TEST(Window, RemoteGetReadsTargetData) {
  Runtime::run(opts(4), [&](RankCtx& ctx) {
    // Each rank exposes 8 values rank*100 + i.
    std::vector<std::uint32_t> local(8);
    for (std::size_t i = 0; i < 8; ++i)
      local[i] = ctx.rank() * 100 + static_cast<std::uint32_t>(i);
    auto win = ctx.create_window<std::uint32_t>(local);

    const std::uint32_t peer = (ctx.rank() + 1) % ctx.num_ranks();
    std::uint32_t buf[3];
    auto h = win.get(peer, 2, 3, buf);
    ctx.flush(h);
    EXPECT_EQ(buf[0], peer * 100 + 2);
    EXPECT_EQ(buf[2], peer * 100 + 4);
    ctx.barrier();  // keep exposed memory alive until all peers finished
  });
}

TEST(Window, PartSizesPerRank) {
  Runtime::run(opts(3), [&](RankCtx& ctx) {
    std::vector<double> local(ctx.rank() + 1, 1.0);
    auto win = ctx.create_window<double>(local);
    for (std::uint32_t r = 0; r < 3; ++r) EXPECT_EQ(win.part_size(r), r + 1);
  });
}

TEST(Window, MultipleWindowsKeepDistinctIds) {
  Runtime::run(opts(2), [&](RankCtx& ctx) {
    std::vector<int> a(4, 1), b(4, 2);
    auto wa = ctx.create_window<int>(a);
    auto wb = ctx.create_window<int>(b);
    EXPECT_NE(wa.id(), wb.id());
    int buf;
    auto h = wb.get(1 - ctx.rank(), 0, 1, &buf);
    ctx.flush(h);
    EXPECT_EQ(buf, 2);
    ctx.barrier();
  });
}

TEST(Window, LocalGetCountsAsLocal) {
  Runtime::run(opts(2), [&](RankCtx& ctx) {
    std::vector<int> local(4, 7);
    auto win = ctx.create_window<int>(local);
    int buf;
    ctx.flush(win.get(ctx.rank(), 1, 1, &buf));
    EXPECT_EQ(buf, 7);
    EXPECT_EQ(ctx.stats().local_gets, 1u);
    EXPECT_EQ(ctx.stats().remote_gets, 0u);
  });
}

TEST(Window, ViewAliasesExposedPartWithoutStatsOrClock) {
  Runtime::run(opts(2), [&](RankCtx& ctx) {
    std::vector<std::uint32_t> local(8);
    for (std::size_t i = 0; i < 8; ++i)
      local[i] = ctx.rank() * 100 + static_cast<std::uint32_t>(i);
    auto win = ctx.create_window<std::uint32_t>(local);
    const CommStats stats_before = ctx.stats();
    const double clock_before = ctx.now();

    const std::uint32_t peer = 1 - ctx.rank();
    const auto v = win.view(peer, 2, 6);
    ASSERT_EQ(v.size(), 6u);
    EXPECT_EQ(v[0], peer * 100 + 2);
    EXPECT_EQ(v[5], peer * 100 + 7);
    EXPECT_EQ(win.view(ctx.rank(), 0, 8).data(), local.data());
    EXPECT_EQ(ctx.stats(), stats_before);
    EXPECT_EQ(ctx.now(), clock_before);
    ctx.barrier();
  });
}

TEST(Window, ViewOutsideExposedPartDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(Runtime::run(opts(2),
                            [&](RankCtx& ctx) {
                              std::vector<std::uint32_t> local(8);
                              auto win =
                                  ctx.create_window<std::uint32_t>(local);
                              if (ctx.rank() == 0) (void)win.view(1, 4, 5);
                              ctx.barrier();
                            }),
               "out of exposed range");
}

TEST(Window, EpochStartsAtZeroAndRefreshBumpsOnce) {
  Runtime::run(opts(4), [&](RankCtx& ctx) {
    std::vector<std::uint32_t> local(8, ctx.rank());
    auto win = ctx.create_window<std::uint32_t>(local);
    EXPECT_EQ(win.epoch(), 0u);

    // One collective refresh = exactly one bump, regardless of rank count.
    for (auto& x : local) x += 10;
    ctx.refresh_window(win, std::span<const std::uint32_t>(local));
    EXPECT_EQ(win.epoch(), 1u);
    ctx.refresh_window(win, std::span<const std::uint32_t>(local));
    EXPECT_EQ(win.epoch(), 2u);
    ctx.barrier();
  });
}

TEST(Window, RefreshRepublishesMutatedAndReallocatedBuffers) {
  Runtime::run(opts(3), [&](RankCtx& ctx) {
    std::vector<std::uint32_t> local(4, ctx.rank());
    auto win = ctx.create_window<std::uint32_t>(local);

    const std::uint32_t peer = (ctx.rank() + 1) % ctx.num_ranks();
    std::uint32_t buf[2];
    ctx.flush(win.get(peer, 0, 2, buf));
    EXPECT_EQ(buf[0], peer);

    // Grow the buffer (reallocation: new pointer AND new part size) before
    // republishing — the refresh must re-register both.
    ctx.barrier();  // quiesce reads of the old exposure before mutating
    std::vector<std::uint32_t> bigger(6, ctx.rank() + 50);
    local.clear();
    local.shrink_to_fit();
    ctx.refresh_window(win, std::span<const std::uint32_t>(bigger));
    EXPECT_EQ(win.part_size(peer), 6u);
    ctx.flush(win.get(peer, 4, 2, buf));
    EXPECT_EQ(buf[0], peer + 50);
    ctx.barrier();  // keep `bigger` exposed until all peers finished
  });
}

TEST(Window, RefreshIsFenceSynchronising) {
  // The entry fence must order the slowest reader's gets before any
  // republication: every rank reads a peer part, then refreshes, and the
  // read must always observe pre-refresh data (the eager memcpy would be a
  // use-after-free of the cleared buffer without the fence).
  Runtime::run(opts(4), [&](RankCtx& ctx) {
    std::vector<std::uint32_t> local(64, ctx.rank() + 1);
    auto win = ctx.create_window<std::uint32_t>(local);
    const std::uint32_t peer = (ctx.rank() + 3) % ctx.num_ranks();
    std::vector<std::uint32_t> buf(64);
    ctx.flush(win.get(peer, 0, 64, buf.data()));
    EXPECT_EQ(buf[0], peer + 1);

    std::vector<std::uint32_t> next(64, ctx.rank() + 1000);
    ctx.refresh_window(win, std::span<const std::uint32_t>(next));
    ctx.flush(win.get(peer, 0, 64, buf.data()));
    EXPECT_EQ(buf[0], peer + 1000);
    ctx.barrier();
  });
}

// ---------------------------------------------------------- virtual time ---

TEST(VirtualTime, RemoteCostsMoreThanLocal) {
  Runtime::run(opts(2), [&](RankCtx& ctx) {
    std::vector<std::uint64_t> local(1024, 1);
    auto win = ctx.create_window<std::uint64_t>(local);
    const double t0 = ctx.now();
    std::uint64_t buf[16];
    ctx.flush(win.get(ctx.rank(), 0, 16, buf));
    const double local_cost = ctx.now() - t0;
    const double t1 = ctx.now();
    ctx.flush(win.get(1 - ctx.rank(), 0, 16, buf));
    const double remote_cost = ctx.now() - t1;
    // Aries-like model: remote ~2 us, local ~0.1 us.
    EXPECT_GT(remote_cost, 5.0 * local_cost);
    ctx.barrier();
  });
}

TEST(VirtualTime, ComputeOverlapsPendingGet) {
  // Issue a get, do "compute" longer than the transfer, then flush: the
  // flush must be free (completion already passed).
  Runtime::run(opts(2), [&](RankCtx& ctx) {
    std::vector<std::uint32_t> local(1 << 16, 3);
    auto win = ctx.create_window<std::uint32_t>(local);
    std::vector<std::uint32_t> buf(1 << 10);
    auto h = win.get(1 - ctx.rank(), 0, buf.size(), buf.data());
    ctx.charge_compute(1.0);  // one full second >> any transfer
    const double before_flush = ctx.now();
    ctx.flush(h);
    EXPECT_DOUBLE_EQ(ctx.now(), before_flush);  // overlapped entirely
    ctx.barrier();
  });
}

TEST(VirtualTime, FlushWithoutComputeWaits) {
  Runtime::run(opts(2), [&](RankCtx& ctx) {
    std::vector<std::uint32_t> local(1 << 16, 3);
    auto win = ctx.create_window<std::uint32_t>(local);
    std::vector<std::uint32_t> buf(1 << 10);
    const double t0 = ctx.now();
    auto h = win.get(1 - ctx.rank(), 0, buf.size(), buf.data());
    ctx.flush(h);
    const double waited = ctx.now() - t0;
    EXPECT_NEAR(waited, ctx.net().time_remote(buf.size() * 4), 1e-12);
    EXPECT_GT(ctx.stats().comm_seconds, 0.0);
    ctx.barrier();
  });
}

TEST(VirtualTime, NicSerialisesConsecutiveGets) {
  Runtime::run(opts(2), [&](RankCtx& ctx) {
    std::vector<std::uint32_t> local(1 << 16, 3);
    auto win = ctx.create_window<std::uint32_t>(local);
    std::vector<std::uint32_t> a(256), b(256);
    const double t0 = ctx.now();
    auto ha = win.get(1 - ctx.rank(), 0, 256, a.data());
    auto hb = win.get(1 - ctx.rank(), 256, 256, b.data());
    ctx.flush(ha);
    ctx.flush(hb);
    // Both transfers share the injection port: total >= 2 transfer times.
    EXPECT_GE(ctx.now() - t0, 2.0 * ctx.net().time_remote(256 * 4) - 1e-12);
    ctx.barrier();
  });
}

TEST(VirtualTime, DeterministicAcrossRuns) {
  auto run_once = [] {
    return Runtime::run(opts(4), [&](RankCtx& ctx) {
      std::vector<std::uint32_t> local(1024, ctx.rank());
      auto win = ctx.create_window<std::uint32_t>(local);
      std::vector<std::uint32_t> buf(128);
      for (std::uint32_t peer = 0; peer < 4; ++peer)
        if (peer != ctx.rank())
          ctx.flush(win.get(peer, 0, 128, buf.data()));
      ctx.charge_compute(1e-3 * ctx.rank());
      ctx.barrier();
    }).makespan;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

// ------------------------------------------------------------ collectives ---

TEST(Collectives, BarrierAlignsClocksToMax) {
  Runtime::run(opts(4), [&](RankCtx& ctx) {
    ctx.charge_compute(static_cast<double>(ctx.rank()));  // skewed clocks
    ctx.barrier();
    const double expected = 3.0 + ctx.net().time_barrier(4);
    EXPECT_DOUBLE_EQ(ctx.now(), expected);
    EXPECT_EQ(ctx.stats().barriers, 1u);
  });
}

TEST(Collectives, AllreduceSum) {
  Runtime::run(opts(5), [&](RankCtx& ctx) {
    const std::uint64_t sum = ctx.allreduce_sum(ctx.rank() + 1);
    EXPECT_EQ(sum, 15u);  // 1+2+3+4+5
  });
}

TEST(Collectives, RepeatedBarriersStaySynchronised) {
  const auto r = Runtime::run(opts(3), [&](RankCtx& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.charge_compute(ctx.rank() == 0 ? 1e-3 : 0.0);
      ctx.barrier();
    }
  });
  // All ranks end with identical clocks (max-sync each round).
  ASSERT_EQ(r.clocks.size(), 3u);
  for (const double c : r.clocks) EXPECT_DOUBLE_EQ(c, r.clocks[0]);
}

// -------------------------------------------------------------- all_to_all ---

TEST(AllToAll, RoutesPayloads) {
  Runtime::run(opts(4), [&](RankCtx& ctx) {
    std::vector<std::vector<std::uint32_t>> out(4);
    for (std::uint32_t dst = 0; dst < 4; ++dst)
      out[dst] = {ctx.rank() * 10 + dst};
    const auto in = ctx.all_to_all(out);
    ASSERT_EQ(in.size(), 4u);
    for (std::uint32_t src = 0; src < 4; ++src) {
      ASSERT_EQ(in[src].size(), 1u);
      EXPECT_EQ(in[src][0], src * 10 + ctx.rank());
    }
  });
}

TEST(AllToAll, EmptyPayloadsAreFine) {
  Runtime::run(opts(3), [&](RankCtx& ctx) {
    std::vector<std::vector<std::uint32_t>> out(3);
    const auto in = ctx.all_to_all(out);
    for (const auto& v : in) EXPECT_TRUE(v.empty());
  });
}

TEST(AllToAll, SynchronisesAndCharges) {
  Runtime::run(opts(2), [&](RankCtx& ctx) {
    ctx.charge_compute(ctx.rank() == 0 ? 1.0 : 0.0);  // rank 0 is the straggler
    std::vector<std::vector<std::uint32_t>> out(2);
    out[1 - ctx.rank()].assign(1024, 7);
    (void)ctx.all_to_all(out);
    // Rank 1 must have waited for rank 0 (blocking exchange).
    EXPECT_GE(ctx.now(), 1.0);
    EXPECT_GT(ctx.stats().bytes_sent, 0u);
  });
}

TEST(AllToAll, BackToBackExchangesDoNotCrossTalk) {
  Runtime::run(opts(2), [&](RankCtx& ctx) {
    for (std::uint32_t round = 0; round < 5; ++round) {
      std::vector<std::vector<std::uint32_t>> out(2);
      out[1 - ctx.rank()] = {round * 100 + ctx.rank()};
      const auto in = ctx.all_to_all(out);
      ASSERT_EQ(in[1 - ctx.rank()].size(), 1u);
      EXPECT_EQ(in[1 - ctx.rank()][0], round * 100 + (1 - ctx.rank()));
    }
  });
}

// ----------------------------------------------------------------- model ---

TEST(NetworkModel, AlphaBetaArithmetic) {
  NetworkModel m;
  EXPECT_DOUBLE_EQ(m.time_remote(0), m.remote_alpha_s);
  EXPECT_DOUBLE_EQ(m.time_remote(1000),
                   m.remote_alpha_s + 1000 * m.remote_byte_s);
  EXPECT_LT(m.time_local(64), m.time_remote(64));
  EXPECT_LT(m.time_cache_hit(64), m.time_remote(64));
}

TEST(NetworkModel, BarrierGrowsWithRanks) {
  NetworkModel m;
  EXPECT_LT(m.time_barrier(2), m.time_barrier(64));
}

TEST(CommStats, Accumulate) {
  CommStats a, b;
  a.remote_gets = 3;
  a.comm_seconds = 1.0;
  b.remote_gets = 4;
  b.comm_seconds = 0.5;
  a += b;
  EXPECT_EQ(a.remote_gets, 7u);
  EXPECT_DOUBLE_EQ(a.comm_seconds, 1.5);
}

}  // namespace
}  // namespace atlc::rma
