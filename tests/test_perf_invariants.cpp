// Equivalence tests for the host-performance fast paths.
//
// The controller keeps its FR-FCFS scan windows as live, incrementally
// re-derived state, and its per-queue next-ready caches elide a window
// rescan only when that scan provably cannot issue a command. With
// Controller::set_ready_cache(false) both are bypassed: every tick
// re-derives every window slot from the banks and the queues and rescans.
// These tests drive two controllers — fast vs from-scratch — through
// identical fuzzed request streams (the same substrate as
// test_dram_invariants) in lockstep and demand bit-identical behaviour: the
// same wake bounds from every tick, the same completion stream (token,
// cycle, latency decomposition), the same command counts, and a silent
// shadow timing checker on both. The variants cover every geometry and
// timing knob the window's class or shared terms depend on.
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "dram/controller.hpp"

namespace coaxial::dram {
namespace {

struct StreamParams {
  std::uint64_t seed = 1;
  double enqueue_prob = 0.5;   ///< Chance of an enqueue attempt per cycle.
  double write_frac = 0.3;
  Addr addr_space = 1 << 20;   ///< Local line addresses drawn from [0, N).
  Cycle cycles = 30000;
  bool sparse = false;  ///< Honour tick()'s wake bound (event-driven style).
  Timing timing;        ///< DDR5-4800 defaults.
  Geometry geometry;    ///< 8 groups x 4 banks, 1 rank.
};

/// What a lockstep run exercised. `both_deep` counts ticks on which both
/// queues held more requests than the 16-entry scan window, so every CAS
/// erase refilled a slot from beyond it.
struct DriveCounts {
  Cycle ticks = 0;
  Cycle both_deep = 0;
  std::uint64_t refreshes = 0;
};

/// Drives `fast` (ready cache on) and `slow` (ready cache off) with one
/// shared random stream. Every divergence is reported at the cycle it first
/// appears, which localises a broken cache-invalidation edge immediately.
void drive_pair(Controller& fast, Controller& slow, const StreamParams& p,
                DriveCounts& counts) {
  std::mt19937_64 rng(p.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<Addr> addr(0, p.addr_space - 1);
  std::uint64_t token = 0;
  Cycle wake = 0;  // Shared: asserted equal every tick.
  // Start at cycle 1: cycle 0 is indistinguishable from "never" in some of
  // the controller's next_* state.
  for (Cycle now = 1; now <= p.cycles; ++now) {
    bool enqueued = false;
    if (coin(rng) < p.enqueue_prob) {
      const bool is_write = coin(rng) < p.write_frac;
      const Addr line = addr(rng);
      ASSERT_EQ(fast.can_accept(is_write), slow.can_accept(is_write))
          << "cycle " << now;
      if (fast.can_accept(is_write)) {
        ASSERT_TRUE(fast.enqueue(line, is_write, now, token));
        ASSERT_TRUE(slow.enqueue(line, is_write, now, token));
        ++token;
        enqueued = true;
      }
    }
    // In sparse mode only tick when the controllers said something could
    // happen — the contract the event-driven System loop relies on. Both
    // controllers must publish the same bound, so one `wake` suffices.
    if (p.sparse && !enqueued && now < wake && !fast.idle()) continue;
    ++counts.ticks;
    if (fast.read_queue_size() > 16 && fast.write_queue_size() > 16) ++counts.both_deep;
    const Cycle wf = fast.tick(now);
    const Cycle ws = slow.tick(now);
    ASSERT_EQ(wf, ws) << "wake bound diverged at cycle " << now;
    wake = wf;
    auto& cf = fast.completions();
    auto& cs = slow.completions();
    ASSERT_EQ(cf.size(), cs.size()) << "completion count diverged at " << now;
    for (std::size_t i = 0; i < cf.size(); ++i) {
      ASSERT_EQ(cf[i].token, cs[i].token) << "cycle " << now;
      ASSERT_EQ(cf[i].done, cs[i].done) << "token " << cf[i].token;
      ASSERT_EQ(cf[i].service, cs[i].service) << "token " << cf[i].token;
      ASSERT_EQ(cf[i].queue_delay, cs[i].queue_delay) << "token " << cf[i].token;
    }
    cf.clear();
    cs.clear();
  }
}

void expect_same_stats(const Controller& fast, const Controller& slow) {
  const ControllerStats& a = fast.stats();
  const ControllerStats& b = slow.stats();
  EXPECT_EQ(a.reads_done, b.reads_done);
  EXPECT_EQ(a.writes_done, b.writes_done);
  EXPECT_EQ(a.reads_forwarded, b.reads_forwarded);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.activates, b.activates);
  EXPECT_EQ(a.precharges, b.precharges);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.data_bus_busy_cycles, b.data_bus_busy_cycles);
  EXPECT_DOUBLE_EQ(a.read_queue_delay_sum, b.read_queue_delay_sum);
  EXPECT_DOUBLE_EQ(a.read_service_sum, b.read_service_sum);
  EXPECT_EQ(fast.timing_checker().violations(), 0u);
  EXPECT_EQ(slow.timing_checker().violations(), 0u);
}

DriveCounts run_case(const StreamParams& p) {
  Controller fast(p.timing, p.geometry);
  Controller slow(p.timing, p.geometry);
  fast.set_ready_cache(true);  // Explicit: immune to COAXIAL_NO_READY_CACHE.
  slow.set_ready_cache(false);
  DriveCounts counts;
  drive_pair(fast, slow, p, counts);
  counts.refreshes = fast.stats().refreshes;
  expect_same_stats(fast, slow);
  EXPECT_GT(fast.stats().reads_done, 0u) << "stream produced no reads";
  return counts;
}

TEST(PerfInvariants, ReadyCacheMatchesRescanOnRandomStreams) {
  for (std::uint64_t seed : {1ull, 42ull, 1337ull}) {
    StreamParams p;
    p.seed = seed;
    run_case(p);
  }
}

TEST(PerfInvariants, ReadyCacheMatchesRescanUnderHighLoad) {
  StreamParams p;
  p.seed = 7;
  p.enqueue_prob = 0.95;   // Saturated queues: write drain + refresh pressure.
  p.addr_space = 1 << 12;  // Small footprint: row hits, conflicts, forwarding.
  run_case(p);
}

TEST(PerfInvariants, ReadyCacheMatchesRescanWriteHeavy) {
  StreamParams p;
  p.seed = 99;
  p.write_frac = 0.8;  // Exercises drain-mode transitions and forwarding.
  run_case(p);
}

TEST(PerfInvariants, ReadyCacheMatchesRescanSparseTicks) {
  // Event-driven style: skip cycles the wake bound rules out, as System
  // does. The cache is populated by compute_wake on exactly these failed
  // scans, so this is the path production traffic takes.
  for (std::uint64_t seed : {3ull, 11ull}) {
    StreamParams p;
    p.seed = seed;
    p.sparse = true;
    run_case(p);
  }
}

TEST(PerfInvariants, ReadyCacheMatchesRescanLightTraffic) {
  // Long idle gaps: idle-precharge and refresh are the only activity, the
  // regime where a stale "nothing ready" cache entry would stall forever.
  StreamParams p;
  p.seed = 21;
  p.enqueue_prob = 0.02;
  p.cycles = 60000;
  run_case(p);
}

TEST(PerfInvariants, LiveWindowMatchesRescanTwoRanks) {
  // 2DPC: the tCS rank switch (the one shared term that can fall when the
  // last CAS changes rank) and per-rank tRRD_S/tFAW/tCCD_S state. The
  // default tFAW equals 4 x tRRD_S and never binds; a longer one does, so
  // the shadow checker also sees every per-rank four-ACT window honoured.
  for (const bool sparse : {false, true}) {
    StreamParams p;
    p.seed = 5;
    p.enqueue_prob = 0.7;
    p.sparse = sparse;
    p.geometry.ranks = 2;
    p.timing.faw = 48;
    run_case(p);
  }
}

TEST(PerfInvariants, LiveWindowMatchesRescanPureOpenPage) {
  // No idle precharge: banks only close for a conflict or a refresh.
  for (const bool sparse : {false, true}) {
    StreamParams p;
    p.seed = 13;
    p.sparse = sparse;
    p.timing.idle_precharge = 0;
    run_case(p);
  }
}

TEST(PerfInvariants, LiveWindowMatchesRescanWithoutPermutation) {
  // Strided traffic piles into few banks: many window slots share a bank,
  // so one command re-derives several of them at once.
  for (const bool sparse : {false, true}) {
    StreamParams p;
    p.seed = 17;
    p.enqueue_prob = 0.8;
    p.addr_space = 1 << 14;
    p.sparse = sparse;
    p.geometry.permutation_interleave = false;
    run_case(p);
  }
}

TEST(PerfInvariants, LiveWindowMatchesRescanFrequentRefresh) {
  // A short refresh interval: many refresh-pending windows that drop ACT
  // and PRE candidates, and a full window re-derivation after each refresh.
  for (const bool sparse : {false, true}) {
    StreamParams p;
    p.seed = 23;
    p.enqueue_prob = 0.6;
    p.sparse = sparse;
    p.timing.refi = 1500;
    const DriveCounts counts = run_case(p);
    EXPECT_GE(counts.refreshes, 15u);
  }
}

TEST(PerfInvariants, LiveWindowMatchesRescanWithBothQueuesDeep) {
  // Offered load far above service with half the traffic writes: both
  // queues stay beyond the window, so a CAS erase refills a slot from the
  // queue every few cycles.
  for (const bool sparse : {false, true}) {
    StreamParams p;
    p.seed = 29;
    p.enqueue_prob = 0.95;
    p.write_frac = 0.5;
    p.sparse = sparse;
    const DriveCounts counts = run_case(p);
    EXPECT_GT(counts.both_deep * 2, counts.ticks)
        << "queues did not stay beyond the scan window";
  }
}

}  // namespace
}  // namespace coaxial::dram
