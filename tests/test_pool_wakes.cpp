// Event-driven pooled engine (DESIGN.md §12, §14): the host-slice stall
// catch-up and the pool shard's exact wakes.
//
// Every scenario first proves that the path under test fired — a stall
// counter or a blocked-attempt counter is > 0 — so no test can pass
// vacuously. It then requires the event-driven run to reproduce the
// per-cycle reference (set_tick_every_cycle, the COAXIAL_TICK_EVERY_CYCLE
// switch) byte for byte, at every shard-worker count, on direct, star and
// tree fabrics.
// A wake that fires one cycle late shows up as a diverging document.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "obs/stats_json.hpp"
#include "sim/pooled_system.hpp"

namespace coaxial {
namespace {

constexpr std::uint64_t kWarmup = 300;
constexpr std::uint64_t kMeasure = 1'500;

struct PoolRun {
  std::string doc;
  obs::Snapshot snap;
  pool::BlockCounters blocks;
  ras::AvailCounters avail;
  pool::PoolCounters ctr;
};

PoolRun run_pool(const pool::PoolConfig& cfg, bool forced, std::uint32_t workers) {
  sim::PooledSystem s(cfg, /*seed=*/7);
  s.set_tick_every_cycle(forced);
  s.set_workers(workers);
  s.run(kWarmup, kMeasure);
  PoolRun r;
  r.snap = s.metrics().snapshot();
  r.doc = obs::json::snapshot_to_json(r.snap);
  r.blocks = s.memory().block_counters();
  r.avail = s.memory().avail_counters();
  r.ctr = s.memory().counters();
  return r;
}

// The event-driven run at 1 worker against the per-cycle reference and
// every other worker count.
void expect_modes_agree(const pool::PoolConfig& cfg, const PoolRun& event) {
  for (const bool forced : {true, false}) {
    for (const std::uint32_t w : {1u, 2u, 4u}) {
      if (!forced && w == 1) continue;  // That is `event` itself.
      EXPECT_EQ(event.doc, run_pool(cfg, forced, w).doc)
          << (forced ? "per-cycle" : "event-driven") << " run at " << w
          << " workers diverged";
    }
  }
}

std::uint64_t host_leaf(const obs::Snapshot& snap, std::uint32_t host,
                        const std::string& leaf) {
  const std::string path = "pool/host/" + obs::idx(host) + "/" + leaf;
  const auto it = snap.find(path);
  EXPECT_NE(it, snap.end()) << path;
  return it == snap.end() ? 0 : it->second.count;
}

// Moves a pool onto `kind`; a tree's two leaves need an even device count
// per head, so it gets 3 shared + 1 private device.
pool::PoolConfig on_fabric(pool::PoolConfig c, fabric::TopologyKind kind) {
  c.fabric_kind = kind;
  if (kind == fabric::TopologyKind::kTree) {
    c.shared_devices = 3;
    c.private_devices = 1;
  }
  return c;
}

pool::PoolConfig hot_pool(std::uint32_t hosts) {
  pool::PoolConfig c = sys::coaxial_pooled(hosts, /*share_fraction=*/0.5);
  // Small footprints (as in test_pool.cpp) so short runs collide on the
  // hot shared pages.
  c.private_pages = 1 << 12;
  c.shared_pages = 256;
  c.shared_hot_pages = 4;
  c.shared_hot_prob = 0.9;
  return c;
}

// A wide read window with a one-transaction directory and nearly all pool
// traffic on one hot page: shared demands queue behind the txn gate until
// that sub-channel's ingress credits run out (bp), reads pile up until the
// window fills (window), and dependent loads wait on the slow reads (dep).
// kmeans, unlike pool-pingpong, rarely chains loads, so the window fills.
pool::PoolConfig stall_pool(fabric::TopologyKind kind) {
  pool::PoolConfig c = on_fabric(hot_pool(4), kind);
  c.workload = "kmeans";
  c.share_fraction = 0.9;
  c.shared_hot_pages = 1;
  c.shared_hot_prob = 0.95;
  c.host_window = 64;
  c.directory_max_txns = 1;
  return c;
}

// ------------------------------------------------------- stall catch-up

void check_stall_catch_up(fabric::TopologyKind kind) {
  const pool::PoolConfig cfg = stall_pool(kind);
  const PoolRun ev = run_pool(cfg, /*forced=*/false, 1);
  bool dep = false, window = false, bp = false;
  for (std::uint32_t h = 0; h < cfg.n_hosts; ++h) {
    dep = dep || host_leaf(ev.snap, h, "dep_stall_cycles") > 0;
    window = window || host_leaf(ev.snap, h, "window_stall_cycles") > 0;
    bp = bp || host_leaf(ev.snap, h, "bp_stall_cycles") > 0;
  }
  ASSERT_TRUE(dep) << "no host dep-stalled";
  ASSERT_TRUE(window) << "no host window-stalled";
  ASSERT_TRUE(bp) << "no host bp-stalled";
  expect_modes_agree(cfg, ev);
}

TEST(StallCatchUp, EveryStallKindMatchesPerCycleDirect) {
  check_stall_catch_up(fabric::TopologyKind::kDirect);
}

TEST(StallCatchUp, EveryStallKindMatchesPerCycleSwitched) {
  check_stall_catch_up(fabric::TopologyKind::kStar);
}

TEST(StallCatchUp, EveryStallKindMatchesPerCycleTree) {
  check_stall_catch_up(fabric::TopologyKind::kTree);
}

// ----------------------------------------------------- end-of-run barrier

TEST(EndOfRunBarrier, IndependentOfSchedulerModeAcrossSeeds) {
  // The run ends at the first barrier where the pool is quiescent, and an
  // undrained completion keeps it open. Event-driven skipping must neither
  // leave a completion undrained at a barrier the per-cycle pump drains
  // before, nor skip the quantum that drains one delivered at the barrier;
  // either would end the run a quantum late and shift the post-window
  // drain counters. Several seeds, because the last completion decides
  // which case a run hits: seeds 2, 5 and 6 end on a completion a host
  // pump produces late in its quantum, 25 and 99 on one delivered at a
  // barrier that idle quanta follow.
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8, 25, 99}) {
    const pool::PoolConfig cfg = sys::coaxial_pooled(4);
    const auto doc = [&](bool forced, std::uint32_t workers) {
      sim::PooledSystem s(cfg, seed);
      s.set_tick_every_cycle(forced);
      s.set_workers(workers);
      s.run(kWarmup, kMeasure);
      return obs::json::snapshot_to_json(s.metrics().snapshot());
    };
    const std::string event = doc(/*forced=*/false, 1);
    EXPECT_EQ(event, doc(/*forced=*/true, 1)) << "seed " << seed;
    EXPECT_EQ(event, doc(/*forced=*/false, 4)) << "seed " << seed;
  }
}

// ------------------------------------------------------ pool-shard wakes

TEST(PoolShardWakes, TxnGateReopensOnTransactionFinish) {
  pool::PoolConfig cfg = hot_pool(4);
  cfg.directory_max_txns = 1;
  const PoolRun ev = run_pool(cfg, /*forced=*/false, 1);
  ASSERT_GT(ev.ctr.txns, 0u);
  ASSERT_GT(ev.blocks.txn_gate, 0u);
  expect_modes_agree(cfg, ev);
}

TEST(PoolShardWakes, DirectoryLockAndAllLockedEvictionWake) {
  // Two entries per device and uniform pool traffic: nearly every access
  // evicts, so inserts regularly find both entries locked, and same-page
  // retries find their own page locked.
  pool::PoolConfig cfg = hot_pool(4);
  cfg.directory_entries = 2;
  cfg.shared_hot_prob = 0.5;
  const PoolRun ev = run_pool(cfg, /*forced=*/false, 1);
  ASSERT_GT(ev.ctr.dir_evictions, 0u);
  ASSERT_GT(ev.blocks.dir_lock, 0u);
  ASSERT_GT(ev.blocks.dir_evict, 0u);
  expect_modes_agree(cfg, ev);
}

TEST(PoolShardWakes, ControllerFullBlocksWritebacksParkedAndHeads) {
  // Eight hosts streaming posted writes into one pooled device flood its
  // write queues, so recall data, acked transactions' parked accesses and
  // ingress heads all regularly wait for a DRAM queue slot.
  pool::PoolConfig cfg = hot_pool(8);
  cfg.workload = "stream-copy";
  cfg.shared_devices = 1;
  cfg.shared_hot_pages = 16;
  const PoolRun ev = run_pool(cfg, /*forced=*/false, 1);
  ASSERT_GT(ev.ctr.recall_writebacks, 0u);
  ASSERT_GT(ev.blocks.ctrl_wb, 0u);
  ASSERT_GT(ev.blocks.ctrl_parked, 0u);
  ASSERT_GT(ev.blocks.ctrl_head, 0u);
  EXPECT_EQ(ev.ctr.recall_writebacks, ev.ctr.recalls_dirty);
  expect_modes_agree(cfg, ev);
}

void check_surprise_removal(fabric::TopologyKind kind) {
  pool::PoolConfig cfg =
      on_fabric(sys::coaxial_pooled_faulty(4, /*at_cycle=*/4'000), kind);
  cfg.private_pages = 1 << 12;
  cfg.shared_pages = 256;
  cfg.shared_hot_pages = 4;
  cfg.shared_hot_prob = 0.9;
  const PoolRun ev = run_pool(cfg, /*forced=*/false, 1);
  ASSERT_GT(ev.avail.devices_offlined, 0u);
  ASSERT_GT(ev.avail.bounced_reads + ev.avail.refused_txns, 0u);
  ASSERT_GT(ev.ctr.txns, 0u);
  EXPECT_EQ(ev.ctr.invals_sent, ev.ctr.invals_acked);
  expect_modes_agree(cfg, ev);
}

TEST(PoolShardWakes, SurpriseRemovalMidRun) {
  check_surprise_removal(fabric::TopologyKind::kDirect);
}

TEST(PoolShardWakes, SurpriseRemovalMidRunSwitched) {
  check_surprise_removal(fabric::TopologyKind::kStar);
}

TEST(PoolShardWakes, SurpriseRemovalMidRunTree) {
  check_surprise_removal(fabric::TopologyKind::kTree);
}

}  // namespace
}  // namespace coaxial
