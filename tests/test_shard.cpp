// Sharded quantum engine (DESIGN.md §14): conservative-lookahead derivation
// and validation, worker-count independence of the stats document on
// direct, star and tree fabrics, and the outer-pool x inner-shard cap.
//
// The load-bearing property is byte-identity: the parallel pump must be a
// pure scheduling change. Every test here compares full canonical JSON
// documents, not individual counters, so any divergence — a reordered
// mailbox drain, a worker-count-dependent barrier decision — fails loudly.
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "common/thread_pool.hpp"
#include "obs/stats_json.hpp"
#include "sim/pooled_system.hpp"
#include "sim/runner.hpp"

namespace coaxial {
namespace {

pool::PoolConfig small_pool(std::uint32_t hosts) {
  pool::PoolConfig c = sys::coaxial_pooled(hosts, /*share_fraction=*/0.5);
  // Shrunk footprints (as in test_pool.cpp) so short runs still collide on
  // the hot shared pages and the directory actually ping-pongs.
  c.private_pages = 1 << 12;
  c.shared_pages = 256;
  c.shared_hot_pages = 4;
  c.shared_hot_prob = 0.9;
  return c;
}

pool::PoolConfig faulty_pool(std::uint32_t hosts) {
  pool::PoolConfig c = sys::coaxial_pooled_faulty(hosts, /*at_cycle=*/4'000);
  c.private_pages = 1 << 12;
  c.shared_pages = 256;
  c.shared_hot_pages = 4;
  c.shared_hot_prob = 0.9;
  return c;
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

constexpr fabric::TopologyKind kAllKinds[] = {fabric::TopologyKind::kDirect,
                                              fabric::TopologyKind::kStar,
                                              fabric::TopologyKind::kTree};

sim::RunRequest pooled_request(const pool::PoolConfig& cfg,
                               std::uint32_t shards) {
  sim::RunRequest req;
  req.pool = cfg;
  req.warmup_instr = 300;
  req.measure_instr = 1'500;
  req.seed = 7;
  req.shards = shards;
  return req;
}

// ------------------------------------------------------ lookahead derivation

TEST(ShardLookahead, DirectFabricDerivesPositiveQuantum) {
  sim::PooledSystem s(small_pool(2), /*seed=*/7);
  // The quantum is the fabric's minimum cross-shard delivery latency; a
  // direct point-to-point CXL hop is always multiple cycles.
  EXPECT_GT(s.lookahead(), 1u);
}

TEST(ShardLookahead, SwitchedFabricDerivesPositiveQuantum) {
  // The quantum is the device-adjacent segment: one serialisation plus a
  // link port and a switch port, which outweighs the direct link's
  // serialisation plus two link ports (25 ns vs 12.5 ns ports).
  const Cycle direct = sim::PooledSystem(small_pool(2), /*seed=*/7).lookahead();
  for (const fabric::TopologyKind kind :
       {fabric::TopologyKind::kStar, fabric::TopologyKind::kTree}) {
    const Cycle q =
        sim::PooledSystem(on_fabric(small_pool(2), kind), /*seed=*/7).lookahead();
    EXPECT_GT(q, direct);
  }
}

// Every fabric kind runs the same engine, so a declaration is checked on
// each, switched ones included.
TEST(ShardLookahead, DeclaredLatencyMatchingDerivedIsAccepted) {
  for (const fabric::TopologyKind kind : kAllKinds) {
    pool::PoolConfig cfg = on_fabric(small_pool(2), kind);
    const Cycle derived = sim::PooledSystem(cfg, /*seed=*/7).lookahead();
    cfg.shard_min_latency_cycles = derived;
    sim::PooledSystem s(cfg, /*seed=*/7);
    EXPECT_EQ(s.lookahead(), derived);
  }
}

TEST(ShardLookahead, DeclaredLatencyBelowDerivedIsRejected) {
  // A declared minimum below the true fabric latency would be accepted by a
  // naive engine and silently waste lookahead; the config layer must refuse
  // it instead of letting the mismatch hide.
  for (const fabric::TopologyKind kind : kAllKinds) {
    pool::PoolConfig cfg = on_fabric(small_pool(2), kind);
    const Cycle derived = sim::PooledSystem(cfg, /*seed=*/7).lookahead();
    ASSERT_GT(derived, 1u);  // Otherwise `derived - 1` would be the 0 sentinel.
    cfg.shard_min_latency_cycles = derived - 1;
    EXPECT_THROW(sim::PooledSystem(cfg, /*seed=*/7), std::invalid_argument);
  }
}

TEST(ShardLookahead, DeclaredLatencyAboveDerivedIsRejected) {
  // The opposite direction is worse: a too-large quantum would deliver
  // cross-shard messages later than the fabric actually can, changing
  // results. Also a hard configuration error.
  for (const fabric::TopologyKind kind : kAllKinds) {
    pool::PoolConfig cfg = on_fabric(small_pool(2), kind);
    const Cycle derived = sim::PooledSystem(cfg, /*seed=*/7).lookahead();
    cfg.shard_min_latency_cycles = derived + 1;
    EXPECT_THROW(sim::PooledSystem(cfg, /*seed=*/7), std::invalid_argument);
  }
}

// -------------------------------------------------- worker-count invariance

TEST(ShardDeterminism, WorkerCountNeverChangesThePooledDocument) {
  for (const fabric::TopologyKind kind : kAllKinds) {
    const pool::PoolConfig cfg = on_fabric(small_pool(4), kind);
    const sim::RunResult base = sim::run_one(pooled_request(cfg, /*shards=*/1));
    // Under real coherence load, with every invalidation acked.
    EXPECT_GT(base.pooled.pool.invals_sent, 0u);
    EXPECT_EQ(base.pooled.pool.invals_sent, base.pooled.pool.invals_acked);
    for (const std::uint32_t n : {2u, 4u, 8u}) {
      EXPECT_EQ(stats_json(base), stats_json(sim::run_one(pooled_request(cfg, n))))
          << "fabric " << static_cast<int>(kind) << ": document diverged at "
          << n << " shard workers";
    }
  }
}

TEST(ShardDeterminism, WorkerCountInvariantUnderDeviceFailure) {
  // The RAS path exercises the straggler protocol: demands in flight toward
  // a device that dies mid-quantum must bounce at the barrier with the same
  // timing every worker count observes. On switched heads the demand is
  // delivered by the host's switch and bounces at the next barrier.
  for (const fabric::TopologyKind kind : kAllKinds) {
    const pool::PoolConfig cfg = on_fabric(faulty_pool(2), kind);
    sim::PooledSystem seq(cfg, /*seed=*/7);
    const sim::PooledStats st = seq.run(/*warmup_instr=*/300, /*measure_instr=*/1'500);
    const std::string base = obs::json::snapshot_to_json(seq.metrics().snapshot());
    const ras::AvailCounters av = seq.memory().avail_counters();
    // The scenario must actually fire, or this test proves nothing.
    ASSERT_GT(av.devices_offlined, 0u);
    EXPECT_GT(av.bounced_reads + av.refused_txns, 0u);
    EXPECT_EQ(st.pool.invals_sent, st.pool.invals_acked);
    for (const std::uint32_t n : {2u, 4u, 8u}) {
      sim::PooledSystem par(cfg, /*seed=*/7);
      par.set_workers(n);
      par.run(300, 1'500);
      EXPECT_EQ(base, obs::json::snapshot_to_json(par.metrics().snapshot()))
          << "fabric " << static_cast<int>(kind) << ": document diverged at "
          << n << " shard workers";
    }
  }
}

TEST(ShardDeterminism, EffectiveWorkersAreClampedToShardCount) {
  // 2 hosts -> 3 shards; asking for 8 workers must report 3, and the team
  // must still produce the sequential document (checked above).
  sim::PooledSystem s(small_pool(2), /*seed=*/7);
  s.set_workers(8);
  s.run(300, 1'500);
  EXPECT_EQ(s.effective_workers(), 3u);
}

// ---------------------------------------------------------- env plumbing

TEST(ShardGuards, EnvWorkersDriveSwitchedPools) {
  // COAXIAL_SHARDS=N applies to a whole batch, switched pools included.
  ::setenv("COAXIAL_SHARDS", "2", /*overwrite=*/1);
  const sim::RunResult res = sim::run_one(
      pooled_request(sys::coaxial_pooled_switched(2), /*shards=*/0));
  ::unsetenv("COAXIAL_SHARDS");
  EXPECT_EQ(res.shards, 2u);
  EXPECT_EQ(stats_json(res), stats_json(sim::run_one(pooled_request(
                                 sys::coaxial_pooled_switched(2), 1))));
}

TEST(ShardGuards, EnvWorkersDriveDirectPools) {
  ::setenv("COAXIAL_SHARDS", "2", /*overwrite=*/1);
  const sim::RunResult res = sim::run_one(pooled_request(small_pool(2), 0));
  ::unsetenv("COAXIAL_SHARDS");
  EXPECT_EQ(res.shards, 2u);
  // And the env-driven run matches the explicit sequential one.
  EXPECT_EQ(stats_json(res),
            stats_json(sim::run_one(pooled_request(small_pool(2), 1))));
}

// ------------------------------------------------- outer x inner worker cap

TEST(ShardCap, InnerShardCapNeverOversubscribes) {
  // outer pool threads x inner shard workers <= hardware threads.
  EXPECT_EQ(inner_shard_cap(/*outer=*/1, /*hardware=*/8), 8u);
  EXPECT_EQ(inner_shard_cap(2, 8), 4u);
  EXPECT_EQ(inner_shard_cap(3, 8), 2u);
  EXPECT_EQ(inner_shard_cap(8, 8), 1u);
  EXPECT_EQ(inner_shard_cap(16, 8), 1u);  // Oversubscribed outer: no inner.
  EXPECT_EQ(inner_shard_cap(0, 8), 8u);   // 0 outer means one pool thread.
  EXPECT_EQ(inner_shard_cap(4, 1), 1u);   // Single-CPU box: always inline.
}

TEST(ShardCap, RunManyCapsWorkersWithoutChangingStats) {
  // A batch on a 2-thread pool halves each run's shard budget; the stats
  // must not notice (caps are pure scheduling).
  const std::vector<sim::RunRequest> reqs = {
      pooled_request(small_pool(2), /*shards=*/8),
      pooled_request(small_pool(4), /*shards=*/8),
  };
  const std::vector<sim::RunResult> batch = sim::run_many(reqs, /*threads=*/2);
  ASSERT_EQ(batch.size(), 2u);
  const std::uint32_t hw = std::thread::hardware_concurrency();
  for (const sim::RunResult& r : batch) {
    EXPECT_LE(r.shards * 2u, std::max(hw, 2u));
  }
  EXPECT_EQ(stats_json(batch[0]),
            stats_json(sim::run_one(pooled_request(small_pool(2), 1))));
  EXPECT_EQ(stats_json(batch[1]),
            stats_json(sim::run_one(pooled_request(small_pool(4), 1))));
}

TEST(ShardCap, ExplicitRequestCapBoundsEnvAndRequest) {
  sim::RunRequest req = pooled_request(small_pool(2), /*shards=*/8);
  req.shard_cap = 2;
  const sim::RunResult res = sim::run_one(req);
  EXPECT_EQ(res.shards, 2u);
}

}  // namespace
}  // namespace coaxial
