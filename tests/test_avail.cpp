// Device-failure lifecycle tests (DESIGN.md §13): FaultPlan episode-field
// validation, stall/wake interaction with surprise removal, directory
// fail_reset, scheduler-mode byte-equivalence straight through a failure
// (single-host direct + switched, pooled with CRC noise on top), placement
// evacuation conservation, the zero-lost-update property (every non-retired
// page readable after evacuation), and statdiff glob coverage of the
// ras/avail/* subtree. Lives in the `avail` label so the ASan CI pass runs
// it.
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "obs/statdiff.hpp"
#include "obs/stats_json.hpp"
#include "placement/tiered_memory.hpp"
#include "pool/directory.hpp"
#include "pool/pool_config.hpp"
#include "sim/pooled_system.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace coaxial {
namespace {

using ras::FailureMode;
using ras::FaultPlan;

// ---------------------------------------------------------- plan validation

FaultPlan failing_plan() {
  FaultPlan p;
  p.fail_mode = FailureMode::kFailing;
  p.fail_at_cycle = 1'000;
  p.fail_device = 1;
  return p;
}

TEST(FaultPlanFailure, EpisodeAtCycleZeroRejected) {
  FaultPlan p = failing_plan();
  p.fail_at_cycle = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(FaultPlanFailure, ZeroEvacuationBandwidthRejected) {
  FaultPlan p = failing_plan();
  p.evac_pages_per_epoch = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // Surprise removal needs the bound too: stranded pages retire per epoch.
  p = failing_plan();
  p.fail_mode = FailureMode::kSurpriseRemoval;
  p.evac_pages_per_epoch = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(FaultPlanFailure, DeviceIndexMustBeInBounds) {
  FaultPlan p = failing_plan();
  EXPECT_NO_THROW(p.validate_devices(4));
  p.fail_device = 4;
  EXPECT_THROW(p.validate_devices(4), std::invalid_argument);
  // Without a planned episode the device index is never dereferenced.
  p.fail_mode = FailureMode::kNone;
  EXPECT_NO_THROW(p.validate_devices(4));
}

TEST(FaultPlanFailure, FailingRatesAndMonitorKnobsRangeChecked) {
  for (const auto& [field, value] :
       std::map<std::string, double>{{"fail_error_rate", 0.0},
                                     {"fail_error_rate", 1.5},
                                     {"health_ewma_alpha", 0.0},
                                     {"health_threshold", 0.0}}) {
    FaultPlan p = failing_plan();
    if (field == "fail_error_rate") p.fail_error_rate = value;
    if (field == "health_ewma_alpha") p.health_ewma_alpha = value;
    if (field == "health_threshold") p.health_threshold = value;
    EXPECT_THROW(p.validate(), std::invalid_argument) << field << "=" << value;
  }
  FaultPlan p = failing_plan();
  p.health_period_cycles = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(FaultPlanFailure, NoOnsetMeansInert) {
  FaultPlan p = failing_plan();
  p.fail_at_cycle = kNoCycle;
  EXPECT_FALSE(p.device_failure());
  EXPECT_FALSE(p.enabled());
  EXPECT_NO_THROW(p.validate());
}

TEST(PoolConfigFailure, GracefulEvacuationRejectedInPools) {
  // Pools support surprise removal only: evacuation is a single-host
  // tiering feature (the fabric manager has no per-page migration path).
  pool::PoolConfig c = sys::coaxial_pooled(2);
  c.fault_plan = sys::ras_failing_evac(1, 1'000);
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.fault_plan = sys::ras_device_loss(1, 1'000);
  EXPECT_NO_THROW(c.validate());
}

TEST(PoolConfigFailure, FailDeviceMustIndexASharedDevice) {
  pool::PoolConfig c = sys::coaxial_pooled(2);  // 2 shared devices.
  c.fault_plan = sys::ras_device_loss(/*device=*/2, 1'000);
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

// ------------------------------------------- stall/wake with a dead device

TEST(FaultPlanFailure, SurpriseDeadDeviceStallsForever) {
  FaultPlan p;
  p.fail_mode = FailureMode::kSurpriseRemoval;
  p.fail_at_cycle = 50;
  p.fail_device = 1;
  // No periodic stall windows armed: the dead device must still read as
  // stalled without tripping the period-modulo arithmetic.
  EXPECT_FALSE(p.in_stall(49, 1));
  EXPECT_TRUE(p.in_stall(50, 1));
  EXPECT_TRUE(p.in_stall(1'000'000, 1));
  EXPECT_EQ(p.stall_end(50, 1), kNoCycle);
  EXPECT_EQ(p.stall_end(1'000'000, 1), kNoCycle);
  // Survivors are untouched.
  EXPECT_FALSE(p.in_stall(60, 0));
  EXPECT_EQ(p.stall_end(60, 0), Cycle{60});
}

TEST(FaultPlanFailure, StallEndNeverReturnsAPastWake) {
  // Periodic stalls on every device *plus* a surprise removal of device 1:
  // whatever the phase, stall_end is monotone (>= now) or kNoCycle — the
  // scheduler arms wake bounds from it and a past wake would deadlock the
  // event-driven mode.
  FaultPlan p;
  p.stall_period_cycles = 100;
  p.stall_len_cycles = 10;
  p.fail_mode = FailureMode::kSurpriseRemoval;
  p.fail_at_cycle = 105;  // Mid-window of the second stall period.
  p.fail_device = 1;
  for (Cycle now = 0; now < 500; ++now) {
    for (std::uint32_t dev = 0; dev < 3; ++dev) {
      const Cycle end = p.stall_end(now, dev);
      EXPECT_TRUE(end == kNoCycle || end >= now)
          << "now=" << now << " dev=" << dev << " end=" << end;
      if (end != kNoCycle && end != now) {
        EXPECT_FALSE(p.in_stall(end, dev)) << "now=" << now << " dev=" << dev;
      }
    }
  }
}

// ----------------------------------------------------- directory fail_reset

TEST(DirectoryFailReset, SnapshotsInSlotOrderAndClears) {
  pool::Directory d(/*capacity=*/4, /*n_hosts=*/4);
  d.access(10, 0, true);   // M, owner 0 (slot 0).
  d.access(20, 1, false);  // S, sharer 1 (slot 1).
  d.access(20, 2, false);  // + sharer 2.
  ASSERT_TRUE(d.access(10, 1, true).needs_txn);  // Lock slot 0.
  const std::vector<pool::Directory::Entry> snap = d.fail_reset();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].page, 10u);  // Slot order, locked entries included.
  EXPECT_TRUE(snap[0].locked);
  EXPECT_EQ(snap[1].page, 20u);
  EXPECT_EQ(snap[1].sharers, (std::uint64_t{1} << 1) | (std::uint64_t{1} << 2));
  EXPECT_EQ(d.occupancy(), 0u);
  EXPECT_EQ(d.find(10), nullptr);
  EXPECT_EQ(d.find(20), nullptr);
  // The directory is immediately usable again (free list rebuilt).
  EXPECT_FALSE(d.access(30, 3, false).blocked);
  EXPECT_EQ(d.occupancy(), 1u);
}

// --------------------------------------- single-host scheduler equivalence

/// Shrunk failover config: tiny fast tier, short epochs, an episode early
/// enough that a 2500-instruction run drives the whole lifecycle.
sys::SystemConfig failover_small(FailureMode mode) {
  sys::SystemConfig c = sys::coaxial_tiered_failover(mode, /*at_cycle=*/1'000);
  c.tiering.fast_capacity_pages = 64;
  c.tiering.epoch_cycles = 300;
  c.tiering.promote_threshold = 1;
  c.tiering.max_migrations_per_epoch = 8;
  c.tiering.max_concurrent_migrations = 2;
  if (mode == FailureMode::kFailing) {
    // Sensitive monitor, survivable error rate: 2% per read trips a 0.2%
    // threshold within a window or two, yet a 64-line page copy still
    // succeeds with probability 0.98^64 ~ 0.27, so aborted evacuation
    // jobs retry to completion instead of livelocking.
    c.fault_plan.fail_error_rate = 0.02;
    c.fault_plan.fail_ramp_cycles = 400;
    c.fault_plan.health_period_cycles = 200;
    c.fault_plan.health_ewma_alpha = 0.5;
    c.fault_plan.health_threshold = 0.002;
  }
  return c;
}

std::string run_document(const sys::SystemConfig& cfg, bool forced,
                         Cycle* end_cycle, ras::AvailCounters* av = nullptr) {
  std::vector<workload::WorkloadParams> per_core(
      cfg.uarch.cores, workload::find_workload("tiered-hotcold"));
  sim::System s(cfg, per_core, /*seed=*/7);
  if (forced) s.set_tick_every_cycle(true);
  s.run(/*warmup_instr=*/500, /*measure_instr=*/5000);
  *end_cycle = s.now();
  if (av != nullptr) *av = s.memory().avail_counters();
  return obs::json::snapshot_to_json(s.metrics().snapshot());
}

void expect_modes_equivalent_through_failure(const sys::SystemConfig& cfg) {
  Cycle end_event = 0, end_forced = 0;
  ras::AvailCounters ev{}, fo{};
  const std::string a = run_document(cfg, /*forced=*/false, &end_event, &ev);
  const std::string b = run_document(cfg, /*forced=*/true, &end_forced, &fo);
  EXPECT_EQ(end_event, end_forced) << cfg.name;
  EXPECT_EQ(a, b) << cfg.name;
  // The equivalence must hold *through* the episode: the device has to have
  // actually died, or the test proves nothing about the failure path.
  EXPECT_EQ(ev.devices_offlined, 1u) << cfg.name;
  EXPECT_EQ(fo.devices_offlined, 1u) << cfg.name;
}

TEST(AvailEquivalence, SurpriseRemovalMatchesForcedTicking) {
  expect_modes_equivalent_through_failure(failover_small(FailureMode::kSurpriseRemoval));
}

TEST(AvailEquivalence, FailingEvacuationMatchesForcedTicking) {
  const sys::SystemConfig cfg = failover_small(FailureMode::kFailing);
  Cycle end = 0;
  ras::AvailCounters av{};
  expect_modes_equivalent_through_failure(cfg);
  run_document(cfg, /*forced=*/false, &end, &av);
  // The graceful path must have exercised the monitor and the evacuation.
  EXPECT_EQ(av.monitor_trips, 1u);
  EXPECT_GT(av.health_samples, 0u);
  EXPECT_GT(av.fail_errors, 0u);
  EXPECT_GT(av.evac_pages_out, 0u);
}

TEST(AvailEquivalence, SwitchedFabricMatchesForcedTicking) {
  sys::SystemConfig cfg = failover_small(FailureMode::kSurpriseRemoval);
  cfg.name += "-sw";
  cfg.fabric = fabric::FabricConfig::star(/*devices=*/8, /*host_links=*/4);
  cfg.fabric.interleave = fabric::Interleave::kPage;
  cfg.fabric.page_lines = cfg.tiering.page_lines;
  expect_modes_equivalent_through_failure(cfg);
}

TEST(AvailEquivalence, RepeatedRunsAreByteIdentical) {
  const sys::SystemConfig cfg = failover_small(FailureMode::kFailing);
  Cycle end_a = 0, end_b = 0;
  const std::string a = run_document(cfg, false, &end_a);
  const std::string b = run_document(cfg, false, &end_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_EQ(a, b);
}

TEST(AvailMetrics, AvailSubtreeAppearsOnlyWithAnEpisode) {
  const std::vector<workload::WorkloadParams> per_core(
      12, workload::find_workload("tiered-hotcold"));
  // CRC noise alone arms ras/* but not ras/avail/*.
  sys::SystemConfig noisy = sys::coaxial_tiered();
  noisy.fault_plan = sys::ras_crc_noise(1e-5);
  sim::System crc(noisy, per_core, 7);
  EXPECT_TRUE(crc.metrics().contains("ras/crc_errors"));
  EXPECT_FALSE(crc.metrics().contains("ras/avail/devices_offlined"));
  sim::System failing(failover_small(FailureMode::kFailing), per_core, 7);
  EXPECT_TRUE(failing.metrics().contains("ras/avail/monitor_trips"));
  EXPECT_TRUE(failing.metrics().contains("ras/avail/evac_pages_out"));
}

// ----------------------------- evacuation conservation + zero lost update

TEST(AvailInvariants, EvacuationConservesPagesExactly) {
  const sys::SystemConfig cfg = failover_small(FailureMode::kFailing);
  std::vector<workload::WorkloadParams> per_core(
      cfg.uarch.cores, workload::find_workload("tiered-hotcold"));
  sim::System s(cfg, per_core, /*seed=*/7);
  s.run(500, 5000);
  const ras::AvailCounters av = s.memory().avail_counters();
  ASSERT_GT(av.evac_pages_out, 0u);
  // Every page that left the failing device either landed on a survivor or
  // was retired — no page is both, none is neither.
  EXPECT_EQ(av.evac_pages_out, av.evac_pages_in + av.pages_retired);
  EXPECT_EQ(av.monitor_trips, 1u);
  EXPECT_EQ(av.devices_offlined, 1u);
  EXPECT_EQ(s.memory().failure_status().phase, ras::FailureStatus::Phase::kDead);
}

/// Minimal cycle-by-cycle driver over a bare TieredMemory, for page-exact
/// post-mortem probing no full-system run can do.
struct MiniDriver {
  explicit MiniDriver(mem::MemorySystem& m) : mem(m) {}
  mem::MemorySystem& mem;
  Cycle now = 0;
  std::uint64_t next_token = 1;
  std::vector<mem::MemCompletion> done;

  void step() {
    mem.tick(now);
    auto& out = mem.completions();
    done.insert(done.end(), out.begin(), out.end());
    out.clear();
    ++now;
  }
  void run_until(Cycle end) {
    while (now < end) step();
  }
  /// Issue a read and spin to its completion; returns the poison flag.
  bool read_poisoned(Addr line) {
    while (!mem.can_accept(line, /*is_write=*/false, now)) step();
    const std::uint64_t token = next_token++;
    mem.access(line, /*is_write=*/false, now, token);
    for (Cycle guard = 0; guard < 100'000; ++guard) {
      for (const mem::MemCompletion& c : done) {
        if (c.token == token) return c.poisoned;
      }
      step();
    }
    ADD_FAILURE() << "read of line " << line << " never completed";
    return true;
  }
};

/// Bare failover stack: 4 capacity devices behind page interleave, a tiny
/// fast tier, and the static policy so the *only* migrations are the
/// evacuation's.
std::unique_ptr<placement::TieredMemory> mini_failover(const FaultPlan& plan,
                                                       std::uint32_t fast_pages = 8) {
  placement::TierConfig tc;
  tc.enabled = true;
  tc.policy = placement::PolicyKind::kStaticInterleave;
  tc.page_lines = 64;
  tc.fast_capacity_pages = fast_pages;
  tc.epoch_cycles = 200;
  tc.max_migrations_per_epoch = 8;
  tc.max_concurrent_migrations = 2;
  auto fast = std::make_unique<mem::DirectDdrMemory>(1);
  fabric::FabricConfig fab = fabric::FabricConfig::direct();
  fab.interleave = fabric::Interleave::kPage;
  fab.page_lines = tc.page_lines;
  auto cap = std::make_unique<mem::CxlMemory>(fab, /*cxl_channels=*/4, 1,
                                              link::LaneConfig::x8(12.5),
                                              dram::Timing{}, dram::Geometry{},
                                              obs::Scope{}, plan);
  return std::make_unique<placement::TieredMemory>(tc, std::move(fast), std::move(cap),
                                                   obs::Scope{}, plan);
}

TEST(AvailInvariants, EveryNonRetiredPageReadableAfterEvacuation) {
  FaultPlan plan;
  plan.fail_mode = FailureMode::kFailing;
  plan.fail_at_cycle = 400;
  plan.fail_device = 1;
  plan.fail_error_rate = 0.02;  // Low enough that some page copies succeed.
  plan.fail_ramp_cycles = 0;    // Full rate from onset.
  plan.health_period_cycles = 100;
  plan.health_ewma_alpha = 1.0;  // Trip on the first bad window.
  plan.health_threshold = 0.004;
  plan.evac_pages_per_epoch = 8;

  auto tm = mini_failover(plan);
  MiniDriver d(*tm);
  // Pages p with p % 4 == 1 home on device 1 under page interleave.
  const std::vector<Addr> doomed = {1, 5, 9, 13};
  const std::vector<Addr> safe = {0, 2, 7};
  // Touch the doomed pages repeatedly through the failing window so the
  // monitor sees errors and the evacuation learns every page.
  using Phase = ras::FailureStatus::Phase;
  for (Cycle guard = 0; guard < 60'000; ++guard) {
    const Phase phase = tm->failure_status().phase;
    if (phase == Phase::kDead) break;
    if (phase != Phase::kDraining && d.now % 16 == 0) {
      for (const Addr page : doomed) {
        const Addr line = page * 64 + (d.now / 16) % 64;
        if (tm->can_accept(line, false, d.now)) {
          tm->access(line, false, d.now, d.next_token++);
        }
      }
    }
    d.step();
  }
  ASSERT_EQ(tm->failure_status().phase, Phase::kDead);
  d.run_until(d.now + 2'000);  // Let straggler completions drain.
  d.done.clear();

  const ras::AvailCounters av = tm->avail_counters();
  EXPECT_EQ(av.monitor_trips, 1u);
  EXPECT_EQ(av.devices_offlined, 1u);
  EXPECT_EQ(av.evac_pages_out, av.evac_pages_in + av.pages_retired);
  // Zero lost update: every touched page is either retired (reads poison,
  // exactly the MCE contract) or evacuated (reads complete clean off the
  // survivor tier). Pages on surviving devices are plain reads throughout.
  std::uint64_t retired_seen = 0;
  for (const Addr page : doomed) {
    const bool retired = tm->page_retired(page);
    EXPECT_EQ(d.read_poisoned(page * 64 + 3), retired) << "page " << page;
    retired_seen += retired ? 1 : 0;
  }
  for (const Addr page : safe) {
    EXPECT_FALSE(tm->page_retired(page));
    EXPECT_FALSE(d.read_poisoned(page * 64 + 3)) << "page " << page;
  }
  EXPECT_EQ(retired_seen, av.pages_retired);
  // Retired touches were absorbed by the table, not the dead device.
  EXPECT_EQ(tm->avail_counters().retired_touches,
            av.retired_touches + retired_seen);
}

TEST(AvailInvariants, SurpriseRemovalRetiresOnFirstTouch) {
  FaultPlan plan = sys::ras_device_loss(/*device=*/1, /*at_cycle=*/300);
  auto tm = mini_failover(plan);
  MiniDriver d(*tm);
  // Touch page 1 (device 1) before the removal: it completes clean.
  EXPECT_FALSE(d.read_poisoned(1 * 64));
  d.run_until(2'000);  // Device 1 is now gone; let the drain settle.
  // First touch after death discovers the loss: poison, page retired.
  EXPECT_TRUE(d.read_poisoned(1 * 64 + 1));
  EXPECT_TRUE(tm->page_retired(1));
  // Later touches are absorbed by the retirement table, still poisoned.
  EXPECT_TRUE(d.read_poisoned(1 * 64 + 2));
  EXPECT_GE(tm->avail_counters().retired_touches, 1u);
  // Survivors are untouched by the episode.
  EXPECT_FALSE(d.read_poisoned(2 * 64));
  EXPECT_EQ(tm->avail_counters().devices_offlined, 1u);
  EXPECT_EQ(tm->avail_counters().monitor_trips, 0u);
}

// ------------------------------------------------ pooled composition (RAS)

pool::PoolConfig faulty_pool(std::uint32_t hosts) {
  pool::PoolConfig c = sys::coaxial_pooled(hosts, /*share_fraction=*/0.5);
  c.name += "-faulty";
  // Shrink footprints so short test runs still collide on the hot pages.
  c.private_pages = 1 << 12;
  c.shared_pages = 256;
  c.shared_hot_pages = 4;
  c.shared_hot_prob = 0.9;
  // CRC noise on every host head *and* a surprise removal of shared device
  // 1 mid-run: the composition the fleet actually fears.
  c.fault_plan = sys::ras_device_loss(/*device=*/1, /*at_cycle=*/1'500);
  c.fault_plan.bit_error_rate = 3e-5;
  return c;
}

std::string pooled_document(sim::PooledSystem& s, bool forced, sim::PooledStats* out,
                            std::uint32_t workers = 1) {
  if (forced) s.set_tick_every_cycle(true);
  s.set_workers(workers);
  const sim::PooledStats st = s.run(/*warmup_instr=*/300, /*measure_instr=*/1500);
  if (out != nullptr) *out = st;
  return obs::json::snapshot_to_json(s.metrics().snapshot());
}

void expect_pooled_modes_equivalent(const pool::PoolConfig& cfg,
                                    std::uint32_t workers = 1) {
  sim::PooledStats ev, fo;
  sim::PooledSystem a(cfg, /*seed=*/7), b(cfg, /*seed=*/7);
  const std::string doc_a = pooled_document(a, /*forced=*/false, &ev);
  const std::string doc_b = pooled_document(b, /*forced=*/true, &fo, workers);
  EXPECT_EQ(ev.total_cycles, fo.total_cycles) << cfg.name;
  EXPECT_EQ(doc_a, doc_b) << cfg.name << " at " << workers << " workers";
  // Under real load, through a real death.
  EXPECT_GT(ev.pool.invals_sent, 0u) << cfg.name;
  EXPECT_EQ(a.memory().avail_counters().devices_offlined, 1u) << cfg.name;
}

TEST(PooledAvail, SchedulerModesMatchThroughDeviceLossDirect) {
  expect_pooled_modes_equivalent(faulty_pool(2));
}

TEST(PooledAvail, SchedulerModesMatchThroughDeviceLossSwitched) {
  pool::PoolConfig cfg = faulty_pool(2);
  cfg.name += "-sw";
  cfg.fabric_kind = fabric::TopologyKind::kStar;
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    expect_pooled_modes_equivalent(cfg, workers);
  }
}

TEST(PooledAvail, DirectoryRecoveryConservesInvalidations) {
  const pool::PoolConfig cfg = faulty_pool(2);
  sim::PooledSystem s(cfg, /*seed=*/7);
  const sim::PooledStats st = s.run(300, 1500);
  const ras::AvailCounters av = s.memory().avail_counters();
  EXPECT_TRUE(s.memory().device_dead());
  EXPECT_EQ(av.devices_offlined, 1u);
  // Exactly-once delivery still holds with a dead device in the pool:
  // recovery invalidations ride the same wire/ack protocol as demand ones.
  EXPECT_EQ(st.pool.invals_sent, st.pool.invals_acked);
  // Dirty recalls whose destination died are discarded (and counted): the
  // failure-free equality relaxes to >=, never <, and every missing
  // writeback is accounted as a lost dirty page (which also counts M
  // entries snapshot at the directory reset).
  EXPECT_GE(st.pool.recalls_dirty, st.pool.recall_writebacks);
  EXPECT_LE(st.pool.recalls_dirty - st.pool.recall_writebacks, av.lost_dirty_pages);
  // The dead device's directory was reset and refuses new residents.
  EXPECT_EQ(s.memory().directory(cfg.fault_plan.fail_device).occupancy(), 0u);
  // Both hosts survive and make progress.
  ASSERT_EQ(st.host_ipc.size(), 2u);
  EXPECT_GT(st.host_ipc[0], 0.0);
  EXPECT_GT(st.host_ipc[1], 0.0);
  // CRC noise composed with the failure (the satellite's whole point).
  EXPECT_GT(s.memory().ras_counters().crc_errors, 0u);
}

TEST(PooledAvail, PooledAvailMetricsRegistered) {
  sim::PooledSystem s(faulty_pool(2), /*seed=*/7);
  s.run(100, 400);
  const obs::Snapshot snap = s.metrics().snapshot();
  bool saw_offlined = false, saw_ras = false;
  for (const auto& [path, value] : snap) {
    (void)value;
    saw_offlined = saw_offlined || path == "ras/avail/devices_offlined";
    saw_ras = saw_ras || path == "ras/crc_errors";
  }
  EXPECT_TRUE(saw_offlined);
  EXPECT_TRUE(saw_ras);
}

// -------------------------------------------------- statdiff glob coverage

TEST(StatDiffAvail, GlobRulePinsAvailSubtreeExact) {
  using obs::DiffOptions;
  using obs::diff_stats;
  EXPECT_TRUE(obs::glob_match("ras/avail/*", "ras/avail/evac_pages_out"));
  EXPECT_TRUE(obs::glob_match("ras/avail/*", "ras/avail/pages_retired"));
  EXPECT_FALSE(obs::glob_match("ras/avail/*", "ras/crc_errors"));
  // A float leaf under ras/avail/ must not be softened by the document-wide
  // tolerance once the CI pin rule (`ras/avail/*=0`) is appended.
  const obs::json::Flat a =
      obs::json::parse_flat(R"({"ras": {"avail": {"ewma": 0.01}}, "ipc": 1.0})");
  const obs::json::Flat b = obs::json::parse_flat(
      R"({"ras": {"avail": {"ewma": 0.0100001}}, "ipc": 1.0000001})");
  DiffOptions opts;
  opts.default_rtol = 1e-4;
  EXPECT_TRUE(diff_stats(a, b, opts).empty());
  opts.rules.push_back({"ras/avail/*", 0.0});
  const auto diffs = diff_stats(a, b, opts);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].path, "ras/avail/ewma");
}

}  // namespace
}  // namespace coaxial
