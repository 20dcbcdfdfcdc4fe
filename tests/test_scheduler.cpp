// The event-driven-vs-forced equivalence property of the System wake-up
// spine (sim/system.hpp): a run with idle-cycle skipping must match a run
// that ticks every component every cycle, metric for metric, byte for byte.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "obs/stats_json.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace coaxial::sim {
namespace {

std::string run_document(const sys::SystemConfig& cfg, const std::string& wl,
                         bool forced, Cycle* end_cycle,
                         std::uint64_t* cycles_skipped) {
  std::vector<workload::WorkloadParams> per_core(cfg.uarch.cores,
                                                 workload::find_workload(wl));
  System s(cfg, per_core, /*seed=*/7);
  if (forced) s.set_tick_every_cycle(true);
  s.run(/*warmup_instr=*/500, /*measure_instr=*/2000);
  *end_cycle = s.now();
  *cycles_skipped = s.stats().sched_cycles_skipped;
  return obs::json::snapshot_to_json(s.metrics().snapshot());
}

void expect_modes_equivalent(const sys::SystemConfig& cfg, const std::string& wl) {
  Cycle end_event = 0, end_forced = 0;
  std::uint64_t skipped_event = 0, skipped_forced = 0;
  const std::string doc_event = run_document(cfg, wl, false, &end_event, &skipped_event);
  const std::string doc_forced = run_document(cfg, wl, true, &end_forced, &skipped_forced);
  EXPECT_EQ(end_event, end_forced) << cfg.name << "/" << wl;
  EXPECT_EQ(doc_event, doc_forced) << cfg.name << "/" << wl;
  EXPECT_EQ(skipped_forced, 0u);
}

TEST(SchedulerEquivalence, DirectDdrMatchesForcedTicking) {
  expect_modes_equivalent(sys::baseline_ddr(), "canneal");
}

TEST(SchedulerEquivalence, CxlMatchesForcedTicking) {
  expect_modes_equivalent(sys::coaxial_4x(), "lbm");
}

TEST(SchedulerEquivalence, CxlAsymMatchesForcedTicking) {
  expect_modes_equivalent(sys::coaxial_asym(), "stream-copy");
}

TEST(SchedulerEquivalence, IdleHeavyRunActuallySkipsCycles) {
  // A single active pointer-chasing core on the high-latency CXL config
  // spends most cycles fully blocked; the event loop must skip them.
  sys::SystemConfig cfg = sys::coaxial_4x();
  cfg.cxl_port_ns = 17.5;
  cfg.uarch.active_cores = 1;
  std::vector<workload::WorkloadParams> per_core(cfg.uarch.cores,
                                                 workload::find_workload("gcc"));
  System s(cfg, per_core, /*seed=*/7);
  s.run(/*warmup_instr=*/500, /*measure_instr=*/2000);
  EXPECT_GT(s.stats().sched_cycles_skipped, 0u);
  EXPECT_GT(s.stats().sched_skip_ratio(), 0.25);
  EXPECT_GT(s.stats().sched_events, 0u);
}

}  // namespace
}  // namespace coaxial::sim
