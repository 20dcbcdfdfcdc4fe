// Integration tests: full systems (cores + caches + NoC + CALM + memory)
// on small instruction budgets.
#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "coaxial/configs.hpp"
#include "workload/catalog.hpp"

namespace coaxial::sim {
namespace {

std::vector<workload::WorkloadParams> replicate(const std::string& name,
                                                std::uint32_t cores) {
  return std::vector<workload::WorkloadParams>(cores, workload::find_workload(name));
}

RunStats run(const sys::SystemConfig& cfg, const std::string& wl,
             std::uint64_t warmup = 4000, std::uint64_t measure = 12000,
             std::uint64_t seed = 42) {
  System s(cfg, replicate(wl, cfg.uarch.cores), seed);
  s.run(warmup, measure);
  return s.stats();
}

TEST(SystemIntegration, BaselineRunCompletesWithSaneStats) {
  const RunStats st = run(sys::baseline_ddr(), "stream-copy");
  EXPECT_GT(st.cycles, 0u);
  EXPECT_EQ(st.instructions, 12u * 12000);
  EXPECT_GT(st.ipc_per_core, 0.01);
  EXPECT_LT(st.ipc_per_core, 4.0);
  EXPECT_GT(st.l2_miss_ops, 0u);
  EXPECT_GT(st.llc_mpki(), 1.0);
  EXPECT_GE(st.lat_total_sum, st.lat_onchip_sum);
  EXPECT_GT(st.bandwidth_utilization(), 0.0);
  EXPECT_LE(st.bandwidth_utilization(), 1.0);
  EXPECT_EQ(st.core_ipc.size(), 12u);
}

TEST(SystemIntegration, EveryHistogramExportsTheTailLeaves) {
  // Each DRAM controller's read histogram and the L2-miss histogram export
  // one leaf set, count/mean/p50/p90/p99/p999/max, with ordered tails.
  System s(sys::coaxial_4x(), replicate("stream-copy", 12), 42);
  s.run(4000, 12000);
  const obs::Snapshot snap = s.metrics().snapshot();
  std::vector<std::string> hists = {"run/l2_miss/latency_cycles"};
  for (const auto& [path, value] : snap) {
    if (path.starts_with("mem/dram/ctrl") && path.ends_with("/read_latency/count")) {
      hists.push_back(path.substr(0, path.size() - std::string_view("/count").size()));
    }
  }
  ASSERT_GE(hists.size(), 3u);
  for (const std::string& h : hists) {
    SCOPED_TRACE(h);
    ASSERT_EQ(snap.count(h + "/p999"), 1u);
    ASSERT_EQ(snap.count(h + "/max"), 1u);
    const std::uint64_t p99 = snap.at(h + "/p99").count;
    const std::uint64_t p999 = snap.at(h + "/p999").count;
    const std::uint64_t max = snap.at(h + "/max").count;
    EXPECT_LE(p99, p999);
    EXPECT_LE(p999, max);
    EXPECT_GT(snap.at(h + "/count").count, 0u);
  }
}

TEST(SystemIntegration, DeterministicForSameSeed) {
  const RunStats a = run(sys::baseline_ddr(), "pagerank", 2000, 6000, 7);
  const RunStats b = run(sys::baseline_ddr(), "pagerank", 2000, 6000, 7);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.l2_miss_ops, b.l2_miss_ops);
  EXPECT_DOUBLE_EQ(a.ipc_per_core, b.ipc_per_core);
}

TEST(SystemIntegration, DifferentSeedsDiffer) {
  const RunStats a = run(sys::baseline_ddr(), "pagerank", 2000, 6000, 7);
  const RunStats b = run(sys::baseline_ddr(), "pagerank", 2000, 6000, 8);
  EXPECT_NE(a.cycles, b.cycles);
}

TEST(SystemIntegration, CoaxialHasCxlLatencyComponent) {
  const RunStats st = run(sys::coaxial_4x(), "stream-copy");
  EXPECT_GT(st.avg_cxl_interface_ns(), 20.0);
  const RunStats base = run(sys::baseline_ddr(), "stream-copy");
  EXPECT_DOUBLE_EQ(base.avg_cxl_interface_ns(), 0.0);
}

TEST(SystemIntegration, CoaxialRelievesSaturatedBaseline) {
  const RunStats base = run(sys::baseline_ddr(), "stream-add", 6000, 16000);
  const RunStats coax = run(sys::coaxial_4x(), "stream-add", 6000, 16000);
  EXPECT_GT(coax.ipc_per_core, base.ipc_per_core * 1.3);
  EXPECT_LT(coax.bandwidth_utilization(), base.bandwidth_utilization());
}

TEST(SystemIntegration, LatencySensitiveWorkloadPrefersBaseline) {
  const RunStats base = run(sys::baseline_ddr(), "gcc", 6000, 16000);
  const RunStats coax = run(sys::coaxial_4x(), "gcc", 6000, 16000);
  EXPECT_LT(coax.ipc_per_core, base.ipc_per_core);
}

TEST(SystemIntegration, WriteTrafficFlowsForStoreHeavyWorkload) {
  const RunStats st = run(sys::baseline_ddr(), "stream-copy", 6000, 16000);
  EXPECT_GT(st.write_gbps(), 1.0);
  EXPECT_GT(st.read_gbps(), st.write_gbps());  // R:W > 1.
}

TEST(SystemIntegration, CalmReducesOnChipTimeOnCoaxial) {
  sys::SystemConfig serial = sys::coaxial_4x();
  serial.calm.policy = calm::Policy::kNone;
  const RunStats with_calm = run(sys::coaxial_4x(), "stream-copy", 6000, 12000);
  const RunStats without = run(serial, "stream-copy", 6000, 12000);
  EXPECT_LT(with_calm.avg_onchip_ns(), without.avg_onchip_ns());
  EXPECT_GT(with_calm.calm.probes, 0u);
  EXPECT_EQ(without.calm.probes, 0u);
}

TEST(SystemIntegration, CalmConfusionCountsAddUp) {
  const RunStats st = run(sys::coaxial_4x(), "pagerank", 4000, 10000);
  const auto& c = st.calm;
  // Decisions are recorded at L2-miss time, outcomes when the LLC result
  // arrives; ops in flight at the window edges skew the totals slightly.
  const double outcomes = static_cast<double>(
      c.true_positives + c.false_positives + c.true_negatives + c.false_negatives);
  EXPECT_NEAR(outcomes, static_cast<double>(c.decisions), 0.05 * outcomes + 200.0);
  EXPECT_NEAR(static_cast<double>(c.true_positives + c.false_positives),
              static_cast<double>(c.probes), 0.05 * static_cast<double>(c.probes) + 200.0);
}

TEST(SystemIntegration, SingleActiveCoreRuns) {
  sys::SystemConfig cfg = sys::coaxial_4x();
  cfg.uarch.active_cores = 1;
  System s(cfg, replicate("mcf", cfg.uarch.cores), 42);
  s.run(2000, 8000);
  EXPECT_EQ(s.stats().core_ipc.size(), 1u);
  EXPECT_GT(s.stats().ipc_per_core, 0.0);
}

TEST(SystemIntegration, UtilizationDropsWithFewerActiveCores) {
  sys::SystemConfig one = sys::baseline_ddr();
  one.uarch.active_cores = 4;
  System a(one, replicate("stream-copy", 12), 42);
  a.run(4000, 8000);
  const RunStats full = run(sys::baseline_ddr(), "stream-copy", 4000, 8000);
  EXPECT_LT(a.stats().bandwidth_utilization(), full.bandwidth_utilization());
}

TEST(SystemIntegration, AsymTopologyRuns) {
  const RunStats st = run(sys::coaxial_asym(), "stream-triad", 4000, 10000);
  EXPECT_GT(st.ipc_per_core, 0.0);
  EXPECT_GT(st.mem.subchannels, 8u);  // 4 devices x 2 DDR x 2 sub-channels.
}

TEST(SystemIntegration, MixedWorkloadsRun) {
  std::vector<workload::WorkloadParams> per_core;
  const auto names = workload::workload_names();
  for (std::uint32_t c = 0; c < 12; ++c) {
    per_core.push_back(workload::find_workload(names[c % names.size()]));
  }
  System s(sys::coaxial_4x(), per_core, 42);
  s.run(3000, 8000);
  EXPECT_GT(s.stats().ipc_per_core, 0.0);
}

TEST(SystemIntegration, LatencyComponentsAreNonNegativeAndBounded) {
  for (const auto& cfg : {sys::baseline_ddr(), sys::coaxial_4x()}) {
    const RunStats st = run(cfg, "bc", 4000, 10000);
    EXPECT_GE(st.avg_onchip_ns(), 0.0);
    EXPECT_GE(st.avg_dram_queue_ns(), 0.0);
    EXPECT_GE(st.avg_dram_service_ns(), 0.0);
    EXPECT_GE(st.avg_cxl_queue_ns(), 0.0);
    EXPECT_LT(st.avg_total_ns(), 5000.0);
    EXPECT_GT(st.avg_total_ns(), 10.0);
  }
}

TEST(SystemIntegration, HigherCxlPortLatencyLowersIpc) {
  sys::SystemConfig slow = sys::coaxial_4x();
  slow.cxl_port_ns = 17.5;
  const RunStats fast = run(sys::coaxial_4x(), "pagerank", 4000, 10000);
  const RunStats slow_st = run(slow, "pagerank", 4000, 10000);
  EXPECT_LE(slow_st.ipc_per_core, fast.ipc_per_core * 1.02);
}

TEST(SystemIntegration, LlcMissRatioConsistent) {
  const RunStats st = run(sys::coaxial_4x(), "stream-copy", 4000, 10000);
  EXPECT_GT(st.llc_miss_ratio(), 0.5);  // Streaming: mostly misses.
  const RunStats gcc = run(sys::coaxial_4x(), "gcc", 4000, 10000);
  EXPECT_LT(gcc.llc_miss_ratio(), st.llc_miss_ratio());
}

class AllConfigsSmoke : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllConfigsSmoke, EveryConfigurationCompletes) {
  const auto cfg = sys::all_configs()[GetParam()];
  const RunStats st = run(cfg, "kmeans", 2000, 6000);
  EXPECT_GT(st.ipc_per_core, 0.0);
  EXPECT_GT(st.l2_miss_ops, 0u);
}

INSTANTIATE_TEST_SUITE_P(Configs, AllConfigsSmoke, ::testing::Values(0u, 1u, 2u, 3u, 4u));

}  // namespace
}  // namespace coaxial::sim
// -- Prefetcher and replacement knobs --------------------------------------

namespace coaxial::sim {
namespace {

TEST(SystemKnobs, DisablingPrefetchRemovesPrefetches) {
  sys::SystemConfig off = sys::baseline_ddr();
  off.uarch.prefetch_degree = 0;
  System s(off, std::vector<workload::WorkloadParams>(
                    12, workload::find_workload("stream-copy")), 42);
  s.run(2000, 6000);
  EXPECT_EQ(s.stats().prefetches, 0u);
}

TEST(SystemKnobs, StreamingWorkloadIssuesPrefetches) {
  System s(sys::baseline_ddr(), std::vector<workload::WorkloadParams>(
                                    12, workload::find_workload("stream-copy")), 42);
  s.run(2000, 6000);
  EXPECT_GT(s.stats().prefetches, 1000u);
}

TEST(SystemKnobs, PrefetchLowersDemandMissLatencyPressure) {
  // With prefetch, streaming demand misses largely become L2 hits: the
  // demand L2-miss count drops sharply.
  sys::SystemConfig off = sys::baseline_ddr();
  off.uarch.prefetch_degree = 0;
  const std::vector<workload::WorkloadParams> wl(
      12, workload::find_workload("stream-copy"));
  System with(sys::baseline_ddr(), wl, 42);
  with.run(3000, 8000);
  System without(off, wl, 42);
  without.run(3000, 8000);
  EXPECT_LT(with.stats().l2_miss_ops, without.stats().l2_miss_ops);
}

TEST(SystemKnobs, LlcPolicyIsConfigurable) {
  sys::SystemConfig cfg = sys::coaxial_4x();
  cfg.uarch.llc_replacement = cache::ReplacementPolicy::kSrrip;
  System s(cfg, std::vector<workload::WorkloadParams>(
                    12, workload::find_workload("pagerank")), 42);
  s.run(2000, 6000);
  EXPECT_GT(s.stats().ipc_per_core, 0.0);
}

TEST(SystemKnobs, LatencyPercentilesAreOrdered) {
  System s(sys::baseline_ddr(), std::vector<workload::WorkloadParams>(
                                    12, workload::find_workload("bc")), 42);
  s.run(3000, 8000);
  const auto& st = s.stats();
  EXPECT_GT(st.lat_p50_ns, 0.0);
  EXPECT_LE(st.lat_p50_ns, st.lat_p90_ns);
  EXPECT_LE(st.lat_p90_ns, st.lat_p99_ns);
}

}  // namespace
}  // namespace coaxial::sim
