#include "sim/runner.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"

namespace coaxial::sim {
namespace {

TEST(Runner, HomogeneousHelperFillsRequest) {
  const RunRequest r = homogeneous(sys::baseline_ddr(), "lbm", 100, 200, 9);
  EXPECT_EQ(r.workloads.size(), 1u);
  EXPECT_EQ(r.workloads.front(), "lbm");
  EXPECT_EQ(r.warmup_instr, 100u);
  EXPECT_EQ(r.measure_instr, 200u);
  EXPECT_EQ(r.seed, 9u);
}

TEST(Runner, RunOneProducesStats) {
  const RunResult r = run_one(homogeneous(sys::baseline_ddr(), "canneal", 1000, 4000));
  EXPECT_EQ(r.config_name, "DDR-baseline");
  EXPECT_EQ(r.workload_name, "canneal");
  EXPECT_GT(r.stats.ipc_per_core, 0.0);
}

TEST(Runner, RunOneThrowsOnEmptyWorkloads) {
  RunRequest r;
  r.config = sys::baseline_ddr();
  EXPECT_THROW(run_one(r), std::invalid_argument);
}

TEST(Runner, RunOneThrowsOnUnknownWorkload) {
  EXPECT_THROW(run_one(homogeneous(sys::baseline_ddr(), "bogus", 100, 100)),
               std::out_of_range);
}

TEST(Runner, MixRequestAssignsPerCore) {
  RunRequest r;
  r.config = sys::baseline_ddr();
  r.workloads = {"lbm", "gcc", "bc"};
  r.warmup_instr = 1000;
  r.measure_instr = 3000;
  const RunResult res = run_one(r);
  EXPECT_EQ(res.workload_name, "mix-0");  // Default mix_id indexes the name.
  EXPECT_GT(res.stats.ipc_per_core, 0.0);
}

TEST(Runner, MixIdNamesTheMix) {
  RunRequest r;
  r.config = sys::baseline_ddr();
  r.workloads = {"lbm", "gcc"};
  r.warmup_instr = 500;
  r.measure_instr = 1500;
  r.mix_id = 7;
  EXPECT_EQ(run_one(r).workload_name, "mix-7");
}

TEST(Runner, SingleWorkloadIgnoresMixId) {
  RunRequest r = homogeneous(sys::baseline_ddr(), "gcc", 500, 1500);
  r.mix_id = 3;
  EXPECT_EQ(run_one(r).workload_name, "gcc");
}

TEST(Runner, RunManyPreservesOrder) {
  std::vector<RunRequest> reqs = {
      homogeneous(sys::baseline_ddr(), "canneal", 500, 2000),
      homogeneous(sys::coaxial_4x(), "canneal", 500, 2000),
      homogeneous(sys::baseline_ddr(), "raytrace", 500, 2000),
  };
  const auto results = run_many(reqs, 2);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].config_name, "DDR-baseline");
  EXPECT_EQ(results[1].config_name, "COAXIAL-4x");
  EXPECT_EQ(results[2].workload_name, "raytrace");
}

TEST(Runner, RunManyMatchesRunOne) {
  const auto req = homogeneous(sys::baseline_ddr(), "bfs", 1000, 3000, 5);
  const auto solo = run_one(req);
  const auto many = run_many({req}, 2);
  ASSERT_EQ(many.size(), 1u);
  EXPECT_DOUBLE_EQ(many[0].stats.ipc_per_core, solo.stats.ipc_per_core);
}

// A request may select only one dispatch, and only fields that dispatch
// reads. These combinations used to run and silently drop a field.

ServiceConfig one_tenant_service() {
  ServiceConfig svc;
  svc.name = "svc-one";
  svc.tenants.emplace_back();
  return svc;
}

// Expects run_one(r) to throw std::invalid_argument whose message names
// every field in `fields`.
void expect_rejected(const RunRequest& r, const std::vector<std::string>& fields) {
  try {
    run_one(r);
    ADD_FAILURE() << "run_one accepted a request whose dispatch would drop a field";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const std::string& f : fields) {
      EXPECT_NE(what.find(f), std::string::npos) << "missing '" << f << "' in: " << what;
    }
  }
}

TEST(RunnerRejects, PoolPlusServiceRequest) {
  RunRequest r;
  r.pool = sys::coaxial_pooled(2);
  r.service = one_tenant_service();
  expect_rejected(r, {"pool", "service"});
}

TEST(RunnerRejects, TierOverridesOnPooledRun) {
  RunRequest r;
  r.pool = sys::coaxial_pooled(2);
  r.tier_policy = "hotness_lru";
  expect_rejected(r, {"tier_policy", "pool"});
  r.tier_policy.clear();
  r.tier_fast_pages = 64;
  expect_rejected(r, {"tier_fast_pages", "pool"});
  r.tier_fast_pages = 0;
  r.tier_epoch_cycles = 300;
  expect_rejected(r, {"tier_epoch_cycles", "pool"});
}

TEST(RunnerRejects, TierOverridesOnServiceRun) {
  RunRequest r;
  r.config = sys::coaxial_4x();
  r.service = one_tenant_service();
  r.tier_policy = "hotness_lru";
  r.tier_fast_pages = 64;
  r.tier_epoch_cycles = 300;
  expect_rejected(
      r, {"tier_policy", "tier_fast_pages", "tier_epoch_cycles", "service"});
}

}  // namespace
}  // namespace coaxial::sim
