// Unit tests for the benchmark's own rules (bench_core.hpp). Build and run
// with `python3 perfbench/run.py --self-test`.
#include "bench_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

namespace {

using namespace perfbench;
namespace prof = coaxial::obs::prof;
using coaxial::obs::MetricValue;
using coaxial::obs::Snapshot;

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(TailPercentile, LeavesTenSamplesBeyond) {
  const Tail t = tail_percentile(iota_samples(100));
  EXPECT_TRUE(t.qualified);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_DOUBLE_EQ(t.value, 90.0);  // 91..100 lie beyond it.
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = iota_samples(48);
  std::reverse(v.begin(), v.end());
  const Tail t = tail_percentile(v);
  EXPECT_TRUE(t.qualified);
  EXPECT_DOUBLE_EQ(t.value, 38.0);  // 39..48: ten beyond.
  EXPECT_NEAR(t.percentile, 100.0 * 38 / 48, 1e-9);
}

TEST(TailPercentile, TwentyOneSamplesIsTheSmallestQualifyingCount) {
  // Index 10 of 21: the median, with ten samples beyond it.
  const Tail t = tail_percentile(iota_samples(21));
  EXPECT_TRUE(t.qualified);
  EXPECT_DOUBLE_EQ(t.value, 11.0);
}

TEST(TailPercentile, TooFewSamplesFallBackToTheMaximum) {
  // With 20 samples the ten-beyond index lies below the median.
  const Tail t = tail_percentile(iota_samples(20));
  EXPECT_FALSE(t.qualified);
  EXPECT_EQ(t.samples, 20u);
  EXPECT_DOUBLE_EQ(t.value, 20.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

prof::Totals totals(const std::map<prof::Phase, std::uint64_t>& ns) {
  prof::Totals t;
  for (const auto& [p, v] : ns) {
    t.ns[static_cast<std::size_t>(p)] = v;
    t.calls[static_cast<std::size_t>(p)] = 1;
  }
  return t;
}

double self_of(const SelfTimes& s, prof::Phase p) { return s.ns[static_cast<std::size_t>(p)]; }

TEST(SelfTime, SubtractsNestedPhases) {
  using P = prof::Phase;
  const SelfTimes s = derive_self(totals({{P::kSchedDispatch, 1000},
                                          {P::kEventDrain, 200},
                                          {P::kMemPump, 300},
                                          {P::kCoreTick, 400},
                                          {P::kWorkloadGen, 50},
                                          {P::kCacheAccess, 100},
                                          {P::kMshr, 30},
                                          {P::kDramTick, 250},
                                          {P::kDramTryIssue, 120}}));
  EXPECT_DOUBLE_EQ(self_of(s, P::kSchedDispatch), 100);
  EXPECT_DOUBLE_EQ(self_of(s, P::kCoreTick), 350);
  EXPECT_DOUBLE_EQ(self_of(s, P::kMemPump), 50);
  EXPECT_DOUBLE_EQ(self_of(s, P::kDramTick), 130);
  EXPECT_DOUBLE_EQ(self_of(s, P::kDramTryIssue), 120);
  // Outside the tree: reported inclusive.
  EXPECT_DOUBLE_EQ(self_of(s, P::kCacheAccess), 100);
  EXPECT_DOUBLE_EQ(s.clamped_ns, 0);
  // With nothing clamped, the tree's self times sum to its root.
  EXPECT_DOUBLE_EQ(s.tree_ns, 1000);
}

TEST(SelfTime, NeverNegativeAndClampedAmountIsReported) {
  using P = prof::Phase;
  // Inconsistent totals (children over their parent, as timer skew on a
  // loaded host can give) must not produce a negative self time.
  const SelfTimes s = derive_self(totals({{P::kSchedDispatch, 1000},
                                          {P::kEventDrain, 500},
                                          {P::kCoreTick, 300},
                                          {P::kMemPump, 250}}));
  for (double v : s.ns) EXPECT_GE(v, 0);
  EXPECT_DOUBLE_EQ(self_of(s, P::kSchedDispatch), 0);
  EXPECT_DOUBLE_EQ(s.clamped_ns, 50);
  // The tree's self times exceed the root by exactly the clamped amount,
  // so tree - clamped never exceeds the traced run that contains the root.
  EXPECT_DOUBLE_EQ(s.tree_ns - s.clamped_ns, 1000);
}

TEST(SelfTime, ParentThatNeverRanSubtractsNothing) {
  using P = prof::Phase;
  // ServiceDriver ticks the DRAM controllers without a mem_pump scope.
  prof::Totals t = totals({{P::kDramTick, 400}, {P::kDramTryIssue, 150}});
  t.calls[static_cast<std::size_t>(P::kMemPump)] = 0;
  const SelfTimes s = derive_self(t);
  EXPECT_DOUBLE_EQ(self_of(s, P::kMemPump), 0);
  EXPECT_DOUBLE_EQ(self_of(s, P::kDramTick), 250);
  EXPECT_DOUBLE_EQ(s.clamped_ns, 0);
  EXPECT_DOUBLE_EQ(s.tree_ns, 400);
}

TEST(SelfTime, ReadsPublishedTotalsBack) {
  Snapshot snap;
  snap["host/prof/dram_tick/ns"] = MetricValue::of(std::uint64_t{400});
  snap["host/prof/dram_tick/calls"] = MetricValue::of(std::uint64_t{7});
  snap["host/prof/shard/pump/ns"] = MetricValue::of(std::uint64_t{9});
  const prof::Totals t = totals_from_snapshot(snap);
  EXPECT_EQ(t.ns[static_cast<std::size_t>(prof::Phase::kDramTick)], 400u);
  EXPECT_EQ(t.calls[static_cast<std::size_t>(prof::Phase::kDramTick)], 7u);
  EXPECT_EQ(t.ns[static_cast<std::size_t>(prof::Phase::kShardPump)], 9u);
}

TEST(OpLedger, DigestMismatchFailsTheOp) {
  OpLedger l;
  EXPECT_TRUE(l.record("w", "aaaa", 0));  // First digest becomes the reference.
  EXPECT_TRUE(l.record("w", "aaaa", 0));
  EXPECT_FALSE(l.record("w", "bbbb", 0));
  EXPECT_TRUE(l.record("other", "bbbb", 0));  // References are per key.
  EXPECT_EQ(l.attempted(), 4u);
  EXPECT_EQ(l.failed(), 1u);
  ASSERT_EQ(l.failures().size(), 1u);
  EXPECT_NE(l.failures()[0].find("bbbb"), std::string::npos);
}

TEST(OpLedger, PinnedReferenceGovernsEveryRepeat) {
  OpLedger l;
  l.set_reference("pooled-4h", "ref1");
  EXPECT_FALSE(l.record("pooled-4h", "other", 0));
  EXPECT_FALSE(l.record("pooled-4h", "other", 0));
  EXPECT_TRUE(l.record("pooled-4h", "ref1", 0));
  EXPECT_EQ(l.failed(), 2u);
}

TEST(OpLedger, ViolationsAndExceptionsFail) {
  OpLedger l;
  EXPECT_FALSE(l.record("w", "aaaa", 3));
  l.record_exception("boom");
  EXPECT_EQ(l.attempted(), 2u);
  EXPECT_EQ(l.failed(), 2u);
}

TEST(Snapshot, ModelOnlyDropsHostSubtreeAndViolationsSum) {
  Snapshot snap;
  snap["host/prof/core_tick/ns"] = MetricValue::of(std::uint64_t{5});
  snap["mem/dram/ctrl00/invariants/violations"] = MetricValue::of(std::uint64_t{2});
  snap["mem/cxl/link00/invariants/violations"] = MetricValue::of(std::uint64_t{1});
  snap["mem/dram/ctrl00/invariants/trc"] = MetricValue::of(std::uint64_t{9});
  const Snapshot m = model_only(snap);
  EXPECT_EQ(m.count("host/prof/core_tick/ns"), 0u);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(invariant_violations(m), 3u);
}

TEST(Digest, StableAndSensitive) {
  EXPECT_EQ(digest("abc"), digest("abc"));
  EXPECT_NE(digest("abc"), digest("abd"));
  EXPECT_EQ(digest("").size(), 16u);
}

TEST(Knobs, AnySetPinnedKnobIsRefused) {
  const std::map<std::string, std::string> env = {
      {"COAXIAL_PROF", "0"}, {"COAXIAL_SHARDS", "4"}, {"COAXIAL_INSTR", "100"}};
  const auto fake = [&](const char* k) -> const char* {
    const auto it = env.find(k);
    return it == env.end() ? nullptr : it->second.c_str();
  };
  const std::vector<std::string> set = set_knobs(fake);
  EXPECT_EQ(set, (std::vector<std::string>{"COAXIAL_SHARDS", "COAXIAL_PROF"}));
  EXPECT_TRUE(set_knobs([](const char*) -> const char* { return nullptr; }).empty());
}

TEST(Spans, NestAndShareSimulationIds) {
  SpanRecorder r;
  const std::uint64_t root = r.begin("closed-12c", 0, 0);
  const std::uint64_t sim = r.next_sim();
  const std::uint64_t s = r.begin("simulation", root, sim);
  const std::uint64_t run = r.begin("run", s, sim);
  r.end(run);
  r.end(s);
  r.add_duration("simulation", root, r.next_sim(), 5e6);
  r.end(root);
  ASSERT_EQ(r.spans().size(), 4u);
  EXPECT_EQ(r.spans()[2].parent, s);
  EXPECT_EQ(r.spans()[2].sim, r.spans()[1].sim);
  EXPECT_GE(r.spans()[0].dur_ns, r.spans()[1].dur_ns);
  EXPECT_LT(r.spans()[3].start_ns, 0);
  EXPECT_NE(r.to_json().find("\"start_ns\": null, \"dur_ns\": 5000000"), std::string::npos);
}

}  // namespace
