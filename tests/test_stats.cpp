#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace coaxial {
namespace {

TEST(EpochRate, ReportsLastCompletedEpoch) {
  EpochRate r(100);
  for (Cycle t = 0; t < 100; ++t) r.record(t, 2.0);
  // First epoch not yet rolled: rate still 0 until we query past it.
  EXPECT_DOUBLE_EQ(r.rate(100), 2.0);
}

TEST(EpochRate, IdleEpochDropsRate) {
  EpochRate r(100);
  for (Cycle t = 0; t < 100; ++t) r.record(t, 1.0);
  EXPECT_DOUBLE_EQ(r.rate(150), 1.0);
  // Next epoch has no events.
  EXPECT_DOUBLE_EQ(r.rate(250), 0.0);
}

TEST(EpochRate, SkipsMultipleEpochs) {
  EpochRate r(10);
  r.record(0, 5.0);
  EXPECT_DOUBLE_EQ(r.rate(1000), 0.0);  // Many empty epochs since.
}

TEST(Geomean, KnownValues) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(geomean({1.0, 2.0, 4.0}), 2.0, 1e-12);
  EXPECT_EQ(geomean({}), 0.0);
}

}  // namespace
}  // namespace coaxial
