// FixedHistogram unit tests: exact percentiles on hand-computed
// distributions, bucket-boundary edge cases, merge associativity across
// tenants/cores, and overflow-bucket behaviour.
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.hpp"

namespace coaxial {
namespace {

TEST(FixedHistogram, RejectsDegenerateGeometry) {
  EXPECT_THROW(FixedHistogram(0, 16), std::invalid_argument);
  EXPECT_THROW(FixedHistogram(16, 0), std::invalid_argument);
}

TEST(FixedHistogram, EmptyHistogramReportsZeros) {
  FixedHistogram h(16, 64);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(0.999), 0u);
}

TEST(FixedHistogram, ExactPercentilesWithUnitBuckets) {
  // Width-1 buckets make the histogram lossless, so percentiles must match
  // the rank rule target = floor(q*(count-1)) + 1 applied to the sorted
  // samples exactly. Samples: 1..100.
  FixedHistogram h(1, 128);
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile(0.0), 1u);     // rank 1
  EXPECT_EQ(h.percentile(0.50), 50u);   // floor(0.5*99)+1 = 50
  EXPECT_EQ(h.percentile(0.90), 90u);   // floor(0.9*99)+1 = 90
  EXPECT_EQ(h.percentile(0.99), 99u);   // floor(0.99*99)+1 = 99
  EXPECT_EQ(h.percentile(0.999), 99u);  // floor(0.999*99)+1 = 99
  EXPECT_EQ(h.percentile(1.0), 100u);   // rank 100
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(FixedHistogram, HandComputedSkewedDistribution) {
  // 99 fast samples at 10 cycles and one slow sample at 500: p50/p90/p99
  // stay in the fast bucket; only the top rank reaches the slow one.
  FixedHistogram h(1, 1024);
  for (int i = 0; i < 99; ++i) h.add(10);
  h.add(500);
  EXPECT_EQ(h.percentile(0.50), 10u);
  EXPECT_EQ(h.percentile(0.90), 10u);
  EXPECT_EQ(h.percentile(0.99), 10u);   // rank floor(.99*99)+1 = 99: fast
  EXPECT_EQ(h.percentile(0.999), 10u);  // rank floor(.999*99)+1 = 99: fast
  EXPECT_EQ(h.percentile(1.0), 500u);   // rank 100: the slow sample
}

TEST(FixedHistogram, BucketBoundaryValuesLandInLowerEdgeBucket) {
  FixedHistogram h(16, 8);
  h.add(15);  // bucket 0: [0, 16)
  h.add(16);  // bucket 1: [16, 32)
  h.add(31);  // bucket 1
  h.add(32);  // bucket 2
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.overflow_count(), 0u);
  // Percentiles report the lower edge of the holding bucket.
  EXPECT_EQ(h.percentile(0.0), 0u);    // rank 1 -> bucket 0
  EXPECT_EQ(h.percentile(0.50), 16u);  // rank 2 -> bucket 1
  EXPECT_EQ(h.percentile(1.0), 32u);   // rank 4 -> bucket 2
}

TEST(FixedHistogram, LastInRangeValueIsNotOverflow) {
  FixedHistogram h(16, 4);  // covers [0, 64)
  h.add(63);
  EXPECT_EQ(h.overflow_count(), 0u);
  h.add(64);
  EXPECT_EQ(h.overflow_count(), 1u);
}

TEST(FixedHistogram, OverflowBucketReportsExactMax) {
  FixedHistogram h(16, 4);  // covers [0, 64)
  h.add(1);
  h.add(1000);
  h.add(70'000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.overflow_count(), 2u);
  // Ranks 2 and 3 live in the overflow bucket: both report the exact
  // maximum rather than a clamped range edge, so a saturated tail never
  // reads as "64 cycles".
  EXPECT_EQ(h.percentile(0.50), 70'000u);
  EXPECT_EQ(h.percentile(0.999), 70'000u);
  EXPECT_EQ(h.max(), 70'000u);
  EXPECT_EQ(h.sum(), 71'001u);
}

TEST(FixedHistogram, CycleExactGeometryReportsTheTailPastItsRange) {
  // The DRAM read and L2-miss histograms use width-1 buckets over
  // [0, 16384): every in-range percentile is an exact sample, and a sample
  // past the range reports itself rather than the range edge.
  FixedHistogram h(1, 16384);
  for (std::uint64_t v = 1; v <= 99; ++v) h.add(v);
  h.add(16383);
  EXPECT_EQ(h.overflow_count(), 0u);
  EXPECT_EQ(h.percentile(0.50), 50u);
  EXPECT_EQ(h.percentile(0.99), 99u);
  EXPECT_EQ(h.percentile(1.0), 16383u);

  FixedHistogram tail(1, 16384);
  tail.add(20'000);
  EXPECT_EQ(tail.overflow_count(), 1u);
  EXPECT_EQ(tail.percentile(0.99), 20'000u);
  EXPECT_EQ(tail.percentile(0.999), 20'000u);
  EXPECT_EQ(tail.max(), 20'000u);
}

TEST(FixedHistogram, MergeRequiresSameShape) {
  FixedHistogram a(16, 64);
  FixedHistogram b(16, 32);
  FixedHistogram c(8, 64);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
  EXPECT_FALSE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
  FixedHistogram d(16, 64);
  EXPECT_TRUE(a.same_shape(d));
  EXPECT_NO_THROW(a.merge(d));
}

bool identical(const FixedHistogram& a, const FixedHistogram& b) {
  if (a.count() != b.count() || a.sum() != b.sum() || a.max() != b.max() ||
      a.overflow_count() != b.overflow_count()) {
    return false;
  }
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    if (a.percentile(q) != b.percentile(q)) return false;
  }
  return true;
}

TEST(FixedHistogram, MergeIsAssociativeAndCommutative) {
  // Three per-tenant histograms over distinct sample sets; every merge tree
  // must produce an identical combined view.
  auto make = [](std::uint64_t base, std::uint64_t step, int n) {
    FixedHistogram h(4, 256);
    for (int i = 0; i < n; ++i) h.add(base + step * static_cast<std::uint64_t>(i));
    return h;
  };
  const FixedHistogram t0 = make(3, 7, 40);
  const FixedHistogram t1 = make(100, 13, 25);
  const FixedHistogram t2 = make(900, 31, 10);  // Includes overflow (>1024).

  FixedHistogram left(4, 256);  // (t0 + t1) + t2
  left.merge(t0);
  left.merge(t1);
  left.merge(t2);

  FixedHistogram right(4, 256);  // t0 + (t1 + t2), built via a temp.
  FixedHistogram t12(4, 256);
  t12.merge(t1);
  t12.merge(t2);
  right.merge(t0);
  right.merge(t12);

  FixedHistogram reversed(4, 256);  // t2 + t1 + t0
  reversed.merge(t2);
  reversed.merge(t1);
  reversed.merge(t0);

  EXPECT_TRUE(identical(left, right));
  EXPECT_TRUE(identical(left, reversed));

  // And the merged view equals adding every sample into one histogram.
  FixedHistogram direct(4, 256);
  for (int i = 0; i < 40; ++i) direct.add(3 + 7 * static_cast<std::uint64_t>(i));
  for (int i = 0; i < 25; ++i) direct.add(100 + 13 * static_cast<std::uint64_t>(i));
  for (int i = 0; i < 10; ++i) direct.add(900 + 31 * static_cast<std::uint64_t>(i));
  EXPECT_TRUE(identical(left, direct));
}

TEST(FixedHistogram, ResetClearsEverything) {
  FixedHistogram h(16, 8);
  h.add(5);
  h.add(1'000'000);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.overflow_count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(0.999), 0u);
  // Geometry survives reset.
  EXPECT_EQ(h.bucket_width(), 16u);
  EXPECT_EQ(h.buckets(), 8u);
}

TEST(FixedHistogram, PercentilesMonotoneInQuantile) {
  FixedHistogram h(8, 128);
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    h.add((x >> 33) % 2000);  // Some samples overflow the 1024-cycle range.
  }
  std::uint64_t prev = 0;
  for (double q : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const std::uint64_t v = h.percentile(q);
    EXPECT_GE(v, prev) << "quantile " << q;
    prev = v;
  }
}

}  // namespace
}  // namespace coaxial
