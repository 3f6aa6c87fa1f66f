#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace xg {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats s;
  for (double x : xs) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum of squares = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng rng(31);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    (i < 200 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.Add(1.0);
  a.Add(2.0);
  const double mean = a.mean();
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.Add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25 * 1000 / 999.0, 1e-6);
}

TEST(SampleSet, PercentilesOnKnownData) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(90), 90.1, 1e-9);
}

TEST(SampleSet, AddAfterPercentileQuery) {
  SampleSet s;
  s.Add(3.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Median(), 2.0);
  s.Add(100.0);  // forces re-sort
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
}

TEST(SampleSet, EmptyPercentile) {
  SampleSet s;
  EXPECT_EQ(s.Percentile(50), 0.0);
}

TEST(SampleSet, StatsTrackSamples) {
  SampleSet s;
  s.AddAll({1.0, 2.0, 3.0});
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(SampleSet, ReserveDoesNotChangeObservableState) {
  SampleSet s;
  s.Reserve(1000);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_GE(s.samples().capacity(), 1000u);
  s.Add(4.0);
  s.Add(2.0);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
}

TEST(SampleSet, ClearResetsForReuse) {
  SampleSet s;
  s.AddAll({5.0, 10.0, 15.0});
  EXPECT_DOUBLE_EQ(s.Median(), 10.0);
  s.Clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.Percentile(50), 0.0);
  // The set is fully reusable: stats and order statistics restart clean.
  s.AddAll({1.0, 3.0});
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Median(), 2.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.2);
  EXPECT_FALSE(e.initialized());
  for (int i = 0; i < 100; ++i) e.Add(7.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_NEAR(e.value(), 7.0, 1e-9);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.1);
  e.Add(42.0);
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(Ewma, TracksStep) {
  Ewma e(0.5);
  e.Add(0.0);
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
}

class PercentileSweep : public ::testing::TestWithParam<double> {};

TEST_P(PercentileSweep, MonotoneInP) {
  Rng rng(77);
  SampleSet s;
  for (int i = 0; i < 1000; ++i) s.Add(rng.Gaussian(0, 1));
  const double p = GetParam();
  EXPECT_LE(s.Percentile(p), s.Percentile(p + 5.0) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Ps, PercentileSweep,
                         ::testing::Values(0.0, 10.0, 25.0, 50.0, 75.0, 90.0));

}  // namespace
}  // namespace xg
