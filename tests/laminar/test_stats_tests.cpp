#include "laminar/stats_tests.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace xg::laminar {
namespace {

TEST(IncompleteBeta, KnownValues) {
  // I_x(1,1) = x (uniform CDF).
  EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, 0.3), 0.3, 1e-9);
  // I_x(2,1) = x^2.
  EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 1.0, 0.5), 0.25, 1e-9);
  // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
  const double v = RegularizedIncompleteBeta(2.5, 3.5, 0.4);
  EXPECT_NEAR(v, 1.0 - RegularizedIncompleteBeta(3.5, 2.5, 0.6), 1e-9);
  EXPECT_EQ(RegularizedIncompleteBeta(2.0, 2.0, 0.0), 0.0);
  EXPECT_EQ(RegularizedIncompleteBeta(2.0, 2.0, 1.0), 1.0);
}

TEST(StudentT, KnownQuantiles) {
  // t = 2.571 with df = 5 is the 97.5% quantile: two-sided p = 0.05.
  EXPECT_NEAR(StudentTTwoSidedP(2.571, 5.0), 0.05, 0.002);
  // t = 0 -> p = 1.
  EXPECT_NEAR(StudentTTwoSidedP(0.0, 10.0), 1.0, 1e-9);
  // Large t -> p ~ 0.
  EXPECT_LT(StudentTTwoSidedP(50.0, 10.0), 1e-6);
}

TEST(Welch, IdenticalSamplesDoNotReject) {
  const std::vector<double> a{5.1, 4.9, 5.0, 5.2, 4.8, 5.0};
  auto out = WelchTTest(a, a);
  EXPECT_NEAR(out.statistic, 0.0, 1e-12);
  EXPECT_GT(out.p_value, 0.9);
  EXPECT_FALSE(out.reject());
}

TEST(Welch, ClearShiftRejects) {
  const std::vector<double> a{5.1, 4.9, 5.0, 5.2, 4.8, 5.0};
  const std::vector<double> b{8.1, 7.9, 8.0, 8.2, 7.8, 8.0};
  auto out = WelchTTest(a, b);
  EXPECT_TRUE(out.reject());
  EXPECT_LT(out.p_value, 0.001);
}

TEST(Welch, HandComputedStatistic) {
  const std::vector<double> a{1.0, 2.0, 3.0};  // mean 1.5... mean 2, var 1
  const std::vector<double> b{2.0, 4.0, 6.0};  // mean 4, var 4
  auto out = WelchTTest(a, b);
  // t = (2-4)/sqrt(1/3 + 4/3) = -2/sqrt(5/3).
  EXPECT_NEAR(out.statistic, -2.0 / std::sqrt(5.0 / 3.0), 1e-9);
}

TEST(Welch, TooFewSamplesNeverRejects) {
  EXPECT_FALSE(WelchTTest(std::vector{1.0}, std::vector{5.0, 6.0}).reject());
  EXPECT_FALSE(WelchTTest({}, {}).reject());
}

TEST(Welch, ZeroVarianceCases) {
  EXPECT_FALSE(
      WelchTTest(std::vector{2.0, 2.0, 2.0}, std::vector{2.0, 2.0, 2.0})
          .reject());
  EXPECT_TRUE(
      WelchTTest(std::vector{2.0, 2.0, 2.0}, std::vector{3.0, 3.0, 3.0})
          .reject());
}

TEST(MannWhitney, IdenticalSamplesDoNotReject) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  EXPECT_FALSE(MannWhitneyU(a, a).reject());
}

TEST(MannWhitney, DisjointSamplesReject) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<double> b{11.0, 12.0, 13.0, 14.0, 15.0, 16.0};
  auto out = MannWhitneyU(a, b);
  EXPECT_DOUBLE_EQ(out.statistic, 0.0);  // U = 0 for full separation
  EXPECT_TRUE(out.reject());
}

TEST(MannWhitney, AllTiedIsInconclusive) {
  const std::vector<double> a{3.0, 3.0, 3.0};
  EXPECT_FALSE(MannWhitneyU(a, a).reject());
}

TEST(MannWhitney, RobustToOutliers) {
  // One wild outlier should not flip a rank test the way it can a t-test.
  const std::vector<double> a{5.0, 5.1, 4.9, 5.2, 4.8, 5.0};
  const std::vector<double> b{5.0, 5.1, 4.9, 5.2, 4.8, 500.0};
  EXPECT_FALSE(MannWhitneyU(a, b).reject());
}

TEST(KolmogorovSmirnov, IdenticalSamplesDoNotReject) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  auto out = KolmogorovSmirnov(a, a);
  EXPECT_NEAR(out.statistic, 0.0, 1e-12);
  EXPECT_FALSE(out.reject());
}

TEST(KolmogorovSmirnov, FullSeparationHasDStatOne) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<double> b{11.0, 12.0, 13.0, 14.0, 15.0, 16.0};
  auto out = KolmogorovSmirnov(a, b);
  EXPECT_NEAR(out.statistic, 1.0, 1e-12);
  EXPECT_TRUE(out.reject());
}

TEST(KolmogorovSmirnov, DetectsVarianceChangeWithEqualMeans) {
  // Same mean, very different spread — location tests miss this, KS sees it
  // with enough samples.
  Rng rng(3);
  std::vector<double> narrow, wide;
  for (int i = 0; i < 200; ++i) {
    narrow.push_back(rng.Gaussian(10.0, 0.1));
    wide.push_back(rng.Gaussian(10.0, 5.0));
  }
  EXPECT_TRUE(KolmogorovSmirnov(narrow, wide).reject());
  EXPECT_FALSE(WelchTTest(narrow, wide).reject(0.001));
}

class FalsePositiveRate : public ::testing::TestWithParam<int> {};

TEST_P(FalsePositiveRate, NearAlphaUnderNull) {
  // Draw both windows from the same distribution; each test should reject
  // at roughly its alpha level (generous bounds for n=6 approximations).
  Rng rng(static_cast<uint64_t>(GetParam()));
  int welch = 0, mwu = 0, ks = 0;
  const int trials = 600;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> a, b;
    for (int i = 0; i < 6; ++i) {
      a.push_back(rng.Gaussian(5.0, 1.0));
      b.push_back(rng.Gaussian(5.0, 1.0));
    }
    welch += WelchTTest(a, b).reject();
    mwu += MannWhitneyU(a, b).reject();
    ks += KolmogorovSmirnov(a, b).reject();
  }
  EXPECT_LT(static_cast<double>(welch) / trials, 0.10);
  EXPECT_LT(static_cast<double>(mwu) / trials, 0.10);
  EXPECT_LT(static_cast<double>(ks) / trials, 0.10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FalsePositiveRate, ::testing::Values(1, 2, 3));

class PowerSweep : public ::testing::TestWithParam<double> {};

TEST_P(PowerSweep, LargeShiftsAreDetected) {
  const double shift = GetParam();
  Rng rng(44);
  int detected = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> a, b;
    for (int i = 0; i < 6; ++i) {
      a.push_back(rng.Gaussian(5.0, 0.5));
      b.push_back(rng.Gaussian(5.0 + shift, 0.5));
    }
    detected += WelchTTest(a, b).reject();
  }
  // 3-sigma and larger shifts should almost always be caught.
  EXPECT_GT(static_cast<double>(detected) / trials, 0.9) << "shift " << shift;
}

INSTANTIATE_TEST_SUITE_P(Shifts, PowerSweep, ::testing::Values(1.5, 2.0, 3.0));

}  // namespace
}  // namespace xg::laminar
