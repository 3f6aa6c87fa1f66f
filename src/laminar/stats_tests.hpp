// The three tests of statistical difference used by the xGFabric
// change-detection program (paper Section 4.2): the Laminar program reads
// the most recent 6 telemetry values (30 minutes at the 5-minute reporting
// interval), compares them with the previous 30-minute window under three
// different tests, and a voting rule arbitrates.
//
// Implemented from scratch:
//  - Welch's t-test (unequal-variance two-sample t), parametric;
//  - Mann-Whitney U (rank-sum), non-parametric location shift;
//  - two-sample Kolmogorov-Smirnov, non-parametric distribution change.
//
// All three return approximate p-values suitable for the small-n windows
// the application uses; the voting layer only consumes reject/accept at a
// configurable alpha.
//
// The samples are read through spans. The two rank-based tests sort
// copies, which they keep in a caller-owned RankScratch: once it has grown
// to the largest samples, a test allocates nothing.
#pragma once

#include <span>
#include <vector>

namespace xg::laminar {

struct TestOutcome {
  double statistic = 0.0;
  double p_value = 1.0;
  bool reject(double alpha = 0.05) const { return p_value < alpha; }
};

/// Sorted working copies for MannWhitneyU and KolmogorovSmirnov, reused
/// across calls.
struct RankScratch {
  struct Obs {
    double x;
    int group;  ///< 0 for the first sample, 1 for the second
  };
  std::vector<Obs> pooled;
  std::vector<double> sorted_a, sorted_b;
};

/// Welch's unequal-variance t-test, two-sided, with the
/// Welch-Satterthwaite degrees of freedom and a Student-t CDF evaluated
/// via the regularized incomplete beta function.
TestOutcome WelchTTest(std::span<const double> a, std::span<const double> b);

/// Mann-Whitney U with tie-corrected normal approximation (adequate at the
/// application's window sizes and standard practice for n >= ~5 per side).
TestOutcome MannWhitneyU(std::span<const double> a, std::span<const double> b,
                         RankScratch& scratch);

/// Two-sample Kolmogorov-Smirnov with the asymptotic Kolmogorov
/// distribution for the p-value.
TestOutcome KolmogorovSmirnov(std::span<const double> a,
                              std::span<const double> b, RankScratch& scratch);

/// One-off forms with their own scratch.
inline TestOutcome MannWhitneyU(std::span<const double> a,
                                std::span<const double> b) {
  RankScratch scratch;
  return MannWhitneyU(a, b, scratch);
}
inline TestOutcome KolmogorovSmirnov(std::span<const double> a,
                                     std::span<const double> b) {
  RankScratch scratch;
  return KolmogorovSmirnov(a, b, scratch);
}

/// Regularized incomplete beta function I_x(a, b) (continued fraction),
/// exposed for tests.
double RegularizedIncompleteBeta(double a, double b, double x);

/// Student-t two-sided p-value for |t| with df degrees of freedom.
double StudentTTwoSidedP(double t, double df);

}  // namespace xg::laminar
