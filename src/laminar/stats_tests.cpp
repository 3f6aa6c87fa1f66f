#include "laminar/stats_tests.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace xg::laminar {

namespace {
double Mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double SampleVar(std::span<const double> v, double mean) {
  if (v.size() < 2) return 0.0;
  double s = 0.0;
  for (double x : v) s += (x - mean) * (x - mean);
  return s / static_cast<double>(v.size() - 1);
}

/// ln|Gamma(x)|. std::lgamma also writes the sign to the global `signgam`,
/// a data race between fabrics on two threads; lgamma_r returns it instead.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}
}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  // Lentz continued fraction for I_x(a,b); use the symmetry transform for
  // convergence when x > (a+1)/(a+b+2).
  const double ln_beta = LogGamma(a) + LogGamma(b) - LogGamma(a + b);
  const double front =
      std::exp(a * std::log(x) + b * std::log(1.0 - x) - ln_beta);
  if (x > (a + 1.0) / (a + b + 2.0)) {
    return 1.0 - RegularizedIncompleteBeta(b, a, 1.0 - x);
  }
  constexpr double kTiny = 1e-30;
  double f = 1.0, c = 1.0, d = 0.0;
  for (int i = 0; i <= 300; ++i) {
    const int m = i / 2;
    double numerator;
    if (i == 0) {
      numerator = 1.0;
    } else if (i % 2 == 0) {
      numerator = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
    } else {
      numerator =
          -((a + m) * (a + b + m) * x) / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
    }
    d = 1.0 + numerator * d;
    if (std::abs(d) < kTiny) d = kTiny;
    d = 1.0 / d;
    c = 1.0 + numerator / c;
    if (std::abs(c) < kTiny) c = kTiny;
    const double delta = c * d;
    f *= delta;
    if (std::abs(1.0 - delta) < 1e-10) break;
  }
  return front * (f - 1.0) / a;
}

double StudentTTwoSidedP(double t, double df) {
  if (df <= 0.0) return 1.0;
  const double x = df / (df + t * t);
  // P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2)
  double p = RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return std::clamp(p, 0.0, 1.0);
}

TestOutcome WelchTTest(std::span<const double> a, std::span<const double> b) {
  TestOutcome out;
  if (a.size() < 2 || b.size() < 2) return out;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double ma = Mean(a), mb = Mean(b);
  const double va = SampleVar(a, ma), vb = SampleVar(b, mb);
  const double sa = va / na, sb = vb / nb;
  const double denom = std::sqrt(sa + sb);
  if (denom <= 0.0) {
    // Identical zero-variance samples are indistinguishable; different
    // constants are trivially different.
    out.statistic = (ma == mb) ? 0.0 : 1e9;
    out.p_value = (ma == mb) ? 1.0 : 0.0;
    return out;
  }
  out.statistic = (ma - mb) / denom;
  const double df = (sa + sb) * (sa + sb) /
                    (sa * sa / (na - 1.0) + sb * sb / (nb - 1.0));
  out.p_value = StudentTTwoSidedP(std::abs(out.statistic), df);
  return out;
}

TestOutcome MannWhitneyU(std::span<const double> a, std::span<const double> b,
                         RankScratch& scratch) {
  TestOutcome out;
  const size_t na = a.size(), nb = b.size();
  if (na == 0 || nb == 0) return out;

  // Rank the pooled sample with midranks for ties.
  using Obs = RankScratch::Obs;
  std::vector<Obs>& pooled = scratch.pooled;
  pooled.clear();
  for (double x : a) pooled.push_back({x, 0});
  for (double x : b) pooled.push_back({x, 1});
  std::sort(pooled.begin(), pooled.end(),
            [](const Obs& l, const Obs& r) { return l.x < r.x; });

  // Sum a's midranks in pooled order while walking the tie groups.
  double tie_correction = 0.0;
  double rank_sum_a = 0.0;
  for (size_t i = 0; i < pooled.size();) {
    size_t j = i;
    while (j < pooled.size() && pooled[j].x == pooled[i].x) ++j;
    const double midrank =
        (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (size_t k = i; k < j; ++k) {
      if (pooled[k].group == 0) rank_sum_a += midrank;
    }
    const double t = static_cast<double>(j - i);
    tie_correction += t * t * t - t;
    i = j;
  }

  const double dna = static_cast<double>(na), dnb = static_cast<double>(nb);
  const double u_a = rank_sum_a - dna * (dna + 1.0) / 2.0;
  const double u = std::min(u_a, dna * dnb - u_a);
  out.statistic = u;

  const double n = dna + dnb;
  const double mu = dna * dnb / 2.0;
  double sigma2 = dna * dnb / 12.0 *
                  ((n + 1.0) - tie_correction / (n * (n - 1.0)));
  if (sigma2 <= 0.0) {
    out.p_value = 1.0;  // all observations tied
    return out;
  }
  // Normal approximation with continuity correction, two-sided.
  const double z = (u - mu + 0.5) / std::sqrt(sigma2);
  out.p_value = std::clamp(2.0 * 0.5 * std::erfc(-z / std::sqrt(2.0)), 0.0, 1.0);
  // z is negative or zero by construction of u = min(...): two-sided p is
  // twice the lower tail.
  return out;
}

TestOutcome KolmogorovSmirnov(std::span<const double> a,
                              std::span<const double> b, RankScratch& scratch) {
  TestOutcome out;
  if (a.empty() || b.empty()) return out;
  std::vector<double>& sa = scratch.sorted_a;
  std::vector<double>& sb = scratch.sorted_b;
  sa.assign(a.begin(), a.end());
  sb.assign(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());

  double d = 0.0;
  size_t ia = 0, ib = 0;
  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());
  while (ia < sa.size() && ib < sb.size()) {
    const double x = std::min(sa[ia], sb[ib]);
    while (ia < sa.size() && sa[ia] <= x) ++ia;
    while (ib < sb.size() && sb[ib] <= x) ++ib;
    const double fa = static_cast<double>(ia) / na;
    const double fb = static_cast<double>(ib) / nb;
    d = std::max(d, std::abs(fa - fb));
  }
  out.statistic = d;

  const double en = std::sqrt(na * nb / (na + nb));
  // Asymptotic Kolmogorov distribution with the Stephens small-sample
  // adjustment. The series only converges for lambda away from zero; tiny
  // lambda means the distributions are indistinguishable (p -> 1).
  const double lambda = (en + 0.12 + 0.11 / en) * d;
  if (lambda < 0.30) {
    out.p_value = 1.0;
    return out;
  }
  double p = 0.0;
  for (int k = 1; k <= 100; ++k) {
    const double term =
        2.0 * std::pow(-1.0, k - 1) * std::exp(-2.0 * k * k * lambda * lambda);
    p += term;
    if (std::abs(term) < 1e-12) break;
  }
  out.p_value = std::clamp(p, 0.0, 1.0);
  return out;
}

}  // namespace xg::laminar
