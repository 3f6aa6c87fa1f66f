// Unit tests for the benchmark's own statistics (stats.hpp). Plain checks
// with a non-zero exit on the first failure, so the test needs nothing
// beyond the compiler. Run: .bench_build/perfbench/test_stats
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void TestExactPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  Expect(*perfbench::Percentile(v, 50.0) == 50.0, "p50 of 1..100 is 50");
  Expect(*perfbench::Percentile(v, 90.0) == 90.0, "p90 of 1..100 is 90");
  Expect(*perfbench::Percentile(v, 99.0) == 99.0, "p99 of 1..100 is 99");
  Expect(*perfbench::Percentile(v, 100.0) == 100.0, "p100 is the max");
  Expect(*perfbench::Percentile(v, 0.0) == 1.0, "p0 is the min");
  // Nearest rank always returns a sample, never an interpolated value.
  const std::vector<double> odd = {1.0, 2.0, 4.0};
  Expect(*perfbench::PercentileSorted(odd, 50.0) == 2.0, "p50 of {1,2,4}");
  Expect(*perfbench::PercentileSorted(odd, 60.0) == 2.0, "p60 of {1,2,4}");
  Expect(*perfbench::PercentileSorted(odd, 70.0) == 4.0, "p70 of {1,2,4}");
  // No percentile exceeds the max, even with a large outlier.
  const std::vector<double> tail = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1000};
  Expect(*perfbench::PercentileSorted(tail, 99.9) <= 1000.0, "p99.9 <= max");
  Expect(*perfbench::PercentileSorted(tail, 90.0) == 1.0, "p90 below outlier");
}

void TestTailRule() {
  Expect(perfbench::SamplesBeyond(100, 90.0) == 10, "10 beyond p90 of 100");
  Expect(perfbench::TailReportable(100, 90.0), "p90 reportable at n=100");
  Expect(!perfbench::TailReportable(99, 90.0), "p90 not reportable at n=99");
  Expect(perfbench::TailReportable(1000, 99.0), "p99 reportable at n=1000");
  Expect(!perfbench::TailReportable(999, 99.0), "p99 not reportable at n=999");
  Expect(!perfbench::TailReportable(5, 50.0), "p50 of 5 has 2 beyond");
  Expect(perfbench::TailReportable(20, 50.0), "p50 of 20 has 10 beyond");
}

void TestEmpty() {
  const std::vector<double> none;
  Expect(!perfbench::Percentile(none, 50.0).has_value(), "empty: no p50");
  Expect(perfbench::SamplesBeyond(0, 90.0) == 0, "empty: nothing beyond");
  Expect(!perfbench::TailReportable(0, 90.0), "empty: no tail");
  const perfbench::Quartiles q = perfbench::QuartilesOf(none);
  Expect(q.n == 0 && q.median == 0.0, "empty: zero quartiles");
  const perfbench::Quartiles d = perfbench::PairedOverhead(none, none);
  Expect(d.n == 0, "empty: no pairs");
}

void TestPairedOverhead() {
  // on - off per pair: {2, 1, 3, 2, 2}; median 2, quartiles 2 and 2.
  const std::vector<double> off = {10, 11, 9, 10, 12};
  const std::vector<double> on = {12, 12, 12, 12, 14};
  const perfbench::Quartiles d = perfbench::PairedOverhead(off, on);
  Expect(d.n == 5, "five pairs");
  Expect(d.median == 2.0, "median difference 2");
  Expect(d.q1 == 2.0 && d.q3 == 2.0, "quartiles of differences");

  // A cost below the noise gives a negative estimate; it is not clamped.
  const std::vector<double> noisy_off = {10, 12, 10, 12};
  const std::vector<double> noisy_on = {9, 11, 10.5, 11.5};
  const perfbench::Quartiles n = perfbench::PairedOverhead(noisy_off, noisy_on);
  Expect(n.median < 0.0, "negative point estimate is kept");
  Expect(n.median == -1.0, "median of {-1,-1,0.5,-0.5} by nearest rank");
  Expect(n.q1 == -1.0 && n.q3 == -0.5, "quartiles of negative differences");

  // Pairs are matched by index; a longer side is truncated.
  const std::vector<double> short_on = {11};
  Expect(perfbench::PairedOverhead(off, short_on).n == 1, "unequal sides");
}

}  // namespace

int main() {
  TestExactPercentiles();
  TestTailRule();
  TestEmpty();
  TestPairedOverhead();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("test_stats: all checks passed\n");
  return EXIT_SUCCESS;
}
