// Statistics the benchmark reports: exact percentiles taken from sorted
// samples (never bucket bounds), the rule that a tail percentile is only
// reported when enough samples lie beyond it, and the paired A/B overhead
// estimate used for observability cost.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of ascending `sorted` samples, q in [0, 100].
/// The result is always one of the samples, so it never exceeds the max.
/// Empty input has no percentile.
inline std::optional<double> PercentileSorted(const std::vector<double>& sorted,
                                              double q) {
  if (sorted.empty()) return std::nullopt;
  const double n = static_cast<double>(sorted.size());
  const double rank = std::ceil(std::clamp(q, 0.0, 100.0) / 100.0 * n);
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline std::optional<double> Percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, q);
}

/// Samples ranked strictly above the nearest-rank q-th percentile of n.
inline size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const double rank =
      std::ceil(std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(n));
  const size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return n > r ? n - r : 0;
}

/// Samples that must lie beyond a tail percentile for it to be reported.
inline constexpr size_t kMinBeyondTail = 10;

/// A tail percentile is reported only when at least kMinBeyondTail samples
/// lie beyond it; otherwise it would be a few samples dressed as a tail.
inline bool TailReportable(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinBeyondTail;
}

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
  size_t n = 0;
};

inline Quartiles QuartilesOf(std::vector<double> samples) {
  Quartiles out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.q1 = *PercentileSorted(samples, 25.0);
  out.median = *PercentileSorted(samples, 50.0);
  out.q3 = *PercentileSorted(samples, 75.0);
  return out;
}

/// Interleaved A/B cost: per pair, `on[i] - off[i]`; the point estimate is
/// the median difference and the spread its quartiles. Never clamped: a
/// negative estimate means the measured cost is below the noise.
inline Quartiles PairedOverhead(const std::vector<double>& off,
                                const std::vector<double>& on) {
  std::vector<double> diffs;
  const size_t n = std::min(off.size(), on.size());
  diffs.reserve(n);
  for (size_t i = 0; i < n; ++i) diffs.push_back(on[i] - off[i]);
  return QuartilesOf(std::move(diffs));
}

}  // namespace perfbench
