// The one latency histogram of the observability layer (microsecond domain).
//
// Every distribution the fabric reports — metrics-registry histograms, the
// SLO stage and end-to-end latencies, per-kernel CFD timings, advisory
// serve latency and the benches' tables — is recorded into this type, so
// every percentile in the repo follows one rule.
//
// Bucketing follows the HDR histogram scheme: values below `kSubCount` land
// in exact unit buckets; above that, each power-of-two octave is split
// into `kSubCount / 2` linear sub-buckets, so every value is bucketed with
// bounded relative error (<= 2 / kSubCount ~ 6%) while memory stays fixed
// at 640 buckets, however many samples are recorded.
//
// Percentile rule: nearest rank over the buckets, reported as the owning
// bucket's inclusive upper edge clamped into the observed [min, max]. A
// reported percentile therefore never exceeds the max nor falls below the
// min; p >= 100 is the exact max and p <= 0 the exact min.
//
// A histogram belongs to the thread that runs its fabric and carries no
// lock (XG_SIM_THREAD_CONFINED). Sums are integer microseconds, so
// same-seed runs reproduce bit-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/thread_annotations.hpp"

namespace xg::obs {

/// Exported view of a histogram, in milliseconds (Prometheus `le`
/// semantics: a value lands in the first bucket whose bound is >= it).
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  ///< non-cumulative, last entry is +Inf
  uint64_t count = 0;
  double sum = 0.0;
};

class XG_SIM_THREAD_CONFINED Histogram {
 public:
  /// Linear sub-buckets per octave; 32 bounds relative error by ~6%.
  static constexpr int64_t kSubCount = 32;
  /// Largest distinguishable value (~2^42 us ~ 51 days of virtual time);
  /// anything larger saturates into the final bucket.
  static constexpr int kMaxOctave = 42;

  Histogram();

  /// Record one value in microseconds (negative values clamp to zero).
  void Record(int64_t value_us);

  uint64_t count() const { return count_; }
  /// Exact sum of recorded values in integer microseconds.
  int64_t sum_us() const { return sum_us_; }
  /// Smallest / largest recorded value; 0 while empty.
  int64_t min_us() const { return count_ == 0 ? 0 : min_us_; }
  int64_t max_us() const { return max_us_; }
  double MeanUs() const;

  /// Percentile p in [0, 100], in microseconds, by the rule in the file
  /// comment. 0 while empty.
  int64_t Percentile(double p) const;

  size_t bucket_count() const { return counts_.size(); }
  /// Inclusive upper bound of bucket `i`, in microseconds.
  static int64_t BucketUpperUs(size_t i);
  /// Bucket index for a value (exposed for the boundary tests).
  static size_t BucketIndex(int64_t value_us);

  /// Sparse snapshot for the metrics registry: bounds are the non-empty
  /// buckets' upper edges in milliseconds, counts are per-bucket, and the
  /// counts sum to `count`.
  HistogramSnapshot Snapshot() const;

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  int64_t sum_us_ = 0;
  int64_t min_us_ = std::numeric_limits<int64_t>::max();
  int64_t max_us_ = 0;
};

}  // namespace xg::obs
