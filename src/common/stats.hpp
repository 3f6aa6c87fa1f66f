// Statistics accumulators used by every measurement harness in xGFabric:
// throughput sampling (Figs 4-6), message latency (Table 1), CFD runtime
// distributions (Fig 7), and end-to-end timing (Section 4.4).
//
// THREAD-SAFETY: every accumulator in this header is explicitly
// single-threaded (XG_SIM_THREAD_CONFINED), like everything else a
// fabric owns. None carries a lock, and SampleSet mutates `mutable`
// state from const accessors, so even concurrent reads race. To combine
// runs made on several threads, accumulate per thread and Merge() on one
// thread. xglint's confined-static rule rejects file-scope instances of
// these types in src/ because a global accumulator is exactly the
// shared-unguarded use this contract forbids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.hpp"

namespace xg {

/// Numerically stable running mean/variance (Welford) with min/max.
class XG_SIM_THREAD_CONFINED RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);
  void Reset();

  size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample container that also supports order statistics. Retains all
/// samples; adequate for the sample counts in this paper (<= thousands).
///
/// THREAD-SAFETY: not thread-safe, *including the const accessors*.
/// Percentile()/Median() sort the sample buffer lazily through `mutable`
/// members, so two concurrent "read-only" Percentile calls race on the
/// sort, and a concurrent Add can invalidate iterators mid-sort. Guard
/// the whole object externally, or merge per-thread SampleSets instead.
/// For a thread-safe bounded alternative see obs::Histogram.
class XG_SIM_THREAD_CONFINED SampleSet {
 public:
  void Add(double x);
  void AddAll(const std::vector<double>& xs);

  /// Pre-size the sample buffer (bench loops reuse one set per config).
  void Reserve(size_t n);
  /// Drop all samples and reset the running stats for reuse.
  void Clear();

  size_t count() const { return samples_.size(); }
  double mean() const { return stats_.mean(); }
  double stddev() const { return stats_.stddev(); }
  double variance() const { return stats_.variance(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  double sum() const { return stats_.sum(); }

  /// Linear-interpolated percentile, p in [0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  // `mutable` supports lazy sorting from const accessors; see the
  // thread-safety note in the class comment before adding shared use.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  RunningStats stats_;

  void EnsureSorted() const;
};

/// Exponentially-weighted moving average, used by the proportional-fair
/// scheduler for per-UE average throughput tracking.
class XG_SIM_THREAD_CONFINED Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}
  void Add(double x) {
    value_ = initialized_ ? alpha_ * x + (1.0 - alpha_) * value_ : x;
    initialized_ = true;
  }
  double value() const { return value_; }
  bool initialized() const { return initialized_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace xg
