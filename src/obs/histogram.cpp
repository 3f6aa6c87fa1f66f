#include "obs/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace xg::obs {

namespace {
// kSubCount = 2^kSubBits exact unit buckets, then (kMaxOctave - kSubBits)
// octaves of kSubCount/2 linear sub-buckets each.
constexpr int kSubBits = 5;
static_assert(Histogram::kSubCount == (int64_t{1} << kSubBits));
constexpr size_t kBucketTotal =
    Histogram::kSubCount +
    static_cast<size_t>(Histogram::kMaxOctave - kSubBits + 1) *
        (Histogram::kSubCount / 2);
}  // namespace

Histogram::Histogram() : counts_(kBucketTotal, 0) {}

size_t Histogram::BucketIndex(int64_t value_us) {
  if (value_us < 0) value_us = 0;
  if (value_us < kSubCount) return static_cast<size_t>(value_us);
  // Octave k covers [2^k, 2^(k+1)); its upper half of sub-buckets are the
  // new ones (the lower half aliases the previous octave's resolution).
  int k = 63 - std::countl_zero(static_cast<uint64_t>(value_us));
  if (k > kMaxOctave) k = kMaxOctave;
  const int shift = k - kSubBits + 1;
  int64_t sub = value_us >> shift;  // in [kSubCount/2, kSubCount)
  if (sub >= kSubCount) sub = kSubCount - 1;  // saturated beyond kMaxOctave
  const size_t base =
      kSubCount + static_cast<size_t>(k - kSubBits) * (kSubCount / 2);
  return base + static_cast<size_t>(sub - kSubCount / 2);
}

int64_t Histogram::BucketUpperUs(size_t i) {
  if (i < kSubCount) return static_cast<int64_t>(i);
  const size_t rel = i - kSubCount;
  const int k = kSubBits + static_cast<int>(rel / (kSubCount / 2));
  const int64_t sub =
      kSubCount / 2 + static_cast<int64_t>(rel % (kSubCount / 2));
  const int shift = k - kSubBits + 1;
  return ((sub + 1) << shift) - 1;
}

void Histogram::Record(int64_t value_us) {
  if (value_us < 0) value_us = 0;
  ++counts_[BucketIndex(value_us)];
  sum_us_ += value_us;
  min_us_ = std::min(min_us_, value_us);
  max_us_ = std::max(max_us_, value_us);
  ++count_;
}

double Histogram::MeanUs() const {
  const uint64_t n = count();
  return n ? static_cast<double>(sum_us()) / static_cast<double>(n) : 0.0;
}

int64_t Histogram::Percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  const int64_t lo = min_us();
  const int64_t hi = max_us();
  if (p <= 0.0) return lo;
  if (p >= 100.0) return hi;
  const auto rank =
      static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  uint64_t cum = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= rank) return std::clamp(BucketUpperUs(i), lo, hi);
  }
  return hi;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    snap.bounds.push_back(static_cast<double>(BucketUpperUs(i)) / 1e3);
    snap.counts.push_back(counts_[i]);
  }
  snap.counts.push_back(0);  // the implicit +Inf bucket is always empty
  snap.count = count_;       // every value has a finite bucket
  snap.sum = static_cast<double>(sum_us_) / 1e3;
  return snap;
}

}  // namespace xg::obs
