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

Histogram::Histogram()
    : counts_(std::vector<std::atomic<uint64_t>>(kBucketTotal)) {}

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
  counts_[BucketIndex(value_us)].fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(value_us, std::memory_order_relaxed);
  int64_t cur = min_us_.load(std::memory_order_relaxed);
  while (value_us < cur &&
         !min_us_.compare_exchange_weak(cur, value_us,
                                        std::memory_order_relaxed)) {
  }
  cur = max_us_.load(std::memory_order_relaxed);
  while (value_us > cur &&
         !max_us_.compare_exchange_weak(cur, value_us,
                                        std::memory_order_relaxed)) {
  }
  // Release-publish the observation: a reader that acquires count() >= n
  // sees the bucket increments and extrema of the first n observations.
  count_.fetch_add(1, std::memory_order_release);
}

int64_t Histogram::min_us() const {
  return count() == 0 ? 0 : min_us_.load(std::memory_order_relaxed);
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
    cum += counts_[i].load(std::memory_order_relaxed);
    if (cum >= rank) {
      // min/max, not std::clamp: a racing writer may briefly leave lo > hi.
      return std::min(std::max(BucketUpperUs(i), lo), hi);
    }
  }
  return hi;
}

HistogramSnapshot Histogram::Snapshot() const {
  std::vector<uint64_t> raw(counts_.size());
  uint64_t total = 0;
  // Seqlock-style consistency: both the buckets and the total are
  // monotone, and Record publishes the bucket increment before the count,
  // so "sum of buckets == count" identifies a consistent cut. A bounded
  // number of attempts keeps the exporter wait-free against a writer
  // storm; the final pass still exports its own bucket sum as the count.
  for (int attempt = 0; attempt < 64; ++attempt) {
    total = 0;
    const uint64_t before = count_.load(std::memory_order_acquire);
    for (size_t i = 0; i < counts_.size(); ++i) {
      raw[i] = counts_[i].load(std::memory_order_relaxed);
      total += raw[i];
    }
    if (total == before &&
        count_.load(std::memory_order_acquire) == before) {
      break;
    }
  }
  HistogramSnapshot snap;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == 0) continue;
    snap.bounds.push_back(static_cast<double>(BucketUpperUs(i)) / 1e3);
    snap.counts.push_back(raw[i]);
  }
  snap.counts.push_back(0);  // the implicit +Inf bucket is always empty
  snap.count = total;        // every value has a finite bucket
  snap.sum = static_cast<double>(sum_us_.load(std::memory_order_relaxed)) / 1e3;
  return snap;
}

}  // namespace xg::obs
