// obs::Histogram: bucket-boundary exactness in the unit range, bounded
// relative error in the octave range, the clamped nearest-rank percentile
// rule, and the consistent-snapshot invariant under a concurrent writer.
#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace xg::obs {
namespace {

TEST(HdrBuckets, UnitRangeIsExact) {
  // Values below kSubCount land in exact unit buckets.
  for (int64_t v = 0; v < Histogram::kSubCount; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<size_t>(v));
    EXPECT_EQ(Histogram::BucketUpperUs(static_cast<size_t>(v)), v);
  }
}

TEST(HdrBuckets, FirstOctaveBoundary) {
  // kSubCount (= 32) is the first value in the octave range; it must land
  // in the first octave bucket, whose upper bound is 33 - 1 = 33.
  const size_t i = Histogram::BucketIndex(Histogram::kSubCount);
  EXPECT_EQ(i, static_cast<size_t>(Histogram::kSubCount));
  EXPECT_GE(Histogram::BucketUpperUs(i), Histogram::kSubCount);
}

TEST(HdrBuckets, UpperBoundIsInclusiveAndTight) {
  // Every bucket's upper bound maps back into that bucket, and the next
  // value maps past it.
  Histogram h;
  for (size_t i = 0; i < h.bucket_count(); i += 7) {
    const int64_t upper = Histogram::BucketUpperUs(i);
    EXPECT_EQ(Histogram::BucketIndex(upper), i) << "bucket " << i;
    if (i + 1 < h.bucket_count()) {
      EXPECT_EQ(Histogram::BucketIndex(upper + 1), i + 1)
          << "bucket " << i;
    }
  }
}

TEST(HdrBuckets, BucketsAreMonotone) {
  Histogram h;
  int64_t prev = -1;
  for (size_t i = 0; i < h.bucket_count(); ++i) {
    const int64_t upper = Histogram::BucketUpperUs(i);
    EXPECT_GT(upper, prev) << "bucket " << i;
    prev = upper;
  }
}

TEST(HdrBuckets, RelativeErrorIsBounded) {
  // The scheme's promise: <= 2/kSubCount (~6%) relative error.
  for (int64_t v : {int64_t{100}, int64_t{1000}, int64_t{101'000},
                    int64_t{420'000'000}, int64_t{7'200'000'000}}) {
    const int64_t upper =
        Histogram::BucketUpperUs(Histogram::BucketIndex(v));
    EXPECT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - v),
              2.0 / Histogram::kSubCount * static_cast<double>(v) + 1.0)
        << "value " << v;
  }
}

TEST(HdrBuckets, HugeValuesSaturateIntoFinalBucket) {
  Histogram h;
  const size_t last = h.bucket_count() - 1;
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), last);
  h.Record(INT64_MAX);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum_us(), 0);
  EXPECT_EQ(h.Percentile(50.0), 0);
}

TEST(Histogram, CountSumMinMaxMean) {
  Histogram h;
  EXPECT_EQ(h.min_us(), 0);  // empty: 0, not the sentinel
  h.Record(20);
  h.Record(10);
  h.Record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum_us(), 60);
  EXPECT_EQ(h.min_us(), 10);
  EXPECT_EQ(h.max_us(), 30);
  EXPECT_DOUBLE_EQ(h.MeanUs(), 20.0);
}

TEST(Histogram, PercentileConventions) {
  Histogram h;
  for (int64_t v = 1; v <= 10; ++v) h.Record(v);  // unit range: exact
  EXPECT_EQ(h.Percentile(0.0), 1);
  EXPECT_EQ(h.Percentile(50.0), 5);
  EXPECT_EQ(h.Percentile(90.0), 9);
  // p >= 100 reports the exact max, p <= 0 the exact min.
  EXPECT_EQ(h.Percentile(100.0), 10);
  EXPECT_EQ(h.Percentile(200.0), 10);
  EXPECT_EQ(h.Percentile(-1.0), 1);
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram h;
  EXPECT_EQ(h.Percentile(99.0), 0);
}

TEST(Histogram, BucketBoundariesArePrometheusLe) {
  // `le` semantics: a value lands in the first bucket whose inclusive
  // upper edge is >= it, so a value exactly on an edge belongs to that
  // edge's bucket. 32 and 33 share the first octave bucket [32, 33].
  Histogram h;
  h.Record(31);  // exact unit bucket, edge 31
  h.Record(32);  // bucket [32, 33]
  h.Record(33);  // == edge 33 -> same bucket
  h.Record(34);  // next bucket [34, 35]
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.bounds[0], 0.031);
  EXPECT_DOUBLE_EQ(snap.bounds[1], 0.033);
  EXPECT_DOUBLE_EQ(snap.bounds[2], 0.035);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 0u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.130);
}

TEST(Histogram, MeanAndPercentile) {
  Histogram h;
  for (int64_t ms = 1; ms <= 40; ++ms) h.Record(ms * 1000);
  EXPECT_DOUBLE_EQ(h.MeanUs(), 20500.0);
  // Nearest rank 20 of 40 is 20 ms; its bucket edge is at most ~6% above.
  EXPECT_GE(h.Percentile(50.0), 20000);
  EXPECT_LE(h.Percentile(50.0), 20000 + 20000 * 2 / Histogram::kSubCount);
  EXPECT_EQ(h.Percentile(100.0), 40000);
  EXPECT_EQ(h.Percentile(0.0), 1000);
}

TEST(Histogram, PercentileNeverExceedsMax) {
  // A single CFD-sized sample: its bucket's upper edge (536870911 us) lies
  // above the value, and the clamp must report the value itself.
  Histogram h;
  h.Record(536258900);
  EXPECT_EQ(h.Percentile(99.0), h.max_us());
  EXPECT_EQ(h.Percentile(99.9), h.max_us());
  EXPECT_EQ(h.Percentile(50.0), 536258900);
}

TEST(Histogram, EveryPercentileLiesWithinMinAndMax) {
  // Pseudo-random spread over six orders of magnitude; every reported
  // percentile must sit inside the observed range and be monotone in p.
  Histogram h;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const int64_t v = static_cast<int64_t>(
        (x >> 33) % (int64_t{1} << (10 + (x >> 60))));
    h.Record(v + 37);
  }
  int64_t prev = h.min_us();
  for (double p : {0.0, 0.1, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 99.99,
                   100.0}) {
    const int64_t q = h.Percentile(p);
    EXPECT_GE(q, h.min_us()) << "p" << p;
    EXPECT_LE(q, h.max_us()) << "p" << p;
    EXPECT_GE(q, prev) << "p" << p;
    prev = q;
  }
}

TEST(Histogram, SnapshotKeepsOnlyNonEmptyBucketsAndSums) {
  Histogram h;
  h.Record(3);
  h.Record(3);
  h.Record(1'000'000);
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.bounds.size(), 2u);
  ASSERT_EQ(snap.counts.size(), 3u);  // two finite + implicit +Inf
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 0u);  // +Inf always empty: all values finite
  EXPECT_EQ(snap.count, 3u);
  // Bounds are exported in milliseconds.
  EXPECT_DOUBLE_EQ(snap.bounds[0], 3.0 / 1e3);
}

TEST(Histogram, SnapshotIsConsistentUnderConcurrentWriter) {
  // The seqlock discipline: a snapshot's bucket counts must sum to its
  // count even while a writer races. TSan exercises the memory ordering.
  Histogram h;
  std::atomic<bool> stop{false};
  std::thread writer([&h, &stop] {
    int64_t v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      h.Record(v % 100'000);
      v += 37;
    }
  });
  for (int i = 0; i < 200; ++i) {
    const HistogramSnapshot snap = h.Snapshot();
    uint64_t bucket_sum = 0;
    for (uint64_t c : snap.counts) bucket_sum += c;
    EXPECT_EQ(bucket_sum, snap.count);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  const HistogramSnapshot final_snap = h.Snapshot();
  EXPECT_EQ(final_snap.count, h.count());
}

}  // namespace
}  // namespace xg::obs
