#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/threadpool.hpp"

namespace xg::obs {
namespace {

TEST(Registry, CounterViewReadsOwnedFieldAtSnapshot) {
  // The owning struct stays the single source of truth; the registry
  // reads the field only at snapshot time.
  MetricsRegistry reg;
  uint64_t owned = 0;
  reg.RegisterCounter("xg_view_total", {{"path", "unl-ucsb"}}, "viewed",
                      &owned);
  owned = 42;
  auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].type, MetricSample::Type::kCounter);
  EXPECT_EQ(samples[0].help, "viewed");
  EXPECT_DOUBLE_EQ(samples[0].value, 42.0);
  owned = 43;
  EXPECT_DOUBLE_EQ(reg.Snapshot()[0].value, 43.0);
}

TEST(Registry, HistogramViewReadsOwnedHistogramAtSnapshot) {
  MetricsRegistry reg;
  Histogram owned;
  reg.RegisterHistogram("xg_view_ms", {}, "viewed", &owned);
  owned.Record(1500);
  owned.Record(2500);
  auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].type, MetricSample::Type::kHistogram);
  EXPECT_EQ(samples[0].hist.count, 2u);
  EXPECT_DOUBLE_EQ(samples[0].hist.sum, 4.0);
}

TEST(Registry, SameIdentityReturnsSameInstrument) {
  // Registering an identity again replaces the view: one series, read
  // from the latest registration. Other label values stay separate.
  MetricsRegistry reg;
  uint64_t first = 1, second = 2, other = 3;
  reg.RegisterCounter("xg_test_total", {{"path", "unl-ucsb"}}, "", &first);
  reg.RegisterCounter("xg_test_total", {{"path", "unl-ucsb"}}, "", &second);
  reg.RegisterCounter("xg_test_total", {{"path", "ucsb-nd"}}, "", &other);
  auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].labels[0].second, "ucsb-nd");
  EXPECT_DOUBLE_EQ(samples[0].value, 3.0);
  EXPECT_EQ(samples[1].labels[0].second, "unl-ucsb");
  EXPECT_DOUBLE_EQ(samples[1].value, 2.0);
}

TEST(Registry, LabelOrderDoesNotSplitInstruments) {
  MetricsRegistry reg;
  uint64_t a = 0, b = 0;
  reg.RegisterCounter("xg_t_total", {{"a", "1"}, {"b", "2"}}, "", &a);
  reg.RegisterCounter("xg_t_total", {{"b", "2"}, {"a", "1"}}, "", &b);
  auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].labels[0].first, "a");
}

TEST(Registry, SanitizeMetricName) {
  EXPECT_EQ(SanitizeMetricName("xg_ok_total"), "xg_ok_total");
  EXPECT_EQ(SanitizeMetricName("has space.dot"), "has_space_dot");
  EXPECT_EQ(SanitizeMetricName("9starts_digit"), "_starts_digit");
  EXPECT_EQ(SanitizeMetricName(""), "_");
}

TEST(Registry, CallbackMirrorsExternalCounter) {
  // The mirrored struct stays the single source of truth; the registry
  // reads it only at snapshot time.
  MetricsRegistry reg;
  uint64_t external = 0;
  reg.RegisterCallback("xg_mirror_total", {}, "mirrored",
                       [&external] { return static_cast<double>(external); },
                       MetricSample::Type::kCounter);
  external = 7;
  auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "xg_mirror_total");
  EXPECT_EQ(samples[0].type, MetricSample::Type::kCounter);
  EXPECT_DOUBLE_EQ(samples[0].value, 7.0);
}

TEST(Registry, SnapshotIsSortedByNameThenLabels) {
  MetricsRegistry reg;
  uint64_t v = 0;
  reg.RegisterCounter("xg_b_total", {}, "", &v);
  reg.RegisterCallback("xg_a_gauge", {}, "", [] { return 0.0; });
  reg.RegisterCounter("xg_b_total", {{"path", "z"}}, "", &v);
  reg.RegisterCounter("xg_b_total", {{"path", "a"}}, "", &v);
  auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "xg_a_gauge");
  EXPECT_EQ(samples[1].name, "xg_b_total");
  EXPECT_TRUE(samples[1].labels.empty());
  EXPECT_EQ(samples[2].labels[0].second, "a");
  EXPECT_EQ(samples[3].labels[0].second, "z");
}

TEST(Registry, ConcurrentIncrementsFromThreadPoolAreExact) {
  // Thread-safety claim: lock-free histogram records from pool workers
  // lose nothing through the view, and registration is safe concurrently
  // with updates.
  MetricsRegistry reg;
  Histogram hist;
  std::atomic<uint64_t> shared{0};
  reg.RegisterHistogram("xg_conc_ms", {}, "", &hist);
  reg.RegisterCallback(
      "xg_conc_shared_total", {}, "",
      [&shared] { return static_cast<double>(shared.load()); },
      MetricSample::Type::kCounter);

  constexpr size_t kWorkers = 8;
  constexpr int kPerWorker = 20000;
  uint64_t mine[kWorkers] = {};
  ThreadPool pool(kWorkers);
  pool.RunOnAll([&](size_t worker) {
    // Per-worker labeled views exercise concurrent registration too.
    reg.RegisterCounter("xg_conc_worker_total",
                        {{"worker", std::to_string(worker)}}, "",
                        &mine[worker]);
    for (int i = 0; i < kPerWorker; ++i) {
      shared.fetch_add(1, std::memory_order_relaxed);
      hist.Record(i % 200);
    }
    mine[worker] = kPerWorker;
  });

  const uint64_t expect = kWorkers * kPerWorker;
  const std::vector<MetricSample> samples = reg.Snapshot();
  EXPECT_EQ(samples.size(), 2 + kWorkers);
  for (const MetricSample& s : samples) {
    if (s.name == "xg_conc_ms") {
      EXPECT_EQ(s.hist.count, expect);
      uint64_t bucket_total = 0;
      for (uint64_t n : s.hist.counts) bucket_total += n;
      EXPECT_EQ(bucket_total, expect);
    } else if (s.name == "xg_conc_shared_total") {
      EXPECT_DOUBLE_EQ(s.value, static_cast<double>(expect));
    } else {
      EXPECT_DOUBLE_EQ(s.value, static_cast<double>(kPerWorker)) << s.name;
    }
  }
  EXPECT_EQ(hist.min_us(), 0);
  EXPECT_EQ(hist.max_us(), 199);
}

TEST(Registry, SnapshotWhileMutating) {
  // Exporters snapshot while writers keep incrementing: every observed
  // value must be internally sane (never torn / decreasing).
  MetricsRegistry reg;
  std::atomic<uint64_t> c{0};
  reg.RegisterCallback(
      "xg_race_total", {}, "", [&c] { return static_cast<double>(c.load()); },
      MetricSample::Type::kCounter);
  std::atomic<bool> stop{false};
  ThreadPool pool(4);
  pool.RunOnAll([&](size_t worker) {
    if (worker == 0) {
      uint64_t last = 0;
      for (int i = 0; i < 200; ++i) {
        for (const auto& s : reg.Snapshot()) {
          EXPECT_GE(s.value, static_cast<double>(last));
          last = static_cast<uint64_t>(s.value);
        }
      }
      stop.store(true);
    } else {
      // At least one increment even if the snapshotter finishes first.
      do {
        c.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    }
  });
  EXPECT_GT(c.load(), 0u);
}

}  // namespace
}  // namespace xg::obs
