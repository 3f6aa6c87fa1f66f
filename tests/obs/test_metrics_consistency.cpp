// Read-during-write consistency of the registry's histogram export: a
// Snapshot() racing live writers must never report bucket counts that
// disagree with the total count (the seqlock-style retry discipline).
// Runs under TSan via the "concurrent" label.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace xg::obs {
namespace {

uint64_t BucketSum(const HistogramSnapshot& snap) {
  uint64_t sum = 0;
  for (uint64_t c : snap.counts) sum += c;
  return sum;
}

TEST(MetricsConsistency, HistogramSnapshotNeverTearsUnderWriters) {
  Histogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&h, &stop, w] {
      int64_t v = 100 * (w + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        h.Record(v);
        v = v > 120'000 ? 100 : v * 17 / 10;
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    const HistogramSnapshot snap = h.Snapshot();
    EXPECT_EQ(BucketSum(snap), snap.count);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  const HistogramSnapshot final_snap = h.Snapshot();
  EXPECT_EQ(BucketSum(final_snap), final_snap.count);
  EXPECT_EQ(final_snap.count, h.count());
}

TEST(MetricsConsistency, RegistrySnapshotRacesWritersAndRegistrations) {
  MetricsRegistry reg;
  Histogram shared;
  reg.RegisterHistogram("xg_test_latency_ms", {{"path", "shared"}}, "",
                        &shared);
  // Counter fields the registrar views; nothing writes them concurrently.
  const std::vector<uint64_t> ops(64, 1);
  std::atomic<bool> stop{false};

  std::thread histogram_writer([&shared, &stop] {
    int64_t v = 200;
    while (!stop.load(std::memory_order_relaxed)) {
      shared.Record(v);
      v = v > 900'000 ? 200 : v * 13 / 10;
    }
  });
  // A second thread keeps registering fresh labeled views while the
  // snapshot loop runs (registration takes the registry mutex; the export
  // must stay consistent regardless).
  std::thread registrar([&reg, &stop, &ops] {
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed) && i < ops.size()) {
      reg.RegisterCounter("xg_test_ops_total",
                          {{"shard", std::to_string(i)}}, "", &ops[i]);
      ++i;
    }
  });

  for (int i = 0; i < 300; ++i) {
    for (const MetricSample& s : reg.Snapshot()) {
      if (s.type != MetricSample::Type::kHistogram) continue;
      EXPECT_EQ(BucketSum(s.hist), s.hist.count) << s.name;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  histogram_writer.join();
  registrar.join();
}

TEST(MetricsConsistency, HdrCallbackExportIsConsistentUnderWriters) {
  // The SLO stage histograms are owned by the ledger and exported as
  // views; the no-tear invariant must hold for an owner-held histogram.
  MetricsRegistry reg;
  Histogram stage;
  reg.RegisterHistogram("xg_slo_stage_latency_ms", {{"stage", "cfd_end"}},
                        "test", &stage);
  std::atomic<bool> stop{false};
  std::thread writer([&stage, &stop] {
    int64_t v = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      stage.Record(v);
      v = (v * 31 + 7) % 1'000'000;
    }
  });
  for (int i = 0; i < 300; ++i) {
    for (const MetricSample& s : reg.Snapshot()) {
      if (s.type != MetricSample::Type::kHistogram) continue;
      EXPECT_EQ(BucketSum(s.hist), s.hist.count) << s.name;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
}  // namespace xg::obs
