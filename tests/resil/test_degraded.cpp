#include "resil/degraded.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace xg::resil {
namespace {

TEST(StoreAndForward, FifoAndCounts) {
  StoreAndForward sf(8);
  EXPECT_TRUE(sf.empty());
  EXPECT_TRUE(sf.Buffer({1}));
  EXPECT_TRUE(sf.Buffer({2}));
  EXPECT_EQ(sf.size(), 2u);
  EXPECT_EQ(sf.Front(), std::vector<uint8_t>{1});
  EXPECT_EQ(sf.PopFront(), std::vector<uint8_t>{1});
  EXPECT_EQ(sf.PopFront(), std::vector<uint8_t>{2});
  EXPECT_TRUE(sf.empty());
  EXPECT_EQ(sf.buffered_total(), 2u);
  EXPECT_EQ(sf.drained_total(), 2u);
  EXPECT_EQ(sf.dropped_total(), 0u);
}

TEST(StoreAndForward, BoundedDropsOldest) {
  StoreAndForward sf(3);
  for (uint8_t i = 0; i < 5; ++i) {
    const bool kept_all = sf.Buffer({i});
    EXPECT_EQ(kept_all, i < 3);
  }
  EXPECT_EQ(sf.size(), 3u);
  EXPECT_EQ(sf.dropped_total(), 2u);
  // Oldest evicted: 0 and 1 are gone, 2..4 remain in order.
  EXPECT_EQ(sf.PopFront(), std::vector<uint8_t>{2});
  EXPECT_EQ(sf.PopFront(), std::vector<uint8_t>{3});
  EXPECT_EQ(sf.PopFront(), std::vector<uint8_t>{4});
}

TEST(DegradedModeManager, EnterIsIdempotentAndExitCloses) {
  DegradedModeManager m;
  m.Enter(DegradedMode::kStoreForward, 1'000'000, "5g outage");
  m.Enter(DegradedMode::kStoreForward, 2'000'000, "again");  // no-op
  EXPECT_TRUE(m.active(DegradedMode::kStoreForward));
  EXPECT_TRUE(m.AnyActive());
  EXPECT_EQ(m.entries(DegradedMode::kStoreForward), 1u);
  m.Exit(DegradedMode::kStoreForward, 5'000'000);
  EXPECT_FALSE(m.AnyActive());
  m.Exit(DegradedMode::kStoreForward, 6'000'000);  // no-op
  ASSERT_EQ(m.timeline().size(), 1u);
  EXPECT_EQ(m.timeline()[0].enter_us, 1'000'000);
  EXPECT_EQ(m.timeline()[0].exit_us, 5'000'000);
  EXPECT_DOUBLE_EQ(m.TotalTimeS(DegradedMode::kStoreForward, 9'000'000), 4.0);
}

TEST(DegradedModeManager, TotalTimeCountsOpenEpisode) {
  DegradedModeManager m;
  m.Enter(DegradedMode::kStaleServe, 0);
  EXPECT_DOUBLE_EQ(m.TotalTimeS(DegradedMode::kStaleServe, 3'000'000), 3.0);
}

TEST(DegradedModeManager, TimelineFormat) {
  DegradedModeManager m;
  m.Enter(DegradedMode::kStoreForward, 600'000'000, "5g outage");
  m.Exit(DegradedMode::kStoreForward, 1'210'000'000);
  m.Enter(DegradedMode::kSiteFailover, 1'300'000'000, "site suspected");
  const std::string text = m.FormatTimeline();
  EXPECT_NE(text.find("store_forward"), std::string::npos);
  EXPECT_NE(text.find("610.000s"), std::string::npos);  // duration
  EXPECT_NE(text.find("5g outage"), std::string::npos);
  EXPECT_NE(text.find("open"), std::string::npos);  // still in failover
  EXPECT_NE(text.find("site_failover"), std::string::npos);
}

TEST(DegradedModeManager, ExportsGaugesAndSpans) {
  obs::MetricsRegistry reg;
  obs::Tracer tracer;
  int64_t clock_us = 0;
  tracer.set_clock([&clock_us] { return clock_us; });
  tracer.set_enabled(true);

  DegradedModeManager m;
  m.AttachObservability(&reg, &tracer);
  m.Enter(DegradedMode::kStoreForward, 1'000'000, "outage");

  bool saw_active = false;
  for (const auto& s : reg.Snapshot()) {
    if (s.name != "xg_resil_mode") continue;
    for (const auto& [k, v] : s.labels) {
      if (k == "mode" && v == "store_forward") {
        saw_active = s.value == 1.0;
      }
    }
  }
  EXPECT_TRUE(saw_active);

  m.Exit(DegradedMode::kStoreForward, 4'000'000);
  bool saw_span = false;
  for (const auto& span : tracer.Snapshot()) {
    if (span.name == "resil.store_forward") {
      saw_span = true;
      EXPECT_EQ(span.start_us, 1'000'000);
      EXPECT_EQ(span.end_us, 4'000'000);
    }
  }
  EXPECT_TRUE(saw_span);
}

TEST(DegradedModeManager, EveryModeSpanIsNamedResilDotMode) {
  for (int i = 0; i < kDegradedModeCount; ++i) {
    const auto m = static_cast<DegradedMode>(i);
    EXPECT_EQ(obs::SpanNameText(DegradedModeSpanName(m)),
              std::string("resil.") + DegradedModeName(m));
    EXPECT_EQ(obs::SpanComponent(DegradedModeSpanName(m)),
              std::string("resil"));
  }
}

}  // namespace
}  // namespace xg::resil
