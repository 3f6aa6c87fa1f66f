#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace xg::core {
namespace {

Scenario Sample() {
  Scenario s;
  s.name = "test-day";
  s.hours = 6.0;
  s.fabric.seed = 99;
  s.fabric.telemetry_over_5g = false;
  s.fabric.detector.votes_needed = 3;
  s.fabric.pilot.strategy = pilot::Strategy::kProactive;
  sensors::FrontEvent f;
  f.start_s = 3600.0;
  f.d_wind_ms = 2.0;
  s.fronts.push_back(f);
  sensors::BreachEvent b;
  b.time_s = 7200.0;
  b.x_m = 25.0;
  b.y_m = 80.0;
  s.breaches.push_back(b);
  return s;
}

TEST(Scenario, FormatParseRoundTrip) {
  const Scenario s = Sample();
  auto back = ParseScenario(FormatScenario(s));
  ASSERT_TRUE(back.ok());
  const Scenario& r = back.value();
  EXPECT_EQ(r.name, "test-day");
  EXPECT_DOUBLE_EQ(r.hours, 6.0);
  EXPECT_EQ(r.fabric.seed, 99u);
  EXPECT_FALSE(r.fabric.telemetry_over_5g);
  EXPECT_EQ(r.fabric.detector.votes_needed, 3);
  EXPECT_EQ(r.fabric.pilot.strategy, pilot::Strategy::kProactive);
  ASSERT_EQ(r.fronts.size(), 1u);
  EXPECT_DOUBLE_EQ(r.fronts[0].start_s, 3600.0);
  EXPECT_DOUBLE_EQ(r.fronts[0].d_wind_ms, 2.0);
  ASSERT_EQ(r.breaches.size(), 1u);
  EXPECT_DOUBLE_EQ(r.breaches[0].x_m, 25.0);
}

TEST(Scenario, MultipleEventsRoundTrip) {
  Scenario s;
  for (int i = 0; i < 3; ++i) {
    sensors::FrontEvent f;
    f.start_s = i * 1000.0;
    s.fronts.push_back(f);
  }
  auto back = ParseScenario(FormatScenario(s));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().fronts.size(), 3u);
  EXPECT_DOUBLE_EQ(back.value().fronts[2].start_s, 2000.0);
}

TEST(Scenario, UnknownKeyRejected) {
  std::string text = FormatScenario(Scenario{});
  text += "warp_drive = 1\n";
  auto r = ParseScenario(text);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("warp_drive"), std::string::npos);
}

TEST(Scenario, BadStrategyRejected) {
  EXPECT_FALSE(ParseScenario("pilot.strategy = 7\n").ok());
}

TEST(Scenario, BadNumbersRejectedNamingTheKey) {
  // `hours = abc` used to abort with an uncaught std::invalid_argument,
  // `1e999` with std::out_of_range; `3x` read as 3 and `nan` was taken.
  for (const char* value : {"abc", "1e999", "3x", "nan"}) {
    auto r = ParseScenario(std::string("hours = ") + value + "\n");
    ASSERT_FALSE(r.ok()) << value;
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument) << value;
    EXPECT_NE(r.status().message().find("hours"), std::string::npos) << value;
  }
  // A bad event start ends the event list and is still reported.
  auto front = ParseScenario("front.0.start_s = soon\nfront.0.ramp_s = 1\n");
  ASSERT_FALSE(front.ok());
  EXPECT_NE(front.status().message().find("front.0.start_s"),
            std::string::npos);
}

TEST(Scenario, FullWidthSeedRoundTrips) {
  Scenario s;
  s.fabric.seed = 18446744073709551615ull;
  auto back = ParseScenario(FormatScenario(s));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().fabric.seed, s.fabric.seed);
}

TEST(Scenario, EmptyFileGivesDefaults) {
  auto r = ParseScenario("");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().hours, 24.0);
  EXPECT_TRUE(r.value().fronts.empty());
}

TEST(Scenario, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "xg_scenario.cfg";
  ASSERT_TRUE(WriteScenarioFile(Sample(), path).ok());
  auto back = ReadScenarioFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().name, "test-day");
  std::remove(path.c_str());
  EXPECT_FALSE(ReadScenarioFile(path).ok());
}

TEST(Scenario, RunScenarioProducesMetrics) {
  Scenario s;
  s.hours = 2.0;
  s.fabric.seed = 5;
  const FabricMetrics m = RunScenario(s);
  EXPECT_GE(m.telemetry_frames_stored, 20u);
  EXPECT_GE(m.cfd_runs_completed, 1u);
}

TEST(Scenario, ReportContainsKeyRows) {
  Scenario s;
  s.hours = 1.0;
  s.fabric.seed = 6;
  const FabricMetrics m = RunScenario(s);
  const std::string report = FormatReport(s, m);
  EXPECT_NE(report.find("Telemetry frames stored"), std::string::npos);
  EXPECT_NE(report.find("CFD runs"), std::string::npos);
  EXPECT_NE(report.find("Spray windows"), std::string::npos);
}

TEST(Scenario, DeterministicRuns) {
  Scenario s = Sample();
  s.hours = 3.0;
  const FabricMetrics a = RunScenario(s);
  const FabricMetrics b = RunScenario(s);
  EXPECT_EQ(a.alerts_raised, b.alerts_raised);
  EXPECT_EQ(a.cfd_runs_completed, b.cfd_runs_completed);
  EXPECT_DOUBLE_EQ(a.telemetry_latency_ms.mean(),
                   b.telemetry_latency_ms.mean());
}

}  // namespace
}  // namespace xg::core
