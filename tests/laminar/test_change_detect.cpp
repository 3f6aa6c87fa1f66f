#include "laminar/change_detect.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "cspot/runtime.hpp"

namespace xg::laminar {
namespace {

std::vector<double> Steady(Rng& rng, size_t n, double mean, double sd) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(rng.Gaussian(mean, sd));
  return v;
}

TEST(ChangeDetector, TooLittleDataIsInconclusive) {
  ChangeDetector d;
  auto dec = d.Evaluate(std::vector{1.0, 2.0, 3.0});
  EXPECT_FALSE(dec.enough_data);
  EXPECT_FALSE(dec.changed);
}

TEST(ChangeDetector, SteadyConditionsDoNotTrigger) {
  ChangeDetector d;
  Rng rng(5);
  int alarms = 0;
  for (int t = 0; t < 100; ++t) {
    auto series = Steady(rng, 12, 3.0, 0.4);
    alarms += d.Evaluate(series).changed;
  }
  EXPECT_LE(alarms, 6);  // near the 2-of-3 voting false-alarm rate
}

TEST(ChangeDetector, FrontTriggersAlert) {
  ChangeDetector d;
  Rng rng(6);
  auto before = Steady(rng, 6, 2.0, 0.3);
  auto after = Steady(rng, 6, 5.0, 0.3);  // a 10-sigma wind shift
  std::vector<double> series = before;
  series.insert(series.end(), after.begin(), after.end());
  auto dec = d.Evaluate(series);
  EXPECT_TRUE(dec.enough_data);
  EXPECT_TRUE(dec.changed);
  EXPECT_GE(dec.votes, 2);
}

TEST(ChangeDetector, CompareReportsPerTestOutcomes) {
  ChangeDetector d;
  auto dec = d.Compare(std::vector<double>{1, 1.1, 0.9, 1, 1.05, 0.95},
                       std::vector<double>{9, 9.1, 8.9, 9, 9.05, 8.95});
  EXPECT_TRUE(dec.welch.reject());
  EXPECT_TRUE(dec.mann_whitney.reject());
  EXPECT_TRUE(dec.kolmogorov_smirnov.reject());
  EXPECT_EQ(dec.votes, 3);
}

TEST(ChangeDetector, VotingRuleConfigurable) {
  // A variance-only change: KS rejects, location tests do not — so the
  // 1-of-3 rule alarms while 3-of-3 stays quiet.
  Rng rng(9);
  std::vector<double> narrow, wide;
  for (int i = 0; i < 24; ++i) {
    narrow.push_back(rng.Gaussian(10.0, 0.05));
    wide.push_back(rng.Gaussian(10.0, 3.0));
  }
  ChangeDetectorConfig any;
  any.window = 24;
  any.votes_needed = 1;
  ChangeDetectorConfig all;
  all.window = 24;
  all.votes_needed = 3;
  auto dec_any = ChangeDetector(any).Compare(narrow, wide);
  auto dec_all = ChangeDetector(all).Compare(narrow, wide);
  EXPECT_TRUE(dec_any.changed);
  EXPECT_FALSE(dec_all.changed);
  EXPECT_EQ(dec_any.votes, dec_all.votes);
}

TEST(ChangeDetector, AlphaControlsSensitivity) {
  // A borderline shift rejected at alpha=0.05 may pass at alpha=0.001.
  ChangeDetectorConfig strict;
  strict.alpha = 1e-6;
  ChangeDetectorConfig loose;
  loose.alpha = 0.05;
  Rng rng(10);
  auto a = Steady(rng, 6, 3.0, 0.5);
  auto b = Steady(rng, 6, 3.8, 0.5);
  const auto strict_dec = ChangeDetector(strict).Compare(a, b);
  const auto loose_dec = ChangeDetector(loose).Compare(a, b);
  EXPECT_LE(strict_dec.votes, loose_dec.votes);
}

TEST(ChangeDetectionGraph, EndToEndOverCspot) {
  // The paper's deployment: telemetry ingested at UNL, tests + voting at
  // UCSB, with the windows crossing the WAN as dataflow tokens.
  sim::Simulation sim;
  cspot::Runtime rt(sim, 77);
  rt.AddNode("unl");
  rt.AddNode("ucsb");
  cspot::LinkParams p;
  p.one_way_ms = 4.0;
  p.jitter_ms = 0.0;
  ASSERT_TRUE((rt.wan().AddLink("unl", "ucsb", p)).ok());

  Program prog(rt, "cd");
  ChangeDetectorConfig cfg;
  cfg.window = 6;
  std::vector<int64_t> alerts;
  auto g = BuildChangeDetectionProgram(
      prog, "unl", "ucsb", cfg,
      [&](int64_t iter, const Value&) { alerts.push_back(iter); });
  ASSERT_TRUE(prog.Deploy().ok());

  // 12 steady readings, then a front: 12 readings at a higher level.
  Rng rng(12);
  int64_t iter = 0;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((prog.Inject(g.source, iter++, Value(rng.Gaussian(2.0, 0.2)))).ok());
  }
  sim.Run();
  EXPECT_TRUE(alerts.empty());  // steady: no alert
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((prog.Inject(g.source, iter++, Value(rng.Gaussian(6.0, 0.2)))).ok());
  }
  sim.Run();
  EXPECT_FALSE(alerts.empty());  // the front must be detected
}

}  // namespace
}  // namespace xg::laminar
