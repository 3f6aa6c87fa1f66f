#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace xg::fault {
namespace {

TEST(FaultInjector, ArmFiresWindowEdgesOnTheVirtualClock) {
  sim::Simulation sim;
  FaultPlan plan(1);
  plan.Partition("a", "b", 2.0, 3.0);
  FaultInjector inj(plan);
  std::vector<std::pair<double, bool>> edges;
  inj.OnWindow(FaultKind::kPartition, [&](const FaultEvent& e, bool begin) {
    EXPECT_EQ(e.target, "a|b");
    edges.emplace_back(sim.Now().seconds(), begin);
  });
  inj.Arm(sim);
  sim.Run();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_DOUBLE_EQ(edges[0].first, 2.0);
  EXPECT_TRUE(edges[0].second);
  EXPECT_DOUBLE_EQ(edges[1].first, 5.0);
  EXPECT_FALSE(edges[1].second);
}

TEST(FaultInjector, InstantaneousEventFiresOnlyBeginEdge) {
  sim::Simulation sim;
  FaultPlan plan(2);
  plan.JobKill("crc", 1.0, 2);
  FaultInjector inj(plan);
  int begins = 0, ends = 0;
  inj.OnWindow(FaultKind::kJobKill, [&](const FaultEvent&, bool begin) {
    begin ? ++begins : ++ends;
  });
  inj.Arm(sim);
  sim.Run();
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 0);
}

TEST(FaultInjector, ArmCountsActuatorKindsOncePerWindow) {
  sim::Simulation sim;
  FaultPlan plan(3);
  plan.Partition("a", "b", 1.0, 2.0)
      .Partition("a", "b", 10.0, 2.0)
      .PowerLoss("a", 5.0, 1.0, 0);
  FaultInjector inj(plan);
  inj.Arm(sim);
  sim.Run();
  EXPECT_EQ(inj.injected_total(Layer::kWan, FaultKind::kPartition), 2u);
  EXPECT_EQ(inj.injected_total(Layer::kCspot, FaultKind::kPowerLoss), 1u);
  EXPECT_EQ(inj.injected_total(), 3u);
}

TEST(FaultInjector, ActiveEventRespectsTargetAndWindow) {
  FaultPlan plan(4);
  plan.MessageLoss("a|b", 10.0, 5.0, 0.5);
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.Active(FaultKind::kMessageLoss, "a|b", 12'000'000));
  EXPECT_FALSE(inj.Active(FaultKind::kMessageLoss, "a|c", 12'000'000));
  EXPECT_FALSE(inj.Active(FaultKind::kMessageLoss, "a|b", 20'000'000));
  EXPECT_DOUBLE_EQ(
      inj.ActiveMagnitude(FaultKind::kMessageLoss, "a|b", 12'000'000), 0.5);
  EXPECT_DOUBLE_EQ(
      inj.ActiveMagnitude(FaultKind::kMessageLoss, "a|b", 20'000'000), 0.0);
}

TEST(FaultInjector, RollIsCertainAtProbabilityOneAndNeverOutsideWindow) {
  FaultPlan plan(5);
  plan.MessageLoss("a|b", 0.0, 10.0, 1.0);
  FaultInjector inj(plan);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(inj.Roll(FaultKind::kMessageLoss, "a|b", 5'000'000), nullptr);
    EXPECT_EQ(inj.Roll(FaultKind::kMessageLoss, "a|b", 15'000'000), nullptr);
  }
  EXPECT_EQ(inj.injected_total(Layer::kWan, FaultKind::kMessageLoss), 50u);
}

TEST(FaultInjector, RollSequenceIsSeedReproducible) {
  FaultPlan plan(99);
  plan.MessageLoss("a|b", 0.0, 100.0, 0.3);
  FaultInjector x(plan), y(plan);
  for (int i = 0; i < 500; ++i) {
    const bool fx = x.Roll(FaultKind::kMessageLoss, "a|b", 1'000'000) != nullptr;
    const bool fy = y.Roll(FaultKind::kMessageLoss, "a|b", 1'000'000) != nullptr;
    ASSERT_EQ(fx, fy) << "diverged at draw " << i;
  }
  EXPECT_EQ(x.FormatCounts(), y.FormatCounts());
  // ~30% of 500 draws; a deterministic stream always gives the same count.
  const uint64_t n = x.injected_total();
  EXPECT_GT(n, 100u);
  EXPECT_LT(n, 200u);
}

TEST(FaultInjector, DifferentSeedsGiveDifferentStreams) {
  FaultPlan a(1), b(2);
  a.MessageLoss("a|b", 0.0, 100.0, 0.5);
  b.MessageLoss("a|b", 0.0, 100.0, 0.5);
  FaultInjector x(a), y(b);
  int diff = 0;
  for (int i = 0; i < 200; ++i) {
    const bool fx = x.Roll(FaultKind::kMessageLoss, "a|b", 1'000'000) != nullptr;
    const bool fy = y.Roll(FaultKind::kMessageLoss, "a|b", 1'000'000) != nullptr;
    diff += fx != fy;
  }
  EXPECT_GT(diff, 0);
}

TEST(FaultInjector, ExportsInjectedTotalsThroughTheRegistry) {
  sim::Simulation sim;
  obs::MetricsRegistry reg;
  FaultPlan plan(6);
  plan.Partition("a", "b", 1.0, 1.0);
  FaultInjector inj(plan);
  inj.AttachObservability(&reg, nullptr);
  inj.Arm(sim);
  sim.Run();
  double partition_count = -1.0;
  for (const obs::MetricSample& s : reg.Snapshot()) {
    if (s.name != "xg_fault_injected_total") continue;
    EXPECT_EQ(s.type, obs::MetricSample::Type::kCounter);
    for (const auto& [k, v] : s.labels) {
      if (k == "kind" && v == "partition") partition_count = s.value;
    }
  }
  EXPECT_DOUBLE_EQ(partition_count, 1.0);
}

TEST(FaultInjector, FormatCountsIsStableAndLabelled) {
  FaultPlan plan(7);
  plan.MessageLoss("", 0.0, 10.0, 1.0);
  FaultInjector inj(plan);
  (void)inj.Roll(FaultKind::kMessageLoss, "x|y", 0);
  inj.Count(Layer::kNet5g, FaultKind::kRrcDrop, 2);
  const std::string counts = inj.FormatCounts();
  EXPECT_NE(counts.find("layer=wan,kind=message_loss} 1"), std::string::npos);
  EXPECT_NE(counts.find("layer=net5g,kind=rrc_drop} 2"), std::string::npos);
}

TEST(FaultInjector, EveryKindSpanIsNamedFaultDotKind) {
  for (FaultKind k : AllFaultKinds()) {
    EXPECT_EQ(obs::SpanNameText(FaultSpanName(k)),
              std::string("fault.") + FaultKindName(k));
    EXPECT_EQ(obs::SpanComponent(FaultSpanName(k)), std::string("fault"));
  }
}

}  // namespace
}  // namespace xg::fault
