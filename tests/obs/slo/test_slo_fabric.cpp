// SLO layer wired into the full fabric: stage stamps on the virtual
// clock, escalated full-path journeys, budget-share accounting, metric
// export, chaos-forced misses, and same-seed determinism down to the
// byte-identical ledger rendering.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fabric.hpp"
#include "fault/plan.hpp"
#include "obs/slo/slo.hpp"

namespace xg::core {
namespace {

using obs::slo::CloseReason;
using obs::slo::Stage;

FabricConfig DayConfig(uint64_t seed) {
  FabricConfig cfg;
  cfg.seed = seed;
  return cfg;
}

void ScheduleMorningFront(Fabric& fabric) {
  sensors::FrontEvent front;
  front.start_s = 2.0 * 3600;
  front.ramp_s = 1800.0;
  front.d_wind_ms = 2.0;
  front.d_temp_c = 1.5;
  fabric.ScheduleFront(front);
}

TEST(SloFabric, EveryOpenedBudgetIsAccountedFor) {
  Fabric fabric(DayConfig(101));
  fabric.Run(2.0);
  const auto* ledger = fabric.slo_ledger();
  ASSERT_NE(ledger, nullptr);
  EXPECT_GE(ledger->opened_total(), 20u);
  // Conservation: every budget is either closed or still in flight, and
  // the per-reason counters partition the closes.
  EXPECT_EQ(ledger->opened_total(),
            ledger->closed_total() + ledger->in_flight());
  uint64_t by_reason = 0;
  for (int r = 0; r < obs::slo::kCloseReasonCount; ++r) {
    by_reason +=
        ledger->closed_by_reason(static_cast<obs::slo::CloseReason>(r));
  }
  EXPECT_EQ(by_reason, ledger->closed_total());
  // Nothing stalls in flight past frame turnover except active journeys.
  EXPECT_LE(ledger->in_flight(), 2u);
  EXPECT_EQ(ledger->missed_total(), 0u);
  EXPECT_GE(ledger->closed_by_reason(CloseReason::kDelivered), 15u);
}

TEST(SloFabric, EscalatedReadingCompletesFullPathWithAllStages) {
  Fabric fabric(DayConfig(102));
  ScheduleMorningFront(fabric);
  fabric.Run(6.0);
  const auto* ledger = fabric.slo_ledger();
  ASSERT_NE(ledger, nullptr);
  ASSERT_GE(ledger->closed_by_reason(CloseReason::kFullPath), 1u);
  // Find a full-path record and check the pipeline stamped end to end.
  bool found = false;
  for (const auto& rec : ledger->recent()) {
    if (rec.reason != CloseReason::kFullPath) continue;
    found = true;
    for (Stage s : {Stage::kSensorEmit, Stage::kWanHop, Stage::kCspotAppend,
                    Stage::kReplicationAck, Stage::kLaminarTrigger,
                    Stage::kPilotSubmit, Stage::kCfdStart, Stage::kCfdEnd,
                    Stage::kTwinUpdate}) {
      EXPECT_TRUE(rec.budget.stamped(s)) << obs::slo::StageName(s);
    }
    // The CFD solve dominates the budget of an escalated reading.
    EXPECT_EQ(rec.budget.DominantStage(), Stage::kCfdEnd);
    EXPECT_FALSE(rec.missed);
  }
  EXPECT_TRUE(found);
}

TEST(SloFabric, LedgerStageSumsEqualTheEndToEndTotal) {
  Fabric fabric(DayConfig(103));
  ScheduleMorningFront(fabric);
  fabric.Run(6.0);
  const auto* ledger = fabric.slo_ledger();
  ASSERT_NE(ledger, nullptr);
  // Every completed journey books one e2e sample ...
  const uint64_t completed = ledger->closed_by_reason(CloseReason::kDelivered) +
                             ledger->closed_by_reason(CloseReason::kFullPath);
  ASSERT_GT(completed, 0u);
  EXPECT_EQ(ledger->E2eHistogram().count(), completed);
  // ... and its stages split that sample exactly.
  int64_t stage_sum_us = 0;
  for (Stage s : obs::slo::AllStages()) {
    stage_sum_us += ledger->StageHistogram(s).sum_us();
  }
  EXPECT_EQ(stage_sum_us, ledger->E2eHistogram().sum_us());
  double miss_series = -1.0;
  for (const auto& s : fabric.registry().Snapshot()) {
    if (s.name == "xg_slo_deadline_miss_total") miss_series = s.value;
  }
  EXPECT_EQ(miss_series, static_cast<double>(ledger->missed_total()));
  EXPECT_EQ(ledger->missed_total(), 0u);
}

TEST(SloFabric, SummarizedPercentilesNeverExceedTheirMax) {
  // An escalated day puts a handful of multi-minute CFD samples in the
  // cfd_end histogram, where a bucket's upper edge lies far above the
  // largest value; every reported percentile must still be <= the max.
  Fabric fabric(DayConfig(103));
  ScheduleMorningFront(fabric);
  fabric.Run(6.0);
  const auto sum = fabric.slo_ledger()->Summarize();
  ASSERT_GT(sum.full_path, 0u);
  std::vector<std::pair<std::string, obs::slo::LatencyLedger::StageSummary>>
      rows = {{"e2e", sum.e2e}};
  for (const auto& st : sum.stages) {
    rows.emplace_back(obs::slo::StageName(st.stage), st);
  }
  for (const auto& [name, st] : rows) {
    EXPECT_LE(st.p50_ms, st.p90_ms) << name;
    EXPECT_LE(st.p90_ms, st.p99_ms) << name;
    EXPECT_LE(st.p99_ms, st.p999_ms) << name;
    EXPECT_LE(st.p999_ms, st.max_ms) << name;
  }
}

TEST(SloFabric, SloSeriesAppearInMetricsSnapshot) {
  Fabric fabric(DayConfig(104));
  fabric.Run(2.0);
  bool miss_counter = false, stage_hist = false, e2e_hist = false;
  for (const auto& s : fabric.registry().Snapshot()) {
    if (s.name == "xg_slo_deadline_miss_total") miss_counter = true;
    if (s.name == "xg_slo_stage_latency_ms") stage_hist = true;
    if (s.name == "xg_slo_e2e_latency_ms") e2e_hist = true;
  }
  EXPECT_TRUE(miss_counter);
  EXPECT_TRUE(stage_hist);
  EXPECT_TRUE(e2e_hist);
}

TEST(SloFabric, TracingDisabledLeavesLedgerInert) {
  FabricConfig cfg = DayConfig(105);
  cfg.tracing_enabled = false;
  Fabric fabric(cfg);
  fabric.Run(2.0);
  ASSERT_NE(fabric.slo_ledger(), nullptr);
  EXPECT_EQ(fabric.slo_ledger()->opened_total(), 0u);
}

TEST(SloFabric, SloDisabledPublishesNoLedger) {
  FabricConfig cfg = DayConfig(106);
  cfg.slo.enabled = false;
  Fabric fabric(cfg);
  fabric.Run(1.0);
  EXPECT_EQ(fabric.slo_ledger(), nullptr);
  EXPECT_EQ(fabric.flight_recorder(), nullptr);
  for (const auto& s : fabric.registry().Snapshot()) {
    EXPECT_NE(s.name.rfind("xg_slo_", 0), 0u) << s.name;
  }
}

TEST(SloFabric, SeveredAlertPathExpiresBudgetAndDumps) {
  FabricConfig cfg = DayConfig(107);
  cfg.fault_plan = fault::FaultPlan(107);
  // The alert poller cannot reach UCSB while the partition holds, so the
  // escalated reading's budget expires in flight.
  cfg.fault_plan.Partition("ucsb", "nd", 2.0 * 3600, 2.0 * 3600);
  Fabric fabric(cfg);
  ScheduleMorningFront(fabric);
  fabric.Run(6.0);
  EXPECT_GE(fabric.slo_ledger()->closed_by_reason(CloseReason::kExpired), 1u);
  EXPECT_GE(fabric.slo_ledger()->missed_total(), 1u);
  ASSERT_GE(fabric.flight_recorder()->dumps_taken(), 1u);
  const std::string& dump = fabric.flight_recorder()->last_dump();
  EXPECT_NE(dump.find("\"trigger\":\"deadline_miss\""), std::string::npos);
  EXPECT_NE(dump.find("\"dominant_stage\":\"laminar_trigger\""),
            std::string::npos);
}

TEST(SloFabric, SameSeedLedgerOutputIsByteIdentical) {
  auto run = [] {
    Fabric fabric(DayConfig(108));
    ScheduleMorningFront(fabric);
    fabric.Run(6.0);
    // The dump reads its records from the ledger's recent ring.
    return std::make_pair(fabric.slo_ledger()->FormatRecent(),
                          fabric.flight_recorder()->Dump("manual"));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_FALSE(a.first.empty());
  EXPECT_EQ(a.first, b.first);
  EXPECT_NE(a.second.find("\"records\":[{"), std::string::npos);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace xg::core
