// LatencyLedger: record lifecycle, close reasons, deadline sweeps,
// eviction bounds, the xg_slo_* values it exports, and the deterministic
// rendering the determinism suite keys on.
#include "obs/slo/ledger.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace xg::obs::slo {
namespace {

constexpr int64_t kSec = 1'000'000;

TEST(LatencyLedger, TraceZeroIsInert) {
  LatencyLedger ledger;
  ledger.Open(0, 0);
  EXPECT_EQ(ledger.in_flight(), 0u);
  EXPECT_FALSE(ledger.Stamp(0, Stage::kWanHop, 1));
  EXPECT_EQ(ledger.opened_total(), 0u);
}

TEST(LatencyLedger, OpenStampCloseLifecycle) {
  LatencyLedger ledger;
  std::vector<LedgerRecord> closed;
  ledger.set_on_close([&closed](const LedgerRecord& r) {
    closed.push_back(r);
  });

  ledger.Open(7, 10 * kSec);
  EXPECT_EQ(ledger.in_flight(), 1u);
  EXPECT_TRUE(ledger.Stamp(7, Stage::kWanHop, 10 * kSec + 57'000));
  // Unknown ids stamp as no-ops so layers can stamp unconditionally.
  EXPECT_FALSE(ledger.Stamp(8, Stage::kWanHop, 11 * kSec));

  ledger.Close(7, CloseReason::kDelivered);
  EXPECT_EQ(ledger.in_flight(), 0u);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].trace_id, 7u);
  EXPECT_EQ(closed[0].reason, CloseReason::kDelivered);
  EXPECT_EQ(closed[0].consumed_us, 57'000);
  EXPECT_FALSE(closed[0].missed);
  EXPECT_EQ(ledger.closed_by_reason(CloseReason::kDelivered), 1u);

  // Double close is a no-op.
  ledger.Close(7, CloseReason::kFailed);
  EXPECT_EQ(closed.size(), 1u);
}

TEST(LatencyLedger, ReopeningAnInFlightIdIsIgnored) {
  LatencyLedger ledger;
  ledger.Open(5, 10 * kSec);
  ledger.Open(5, 20 * kSec);  // ignored; the original budget stands
  EXPECT_EQ(ledger.opened_total(), 1u);
  const auto views = ledger.WorstInFlight(1, 30 * kSec);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].opened_us, 10 * kSec);
}

TEST(LatencyLedger, CloseIfIdleSkipsEscalatedRecords) {
  LatencyLedger ledger;
  ledger.Open(1, 0);
  ledger.Open(2, 0);
  ASSERT_TRUE(ledger.Stamp(2, Stage::kLaminarTrigger, 5 * kSec));
  EXPECT_FALSE(ledger.Escalated(1));
  EXPECT_TRUE(ledger.Escalated(2));

  EXPECT_TRUE(ledger.CloseIfIdle(1, CloseReason::kDelivered));
  // The escalated record must survive frame turnover to finish its
  // CFD journey.
  EXPECT_FALSE(ledger.CloseIfIdle(2, CloseReason::kDelivered));
  EXPECT_EQ(ledger.in_flight(), 1u);
}

TEST(LatencyLedger, SweepExpiredClosesOnlyPastDeadline) {
  LatencyLedger ledger;
  ledger.Open(1, 0);
  ledger.Open(2, 50 * kSec);

  // Exactly at trace 1's deadline: inclusive budget, nothing expires.
  EXPECT_EQ(ledger.SweepExpired(kDeadlineUs), 0u);
  EXPECT_EQ(ledger.in_flight(), 2u);

  // One past: trace 1 expires, trace 2 (opened 50 s later) stays.
  EXPECT_EQ(ledger.SweepExpired(kDeadlineUs + 1), 1u);
  EXPECT_EQ(ledger.in_flight(), 1u);
  EXPECT_EQ(ledger.closed_by_reason(CloseReason::kExpired), 1u);
  EXPECT_EQ(ledger.missed_total(), 1u);
}

TEST(LatencyLedger, ExpiredRecordsAreMissesButFailedAreNot) {
  LatencyLedger ledger;
  std::vector<LedgerRecord> closed;
  ledger.set_on_close([&closed](const LedgerRecord& r) {
    closed.push_back(r);
  });
  ledger.Open(1, 0);
  ledger.Close(1, CloseReason::kFailed);
  ledger.Open(2, 0);
  ledger.SweepExpired(2 * kDeadlineUs);
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_FALSE(closed[0].missed);  // failed: accounted by reason
  EXPECT_TRUE(closed[1].missed);   // expired: a deadline miss by definition
  EXPECT_EQ(ledger.missed_total(), 1u);
}

TEST(LatencyLedger, LateCompletionIsAMissAndNearDeadlineIsNear) {
  LatencyLedger ledger;  // near fraction 0.10 of the budget
  std::vector<LedgerRecord> closed;
  ledger.set_on_close([&closed](const LedgerRecord& r) {
    closed.push_back(r);
  });

  ledger.Open(1, 0);
  // Inside the near window.
  ledger.Stamp(1, Stage::kTwinUpdate, kDeadlineUs - 5 * kSec);
  ledger.Close(1, CloseReason::kFullPath);

  ledger.Open(2, 0);
  // Past the deadline.
  ledger.Stamp(2, Stage::kTwinUpdate, kDeadlineUs + kSec);
  ledger.Close(2, CloseReason::kFullPath);

  ASSERT_EQ(closed.size(), 2u);
  EXPECT_FALSE(closed[0].missed);
  EXPECT_TRUE(closed[0].near_miss);
  EXPECT_TRUE(closed[1].missed);
  EXPECT_FALSE(closed[1].near_miss);
  EXPECT_EQ(ledger.near_miss_total(), 1u);
}

TEST(LatencyLedger, EvictsOldestAtInFlightBound) {
  LatencyLedger ledger;
  for (uint64_t id = 1; id <= kMaxInFlight; ++id) {
    ledger.Open(id, static_cast<int64_t>(id) * kSec);
  }
  // Evicts trace 1 (earliest opened).
  ledger.Open(kMaxInFlight + 1, static_cast<int64_t>(kMaxInFlight + 1) * kSec);
  EXPECT_EQ(ledger.in_flight(), kMaxInFlight);
  EXPECT_EQ(ledger.closed_by_reason(CloseReason::kEvicted), 1u);
  ASSERT_FALSE(ledger.recent().empty());
  EXPECT_EQ(ledger.recent().back().trace_id, 1u);
}

TEST(LatencyLedger, WorstInFlightOrdersByRemainingThenTraceId) {
  LatencyLedger ledger;
  ledger.Open(3, 0);         // oldest -> least remaining
  ledger.Open(1, 10 * kSec);
  ledger.Open(2, 10 * kSec); // same remaining as trace 1 -> id tiebreak
  const auto views = ledger.WorstInFlight(3, 20 * kSec);
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0].trace_id, 3u);
  EXPECT_EQ(views[1].trace_id, 1u);
  EXPECT_EQ(views[2].trace_id, 2u);
  EXPECT_EQ(views[0].consumed_us, 20 * kSec);
}

TEST(LatencyLedger, RecentRingIsBoundedAndRenderingIsDeterministic) {
  auto run = [] {
    LatencyLedger ledger;
    for (uint64_t id = 1; id <= kRecentCapacity + 4; ++id) {
      const int64_t t0 = static_cast<int64_t>(id) * kSec;
      ledger.Open(id, t0);
      ledger.Stamp(id, Stage::kWanHop, t0 + 57'000);
      ledger.Close(id, CloseReason::kDelivered);
    }
    return ledger.FormatRecent();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);  // byte-identical across identical runs
  // Ring bounded to kRecentCapacity: the first retained record is trace 5.
  EXPECT_EQ(a.find("trace=4 "), std::string::npos);
  EXPECT_NE(a.find("trace=5 "), std::string::npos);
  EXPECT_NE(a.find("reason=delivered"), std::string::npos);
  EXPECT_NE(a.find("wan_hop=0.057000s"), std::string::npos);
}

double SeriesValue(const MetricsRegistry& reg, const std::string& name,
                   const Labels& labels = {}) {
  for (const MetricSample& s : reg.Snapshot()) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  ADD_FAILURE() << "no series " << name;
  return -1.0;
}

TEST(LatencyLedger, ExportsBookedValuesToTheRegistry) {
  MetricsRegistry reg;
  LatencyLedger ledger;
  ledger.Attach(&reg);

  // Delivered in 3 s: wan_hop 1 s, cspot_append 2 s.
  ledger.Open(1, 0);
  ledger.Stamp(1, Stage::kWanHop, 1 * kSec);
  ledger.Stamp(1, Stage::kCspotAppend, 3 * kSec);
  ledger.Close(1, CloseReason::kDelivered);
  // Full path in 6 s: wan_hop 1 s, laminar_trigger 1 s, twin_update 4 s.
  ledger.Open(2, 10 * kSec);
  ledger.Stamp(2, Stage::kWanHop, 11 * kSec);
  ledger.Stamp(2, Stage::kLaminarTrigger, 12 * kSec);
  ledger.Stamp(2, Stage::kTwinUpdate, 16 * kSec);
  ledger.Close(2, CloseReason::kFullPath);
  // Failed and expired journeys count by reason, not in the profile.
  ledger.Open(3, 20 * kSec);
  ledger.Stamp(3, Stage::kWanHop, 25 * kSec);
  ledger.Close(3, CloseReason::kFailed);
  ledger.Open(4, 30 * kSec);
  ledger.SweepExpired(30 * kSec + kDeadlineUs + 1);

  EXPECT_EQ(SeriesValue(reg, "xg_slo_completed_total", {{"path", "short"}}),
            1.0);
  EXPECT_EQ(SeriesValue(reg, "xg_slo_completed_total", {{"path", "full"}}),
            1.0);
  EXPECT_EQ(SeriesValue(reg, "xg_slo_incomplete_total", {{"reason", "failed"}}),
            1.0);
  EXPECT_EQ(
      SeriesValue(reg, "xg_slo_incomplete_total", {{"reason", "expired"}}),
      1.0);
  for (const char* reason : {"buffered", "skipped", "evicted"}) {
    EXPECT_EQ(
        SeriesValue(reg, "xg_slo_incomplete_total", {{"reason", reason}}),
        0.0)
        << reason;
  }
  EXPECT_EQ(SeriesValue(reg, "xg_slo_deadline_miss_total"), 1.0);
  EXPECT_EQ(SeriesValue(reg, "xg_slo_near_miss_total"), 0.0);

  // Shares of the 9 s completed e2e total.
  const std::vector<std::pair<Stage, double>> shares = {
      {Stage::kRrcGrant, 0.0},
      {Stage::kWanHop, 2.0 / 9.0},
      {Stage::kCspotAppend, 2.0 / 9.0},
      {Stage::kLaminarTrigger, 1.0 / 9.0},
      {Stage::kCfdEnd, 0.0},
      {Stage::kTwinUpdate, 4.0 / 9.0}};
  for (const auto& [stage, share] : shares) {
    EXPECT_DOUBLE_EQ(SeriesValue(reg, "xg_slo_stage_budget_share",
                                 {{"stage", StageName(stage)}}),
                     share)
        << StageName(stage);
    EXPECT_DOUBLE_EQ(ledger.StageBudgetShare(stage), share);
  }
  EXPECT_EQ(ledger.E2eHistogram().count(), 2u);
  EXPECT_EQ(ledger.E2eHistogram().sum_us(), 9 * kSec);
}

}  // namespace
}  // namespace xg::obs::slo
