// DeadlineBudget: per-reading budget arithmetic, including the window
// edges (exactly-at-deadline is NOT a miss) and the stamp invariants the
// ledger's sum-to-e2e property rests on.
#include "obs/slo/budget.hpp"

#include <gtest/gtest.h>

namespace xg::obs::slo {
namespace {

constexpr int64_t kSec = 1'000'000;

TEST(DeadlineBudget, OpensWithSensorEmitStamped) {
  DeadlineBudget b(/*opened_us=*/10 * kSec, /*budget_us=*/1800 * kSec);
  EXPECT_TRUE(b.open());
  EXPECT_TRUE(b.stamped(Stage::kSensorEmit));
  EXPECT_EQ(b.StampTimeUs(Stage::kSensorEmit), 10 * kSec);
  EXPECT_EQ(b.StageConsumedUs(Stage::kSensorEmit), 0);
  EXPECT_EQ(b.LastStampUs(), 10 * kSec);
  EXPECT_EQ(b.LastStage(), Stage::kSensorEmit);
}

TEST(DeadlineBudget, DefaultConstructedIsClosedAndUnstamped) {
  DeadlineBudget b;
  EXPECT_FALSE(b.open());
  for (Stage s : AllStages()) EXPECT_FALSE(b.stamped(s));
}

TEST(DeadlineBudget, ConsumedAndRemainingArithmetic) {
  DeadlineBudget b(0, 1800 * kSec);
  EXPECT_EQ(b.ConsumedUs(600 * kSec), 600 * kSec);
  EXPECT_EQ(b.RemainingUs(600 * kSec), 1200 * kSec);
  // Remaining goes negative past the deadline; no clamping.
  EXPECT_EQ(b.RemainingUs(2000 * kSec), -200 * kSec);
}

TEST(DeadlineBudget, ExactlyAtDeadlineIsNotAMiss) {
  DeadlineBudget b(0, 1800 * kSec);
  EXPECT_FALSE(b.MissedAt(1800 * kSec));       // inclusive budget
  EXPECT_TRUE(b.MissedAt(1800 * kSec + 1));    // one microsecond over
  EXPECT_FALSE(b.MissedAt(1800 * kSec - 1));
}

TEST(DeadlineBudget, NearMissWindowEdges) {
  DeadlineBudget b(0, 1000 * kSec);
  // Near miss = consumed >= (1 - f) * budget without missing; f = 0.10.
  EXPECT_FALSE(b.NearMissAt(899 * kSec, 0.10));
  EXPECT_TRUE(b.NearMissAt(900 * kSec, 0.10));   // exactly at the window
  EXPECT_TRUE(b.NearMissAt(1000 * kSec, 0.10));  // at the deadline
  EXPECT_FALSE(b.NearMissAt(1000 * kSec + 1, 0.10));  // missed, not near
}

TEST(DeadlineBudget, FirstStampWins) {
  DeadlineBudget b(0, 1800 * kSec);
  EXPECT_TRUE(b.StampAt(Stage::kWanHop, 5 * kSec));
  // A retry re-stamping the same boundary must not move it.
  EXPECT_FALSE(b.StampAt(Stage::kWanHop, 9 * kSec));
  EXPECT_EQ(b.StampTimeUs(Stage::kWanHop), 5 * kSec);
}

TEST(DeadlineBudget, StampsClampMonotonicallyAcrossStageOrder) {
  DeadlineBudget b(0, 1800 * kSec);
  EXPECT_TRUE(b.StampAt(Stage::kWanHop, 10 * kSec));
  // An out-of-order (earlier) time for a later stage clamps forward.
  EXPECT_TRUE(b.StampAt(Stage::kCspotAppend, 4 * kSec));
  EXPECT_EQ(b.StampTimeUs(Stage::kCspotAppend), 10 * kSec);
  EXPECT_EQ(b.StageConsumedUs(Stage::kCspotAppend), 0);
}

TEST(DeadlineBudget, StageConsumedSumsExactlyToEndToEnd) {
  DeadlineBudget b(0, 1800 * kSec);
  b.StampAt(Stage::kRrcGrant, 12'000);
  b.StampAt(Stage::kCellEgress, 40'000);
  b.StampAt(Stage::kWanHop, 95'000);
  b.StampAt(Stage::kCspotAppend, 101'000);
  b.StampAt(Stage::kReplicationAck, 200'000);
  b.StampAt(Stage::kLaminarTrigger, 5 * kSec);
  b.StampAt(Stage::kPilotSubmit, 65 * kSec);
  b.StampAt(Stage::kCfdStart, 66 * kSec);
  b.StampAt(Stage::kCfdEnd, 480 * kSec);
  b.StampAt(Stage::kTwinUpdate, 481 * kSec);
  int64_t stage_sum = 0;
  for (Stage s : AllStages()) stage_sum += b.StageConsumedUs(s);
  EXPECT_EQ(stage_sum, b.ConsumedUs(b.LastStampUs()));
  EXPECT_EQ(stage_sum, 481 * kSec);
}

TEST(DeadlineBudget, SkippedStagesChargeTheNextStampedStage) {
  // A wired-path reading skips the air stages; wan_hop picks up the whole
  // gap since sensor_emit so the sum-to-e2e invariant holds.
  DeadlineBudget b(0, 1800 * kSec);
  b.StampAt(Stage::kWanHop, 17'000);
  b.StampAt(Stage::kCspotAppend, 20'000);
  EXPECT_EQ(b.StageConsumedUs(Stage::kRrcGrant), 0);
  EXPECT_EQ(b.StageConsumedUs(Stage::kCellEgress), 0);
  EXPECT_EQ(b.StageConsumedUs(Stage::kWanHop), 17'000);
  EXPECT_EQ(b.StageConsumedUs(Stage::kCspotAppend), 3'000);
}

TEST(DeadlineBudget, DominantStageIsLargestConsumer) {
  DeadlineBudget b(0, 1800 * kSec);
  b.StampAt(Stage::kWanHop, 57'000);
  b.StampAt(Stage::kLaminarTrigger, 5 * kSec);
  b.StampAt(Stage::kPilotSubmit, 65 * kSec);
  b.StampAt(Stage::kCfdEnd, 480 * kSec);
  EXPECT_EQ(b.DominantStage(), Stage::kCfdEnd);
}

TEST(DeadlineBudget, StampsReportPipelineOrderWithRemaining) {
  DeadlineBudget b(0, 100 * kSec);
  b.StampAt(Stage::kWanHop, 10 * kSec);
  b.StampAt(Stage::kCspotAppend, 30 * kSec);
  const auto stamps = b.stamps();
  ASSERT_EQ(stamps.size(), 3u);  // sensor_emit + the two above
  EXPECT_EQ(stamps[0].stage, Stage::kSensorEmit);
  EXPECT_EQ(stamps[1].stage, Stage::kWanHop);
  EXPECT_EQ(stamps[2].stage, Stage::kCspotAppend);
  EXPECT_EQ(stamps[1].consumed_us, 10 * kSec);
  EXPECT_EQ(stamps[1].remaining_us, 90 * kSec);
  EXPECT_EQ(stamps[2].consumed_us, 20 * kSec);
  EXPECT_EQ(stamps[2].remaining_us, 70 * kSec);
}

TEST(StageNames, AllStagesHaveUniqueMetricNames) {
  const auto& all = AllStages();
  ASSERT_EQ(all.size(), static_cast<size_t>(kStageCount));
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_STRNE(StageName(all[i]), StageName(all[j]));
    }
  }
}

}  // namespace
}  // namespace xg::obs::slo
