// Power-loss truncation semantics: TruncateTo on both storage backends,
// and Node::PowerFail's coupling of log truncation to the dedup table.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cspot/log.hpp"
#include "cspot/node.hpp"

namespace xg::cspot {
namespace {

std::vector<uint8_t> Payload(uint8_t id) { return std::vector<uint8_t>{id}; }

TEST(Truncate, MemoryLogDropsTailAndReusesSeqs) {
  MemoryLog log(LogConfig{"m", 8, 16});
  for (uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(log.Append(Payload(i)).ok());
  }
  ASSERT_TRUE(log.TruncateTo(4).ok());
  EXPECT_EQ(log.Latest(), 4);
  EXPECT_EQ(log.Size(), 5u);
  EXPECT_FALSE(log.Get(5).ok());  // truncated
  auto kept = log.Get(4);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value()[0], 4);
  // Density: the next append reuses seq 5 with fresh content.
  Result<SeqNo> reused = log.Append(Payload(99));
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused.value(), 5);
  auto got = log.Get(5);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value()[0], 99);
}

TEST(Truncate, MemoryLogNoOpAndEmptyCases) {
  MemoryLog log(LogConfig{"m", 8, 16});
  for (uint8_t i = 0; i < 3; ++i) ASSERT_TRUE(log.Append(Payload(i)).ok());
  ASSERT_TRUE(log.TruncateTo(10).ok());  // >= Latest: no-op
  EXPECT_EQ(log.Latest(), 2);
  ASSERT_TRUE(log.TruncateTo(kNoSeq).ok());  // empties
  EXPECT_EQ(log.Latest(), kNoSeq);
  EXPECT_EQ(log.Size(), 0u);
  Result<SeqNo> again = log.Append(Payload(7));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0);
}

TEST(Truncate, MemoryLogWrapAroundDoesNotResurrectOldSlots) {
  // History 4; after 8 appends the ring holds seqs 4..7. Truncating to 5
  // must not let the reused slots expose stale pre-truncation bytes.
  MemoryLog log(LogConfig{"m", 8, 4});
  for (uint8_t i = 0; i < 8; ++i) ASSERT_TRUE(log.Append(Payload(i)).ok());
  ASSERT_TRUE(log.TruncateTo(5).ok());
  EXPECT_EQ(log.Latest(), 5);
  EXPECT_FALSE(log.Get(6).ok());
  EXPECT_FALSE(log.Get(7).ok());
  // Re-append into the truncated range: reads must see the new bytes.
  ASSERT_TRUE(log.Append(Payload(66)).ok());
  ASSERT_TRUE(log.Append(Payload(77)).ok());
  auto g6 = log.Get(6);
  auto g7 = log.Get(7);
  ASSERT_TRUE(g6.ok());
  ASSERT_TRUE(g7.ok());
  EXPECT_EQ(g6.value()[0], 66);
  EXPECT_EQ(g7.value()[0], 77);
}

class FileTruncateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "xg_fault_trunc_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(FileTruncateTest, TruncationSurvivesReopen) {
  {
    auto r = FileLog::Open(path_, LogConfig{"f", 16, 8});
    ASSERT_TRUE(r.ok());
    auto log = r.take();
    for (uint8_t i = 0; i < 6; ++i) ASSERT_TRUE(log->Append(Payload(i)).ok());
    ASSERT_TRUE(log->TruncateTo(2).ok());
  }
  // The durability frontier is in the header: a reopen (crash + restart)
  // sees the truncated state, not the pre-truncation tail.
  auto r = FileLog::Open(path_, LogConfig{"f", 16, 8});
  ASSERT_TRUE(r.ok());
  auto log = r.take();
  EXPECT_EQ(log->Latest(), 2);
  EXPECT_FALSE(log->Get(3).ok());
  auto kept = log->Get(2);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value()[0], 2);
  Result<SeqNo> next = log->Append(Payload(50));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 3);
}

TEST(PowerFail, TruncatesTailAndMarksNodeDown) {
  Node node("edge");
  ASSERT_TRUE(node.CreateLog(LogConfig{"telemetry", 8, 32}).ok());
  LogStorage* log = node.GetLog("telemetry");
  ASSERT_NE(log, nullptr);
  for (uint8_t i = 0; i < 5; ++i) ASSERT_TRUE(log->Append(Payload(i)).ok());
  ASSERT_TRUE(node.PowerFail(2).ok());
  EXPECT_FALSE(node.up());
  EXPECT_EQ(log->Latest(), 2);  // seqs 3 and 4 were not durable
  node.set_up(true);
  EXPECT_TRUE(node.up());
}

TEST(PowerFail, DropsDedupEntriesAboveTheDurableFrontier) {
  // A dedup entry pointing at a truncated seq would absorb a retry whose
  // payload now differs from what the log holds. PowerFail must forget
  // those entries along with the data.
  Node node("edge");
  ASSERT_TRUE(node.CreateLog(LogConfig{"telemetry", 8, 32}).ok());
  LogStorage* log = node.GetLog("telemetry");
  const LogId id = node.Resolve("telemetry");
  for (uint8_t i = 0; i < 4; ++i) {
    Result<SeqNo> seq = log->Append(Payload(i));
    ASSERT_TRUE(seq.ok());
    node.Dedup(id)->Record(/*token=*/100 + i, seq.value());
  }
  ASSERT_TRUE(node.PowerFail(2).ok());
  const DedupTable& dedup = *node.Dedup(id);
  EXPECT_EQ(dedup.Find(100), 0);       // seq 0 durable
  EXPECT_EQ(dedup.Find(101), 1);       // seq 1 durable
  EXPECT_EQ(dedup.Find(102), kNoSeq);  // seq 2 lost
  EXPECT_EQ(dedup.Find(103), kNoSeq);  // seq 3 lost
}

TEST(PowerFail, LosingMoreThanRetainedEmptiesTheLog) {
  Node node("edge");
  ASSERT_TRUE(node.CreateLog(LogConfig{"telemetry", 8, 32}).ok());
  LogStorage* log = node.GetLog("telemetry");
  for (uint8_t i = 0; i < 3; ++i) ASSERT_TRUE(log->Append(Payload(i)).ok());
  ASSERT_TRUE(node.PowerFail(10).ok());
  EXPECT_EQ(log->Latest(), kNoSeq);
  EXPECT_EQ(log->Size(), 0u);
}

}  // namespace
}  // namespace xg::cspot
