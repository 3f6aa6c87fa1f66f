#include "cspot/log.hpp"

#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "cspot/node.hpp"

#include <cstdio>
#include <filesystem>

namespace xg::cspot {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string Str(const std::vector<uint8_t>& b) {
  return std::string(b.begin(), b.end());
}

TEST(MemoryLog, EmptyState) {
  MemoryLog log(LogConfig{"t", 64, 8});
  EXPECT_EQ(log.Latest(), kNoSeq);
  EXPECT_EQ(log.Earliest(), kNoSeq);
  EXPECT_EQ(log.Size(), 0u);
  EXPECT_FALSE(log.Get(0).ok());
}

TEST(MemoryLog, AppendAssignsDenseSequenceNumbers) {
  MemoryLog log(LogConfig{"t", 64, 8});
  for (SeqNo i = 0; i < 5; ++i) {
    auto r = log.Append(Bytes("x" + std::to_string(i)));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), i);
  }
  EXPECT_EQ(log.Latest(), 4);
  EXPECT_EQ(log.Earliest(), 0);
  EXPECT_EQ(log.Size(), 5u);
}

TEST(MemoryLog, GetReturnsExactPayload) {
  MemoryLog log(LogConfig{"t", 64, 8});
  ASSERT_TRUE((log.Append(Bytes("hello"))).ok());
  auto r = log.Get(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Str(r.value()), "hello");
}

TEST(MemoryLog, OversizePayloadRejected) {
  MemoryLog log(LogConfig{"t", 4, 8});
  auto r = log.Append(Bytes("too large"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(log.Latest(), kNoSeq);  // nothing appended
}

TEST(MemoryLog, HistoryEviction) {
  MemoryLog log(LogConfig{"t", 16, 4});
  for (int i = 0; i < 10; ++i) ASSERT_TRUE((log.Append(Bytes(std::to_string(i)))).ok());
  EXPECT_EQ(log.Latest(), 9);
  EXPECT_EQ(log.Earliest(), 6);
  EXPECT_FALSE(log.Get(5).ok());
  EXPECT_EQ(log.Get(5).status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(log.Get(6).ok());
  EXPECT_EQ(Str(log.Get(6).value()), "6");
  EXPECT_EQ(Str(log.Get(9).value()), "9");
}

TEST(MemoryLog, GetOutOfRange) {
  MemoryLog log(LogConfig{"t", 16, 4});
  ASSERT_TRUE((log.Append(Bytes("a"))).ok());
  EXPECT_FALSE(log.Get(-1).ok());
  EXPECT_FALSE(log.Get(1).ok());
}

TEST(MemoryLog, TailReturnsOldestFirst) {
  MemoryLog log(LogConfig{"t", 16, 8});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE((log.Append(Bytes(std::to_string(i)))).ok());
  auto tail = log.Tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(Str(tail[0]), "2");
  EXPECT_EQ(Str(tail[2]), "4");
}

TEST(MemoryLog, TailLargerThanLog) {
  MemoryLog log(LogConfig{"t", 16, 8});
  ASSERT_TRUE((log.Append(Bytes("only"))).ok());
  auto tail = log.Tail(10);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(Str(tail[0]), "only");
}

TEST(MemoryLog, TailRespectsEviction) {
  MemoryLog log(LogConfig{"t", 16, 3});
  for (int i = 0; i < 6; ++i) ASSERT_TRUE((log.Append(Bytes(std::to_string(i)))).ok());
  auto tail = log.Tail(10);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(Str(tail[0]), "3");
}

TEST(MemoryLog, EmptyPayloadAllowed) {
  MemoryLog log(LogConfig{"t", 16, 3});
  auto r = log.Append({});
  ASSERT_TRUE(r.ok());
  auto g = log.Get(0);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g.value().empty());
}

class FileLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "xg_filelog_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(FileLogTest, CreateAppendGet) {
  auto r = FileLog::Open(path_, LogConfig{"f", 32, 8});
  ASSERT_TRUE(r.ok());
  auto& log = *r.value();
  ASSERT_TRUE(log.Append(Bytes("persist-me")).ok());
  auto g = log.Get(0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(Str(g.value()), "persist-me");
}

TEST_F(FileLogTest, SurvivesReopen) {
  {
    auto r = FileLog::Open(path_, LogConfig{"f", 32, 8});
    ASSERT_TRUE(r.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(r.value()->Append(Bytes("e" + std::to_string(i))).ok());
    }
  }  // "power loss": the object is destroyed
  auto r = FileLog::Open(path_, LogConfig{"f", 32, 8});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->Latest(), 4);
  auto g = r.value()->Get(3);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(Str(g.value()), "e3");
  // Appends continue from the recovered sequence number.
  auto a = r.value()->Append(Bytes("after"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), 5);
}

TEST_F(FileLogTest, GeometryMismatchOnReopenFails) {
  {
    auto r = FileLog::Open(path_, LogConfig{"f", 32, 8});
    ASSERT_TRUE(r.ok());
  }
  auto r = FileLog::Open(path_, LogConfig{"f", 64, 8});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(FileLogTest, CircularHistoryOnDisk) {
  auto r = FileLog::Open(path_, LogConfig{"f", 16, 3});
  ASSERT_TRUE(r.ok());
  auto& log = *r.value();
  for (int i = 0; i < 7; ++i) ASSERT_TRUE((log.Append(Bytes(std::to_string(i)))).ok());
  EXPECT_EQ(log.Earliest(), 4);
  EXPECT_FALSE(log.Get(3).ok());
  EXPECT_EQ(Str(log.Get(6).value()), "6");
  // The file never grows beyond header + history slots.
  const auto size = std::filesystem::file_size(path_);
  EXPECT_LE(size, 32u + 3u * (16u + 8u));
}

TEST_F(FileLogTest, OversizeRejected) {
  auto r = FileLog::Open(path_, LogConfig{"f", 4, 3});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value()->Append(Bytes("12345")).ok());
}

TEST_F(FileLogTest, NotACspotLogRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  std::fputs("garbage that is long enough to be a header maybe....", f);
  std::fclose(f);
  auto r = FileLog::Open(path_, LogConfig{"f", 32, 8});
  EXPECT_FALSE(r.ok());
}


TEST(LogConfigContract, ZeroElementSizeRejected) {
  xg::contract::ResetViolationStats();
  LogConfig cfg{"bad", 0, 16};
  const Status s = ValidateLogConfig(cfg);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_GE(xg::contract::ViolationCount(), 1u);
  xg::contract::ResetViolationStats();
}

TEST(LogConfigContract, ZeroHistoryRejected) {
  LogConfig cfg{"bad", 64, 0};
  const Status s = ValidateLogConfig(cfg);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

TEST(LogConfigContract, OversizeElementRejected) {
  LogConfig cfg{"bad", kMaxElementSize + 1, 16};
  EXPECT_EQ(ValidateLogConfig(cfg).code(), ErrorCode::kInvalidArgument);
}

TEST(LogConfigContract, FileLogOpenRejectsBadGeometry) {
  const std::string path = ::testing::TempDir() + "xg_geom_contract.log";
  auto r = FileLog::Open(path, LogConfig{"bad", 64, 0});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(LogConfigContract, NodeCreateLogValidatesGeometry) {
  Node node("n");
  auto r = node.CreateLog(LogConfig{"bad", 0, 16});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(node.GetLog("bad"), nullptr);
}

TEST(DedupContract, ConflictingSeqForTokenRaisesInvariant) {
  xg::contract::ResetViolationStats();
  Node node("n");
  ASSERT_TRUE(node.CreateLog(LogConfig{"l", 64, 16}).ok());
  DedupTable& dedup = *node.Dedup(node.Resolve("l"));
  dedup.Record(/*token=*/7, /*seq=*/3);
  dedup.Record(7, 3);  // idempotent re-record: fine
  EXPECT_EQ(xg::contract::ViolationCount(), 0u);
  dedup.Record(7, 4);  // same token, different seq: double write
  EXPECT_EQ(xg::contract::ViolationCount(), 1u);
  // The original mapping stays authoritative.
  EXPECT_EQ(dedup.Find(7), 3);
  xg::contract::ResetViolationStats();
}

TEST(LogHandle, StaleAfterDeleteAndValidBeforeCreate) {
  Node node("n");
  const LogId early = node.Resolve("l");  // before the log exists
  EXPECT_EQ(node.Find(early), nullptr);
  ASSERT_TRUE(node.CreateLog(LogConfig{"l", 16, 4}).ok());
  EXPECT_EQ(node.Find(early), node.GetLog("l"));
  ASSERT_TRUE(node.DeleteLog("l").ok());
  ASSERT_TRUE(node.CreateLog(LogConfig{"l", 32, 4}).ok());
  // The old handle misses the recreated log; the name keeps its slot.
  EXPECT_EQ(node.Find(early), nullptr);
  const LogId fresh = node.Resolve("l");
  EXPECT_EQ(fresh.slot, early.slot);
  EXPECT_EQ(node.Find(fresh)->config().element_size, 32u);
  EXPECT_EQ(node.LogName(early), "l");
}

}  // namespace
}  // namespace xg::cspot
