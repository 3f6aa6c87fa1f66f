// FlightRecorder: all three dump trigger paths (contract violation,
// deadline miss, explicit chaos/manual dump), the bounded event ring, dump
// contents read from the attached ledger, and the dump-to-directory file
// path. Every test that dumps pins XG_FLIGHT_DIR itself, so the suite
// behaves the same whether or not the environment names a dump directory.
#include "obs/slo/flight.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/contract.hpp"
#include "obs/slo/ledger.hpp"

namespace xg::obs::slo {
namespace {

constexpr int64_t kSec = 1'000'000;

// Sets XG_FLIGHT_DIR to `dir` (unsets it for nullptr) for one scope and
// restores the previous value on exit.
class ScopedFlightDir {
 public:
  explicit ScopedFlightDir(const char* dir) {
    if (const char* prev = std::getenv(kVar)) saved_ = prev;
    if (dir != nullptr) {
      setenv(kVar, dir, 1);
    } else {
      unsetenv(kVar);
    }
  }
  ~ScopedFlightDir() {
    if (saved_.has_value()) {
      setenv(kVar, saved_->c_str(), 1);
    } else {
      unsetenv(kVar);
    }
  }
  ScopedFlightDir(const ScopedFlightDir&) = delete;
  ScopedFlightDir& operator=(const ScopedFlightDir&) = delete;

 private:
  static constexpr const char* kVar = "XG_FLIGHT_DIR";
  std::optional<std::string> saved_;
};

// A ledger wired to `flight` the way the fabric wires it.
void Wire(LatencyLedger& ledger, FlightRecorder& flight) {
  flight.set_ledger(&ledger);
  ledger.set_on_close(
      [&flight](const LedgerRecord& rec) { flight.OnRecordClosed(rec); });
}

TEST(FlightRecorder, DeadlineMissTriggersDump) {
  ScopedFlightDir no_dir(nullptr);
  LatencyLedger ledger;
  FlightRecorder flight;
  Wire(ledger, flight);
  ledger.Open(42, 0);
  ledger.Stamp(42, Stage::kLaminarTrigger, 5 * kSec);
  ledger.SweepExpired(kDeadlineUs + 1);
  EXPECT_EQ(flight.dumps_taken(), 1u);
  const std::string& dump = flight.last_dump();
  EXPECT_NE(dump.find("\"trigger\":\"deadline_miss\""), std::string::npos);
  EXPECT_NE(dump.find("\"trace_id\":42"), std::string::npos);
  // The blamed stage: largest budget share of the missed record.
  EXPECT_NE(dump.find("\"dominant_stage\":\"laminar_trigger\""),
            std::string::npos);
  // No dump directory configured: in-memory only.
  EXPECT_EQ(flight.files_written(), 0u);
  EXPECT_TRUE(flight.last_dump_path().empty());
}

TEST(FlightRecorder, OnlyMissedRecordsTriggerDumps) {
  ScopedFlightDir no_dir(nullptr);
  LatencyLedger ledger;
  FlightRecorder flight;
  Wire(ledger, flight);
  ledger.Open(7, 0);
  ledger.Stamp(7, Stage::kWanHop, kSec);
  ledger.Close(7, CloseReason::kDelivered);
  ledger.Open(8, 0);
  ledger.Close(8, CloseReason::kFailed);
  EXPECT_EQ(flight.dumps_taken(), 0u);
  // A manual dump still carries both records, read from the ledger ring.
  const std::string dump = flight.Dump("manual");
  EXPECT_NE(dump.find("\"trace_id\":7"), std::string::npos);
  EXPECT_NE(dump.find("\"trace_id\":8"), std::string::npos);
  EXPECT_NE(dump.find("\"dominant_stage\":\"sensor_emit\""),
            std::string::npos);
}

TEST(FlightRecorder, ContractViolationTriggersDump) {
  ScopedFlightDir no_dir(nullptr);
  contract::ScopedMode mode(contract::Mode::kReturnStatus);
  contract::ResetViolationStats();
  FlightRecorder flight;
  flight.ArmContractTrigger();
  (void)contract::Report(contract::Kind::kInvariant, "seq_dense",
                         ErrorCode::kInternal, "sequence gap", "test.cpp",
                         12, "TestFn");
  EXPECT_EQ(flight.dumps_taken(), 1u);
  const std::string& dump = flight.last_dump();
  EXPECT_NE(dump.find("\"trigger\":\"contract_violation\""),
            std::string::npos);
  EXPECT_NE(dump.find("seq_dense"), std::string::npos);
  flight.DisarmContractTrigger();
  (void)contract::Report(contract::Kind::kInvariant, "other",
                         ErrorCode::kInternal, "x", "test.cpp", 13, "TestFn");
  EXPECT_EQ(flight.dumps_taken(), 1u);  // disarmed: no further dumps
  contract::ResetViolationStats();
}

TEST(FlightRecorder, ExplicitChaosDumpCarriesTriggerAndEvents) {
  ScopedFlightDir no_dir(nullptr);
  FlightRecorder flight;
  flight.set_clock([] { return int64_t{1234}; });
  flight.Note("fault", "partition begin target=ucsb|nd");
  flight.Note("resil", "enter degraded_wan");
  const std::string dump =
      flight.Dump("chaos_failure", "soak iteration 3 diverged");
  EXPECT_NE(dump.find("\"trigger\":\"chaos_failure\""), std::string::npos);
  EXPECT_NE(dump.find("soak iteration 3 diverged"), std::string::npos);
  EXPECT_NE(dump.find("partition begin target=ucsb|nd"), std::string::npos);
  EXPECT_NE(dump.find("\"source\":\"resil\""), std::string::npos);
  EXPECT_NE(dump.find("\"at_us\":1234"), std::string::npos);
  // No ledger attached: no records, nothing to blame.
  EXPECT_NE(dump.find("\"records\":[]"), std::string::npos);
  EXPECT_NE(dump.find("\"dominant_stage\":\"none\""), std::string::npos);
}

TEST(FlightRecorder, EventRingIsBounded) {
  FlightRecorder flight;
  const size_t notes = kEventCapacity + 6;
  for (size_t i = 0; i < notes; ++i) {
    flight.Note("hpc", "stall " + std::to_string(i));
  }
  ASSERT_EQ(flight.events().size(), kEventCapacity);
  EXPECT_EQ(flight.events().front().detail, "stall 6");
  EXPECT_EQ(flight.events().back().detail,
            "stall " + std::to_string(notes - 1));
}

TEST(FlightRecorder, EmbedsLedgerInFlightView) {
  ScopedFlightDir no_dir(nullptr);
  LatencyLedger ledger;
  ledger.Open(9, 0);
  ledger.Stamp(9, Stage::kPilotSubmit, 65 * kSec);
  FlightRecorder flight;
  flight.set_ledger(&ledger);
  flight.set_clock([] { return 70 * kSec; });
  const std::string dump = flight.Dump("manual");
  EXPECT_NE(dump.find("\"in_flight\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"last_stage\":\"pilot_submit\""), std::string::npos);
}

TEST(FlightRecorder, WritesDumpFilesUpToMaxDumps) {
  char dir_template[] = "/tmp/xg_flight_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  auto path_of = [&dir](size_t seq) {
    char name[64];
    std::snprintf(name, sizeof(name), "/flight-%04zu-manual.json", seq);
    return dir + name;
  };
  {
    ScopedFlightDir in_dir(dir_template);
    FlightRecorder flight;
    flight.Dump("manual", "first");
    EXPECT_EQ(flight.files_written(), 1u);
    const std::string first_path = flight.last_dump_path();
    EXPECT_EQ(first_path, path_of(1));
    {
      std::ifstream in(first_path);
      ASSERT_TRUE(in.good());
      std::stringstream ss;
      ss << in.rdbuf();
      EXPECT_EQ(ss.str(), flight.last_dump());
    }
    for (size_t i = 1; i < kMaxDumpFiles; ++i) flight.Dump("manual");
    EXPECT_EQ(flight.files_written(), kMaxDumpFiles);
    // The cap holds: the next dump stays in memory.
    flight.Dump("manual", "over the cap");
    EXPECT_EQ(flight.dumps_taken(), kMaxDumpFiles + 1);
    EXPECT_EQ(flight.files_written(), kMaxDumpFiles);
    EXPECT_TRUE(flight.last_dump_path().empty());
  }
  for (size_t seq = 1; seq <= kMaxDumpFiles; ++seq) {
    EXPECT_EQ(std::remove(path_of(seq).c_str()), 0) << path_of(seq);
  }
  std::remove(dir_template);
}

}  // namespace
}  // namespace xg::obs::slo
