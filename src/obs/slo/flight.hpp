// Flight recorder: bounded black-box capture for post-incident triage.
//
// Keeps one ring on behalf of the fabric — recent fault / resilience
// events (breaker trips, degraded-mode transitions, injected faults,
// scheduler stalls) pushed by the layers through Note() — and serializes
// it, together with the attached ledger's recently closed records and
// in-flight view, to a JSON dump when something goes wrong. Dump triggers:
//   - a contract violation (via contract::AddViolationListener),
//   - a deadline miss or expiry (wired from the ledger's on_close hook),
//   - an explicit Dump() call (chaos harness failures, operator request).
//
// The JSON document is always built in memory (tests assert on it); it is
// written to `$XG_FLIGHT_DIR/flight-<seq>-<trigger>.json` only when that
// environment variable names a directory (the CI failure path), and at
// most kMaxDumpFiles files are written per recorder so a violation storm
// cannot fill a disk.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/thread_annotations.hpp"
#include "obs/slo/ledger.hpp"

namespace xg::obs::slo {

/// One fault / resilience event as noted by a layer.
struct FlightEvent {
  int64_t at_us = 0;
  std::string source;  ///< "fault", "resil", "hpc", "pilot", ...
  std::string detail;  ///< human-readable one-liner
};

/// Fault / resilience events kept.
inline constexpr size_t kEventCapacity = 128;
/// Hard cap on files written by one recorder.
inline constexpr size_t kMaxDumpFiles = 8;

class XG_SIM_THREAD_CONFINED FlightRecorder {
 public:
  FlightRecorder() = default;
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Clock source for Note() timestamps and the in-flight view (typically
  /// the simulation clock). Unset => 0.
  void set_clock(std::function<int64_t()> clock) { clock_ = std::move(clock); }
  /// Ledger whose recent records and in-flight view are embedded in
  /// dumps (optional).
  void set_ledger(const LatencyLedger* ledger) { ledger_ = ledger; }

  /// Chain from the ledger's on_close: dumps when the record missed.
  void OnRecordClosed(const LedgerRecord& rec);

  /// Record a fault / resilience event (breaker trip, degraded-mode
  /// transition, injected fault, stall, job kill, ...).
  void Note(const std::string& source, const std::string& detail);

  /// Register with the process-wide contract layer so violations dump
  /// automatically; detaches in the destructor.
  void ArmContractTrigger();
  void DisarmContractTrigger();

  /// Build (and, when XG_FLIGHT_DIR is set, write) a dump.
  /// `trigger` tags the dump ("deadline_miss", "contract_violation",
  /// "chaos_failure", "manual", ...). Returns the JSON document.
  std::string Dump(const std::string& trigger, const std::string& detail = "");

  // -- introspection --
  uint64_t dumps_taken() const { return dumps_taken_; }
  uint64_t files_written() const { return files_written_; }
  /// JSON of the most recent dump ("" before the first).
  const std::string& last_dump() const { return last_dump_; }
  /// Path of the most recent dump file ("" when none was written).
  const std::string& last_dump_path() const { return last_dump_path_; }
  const std::deque<FlightEvent>& events() const { return events_; }

 private:
  std::function<int64_t()> clock_;
  const LatencyLedger* ledger_ = nullptr;
  std::deque<FlightEvent> events_;
  uint64_t dumps_taken_ = 0;
  uint64_t files_written_ = 0;
  uint64_t contract_token_ = 0;
  bool contract_armed_ = false;
  bool dumping_ = false;  ///< re-entrancy guard (violation during dump)
  std::string last_dump_;
  std::string last_dump_path_;
};

}  // namespace xg::obs::slo
