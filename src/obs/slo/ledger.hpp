// Per-reading latency ledger: the one object that books a journey.
//
// The ledger keys one DeadlineBudget per telemetry reading by the
// reading's trace id (the same id obs::Tracer threads through the 5G hop,
// the CSPOT append protocol and the alert -> CFD -> twin path), so every
// layer can stamp stage boundaries without new plumbing: it already holds
// the trace context.
//
// Record lifecycle (driven by core::Fabric):
//
//   Open(trace)            reading emitted; budget opened on the clock
//   Stamp(trace, stage)    each layer stamps its boundary (first wins)
//   Close(trace, reason)   journey ends:
//     kDelivered   stored + twin-observed, detection never escalated it
//     kFullPath    escalated through CFD; closed at twin_update
//     kFailed      an escalation's boundary fetch failed
//     kBuffered    parked in store-and-forward (journey continues without
//                  a trace; accounted by the resilience metrics instead)
//     kSkipped     escalation declined (CFD already in flight); the
//                  stale-advisory path covers the alert instead
//     kEvicted     in-flight bound hit; oldest record pushed out
//     kExpired     SweepExpired found it past its deadline (counts a miss)
//
// Closing a record books it once: the miss / near-miss / per-reason
// counters, and — for completed journeys (delivered, full path) — one
// sample per stamped stage plus one end-to-end sample in obs::Histograms.
// The per-stage sums add exactly to the e2e sum by construction of
// DeadlineBudget. The aggregate is exposed three ways:
//
//   - Attach(registry): xg_slo_* series in the Prometheus/JSON export
//       xg_slo_deadline_miss_total / xg_slo_near_miss_total
//       xg_slo_completed_total{path=short|full}
//       xg_slo_incomplete_total{reason=...}
//       xg_slo_stage_budget_share{stage=...}       (gauge in [0,1])
//       xg_slo_stage_latency_ms{stage=...}         (histogram)
//       xg_slo_e2e_latency_ms                      (histogram)
//   - Summarize(): structured per-stage p50/p90/p99/p99.9/max + share,
//     used by bench_e2e and the xgtop snapshot mode;
//   - FormatSummary(): the deterministic table xgtop renders.
//
// Closed records then flow to the on_close hook (the flight recorder's
// miss trigger). Everything is deterministic on the virtual clock: same
// seed, byte-identical FormatRecent() and FormatSummary() output.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/slo/budget.hpp"

namespace xg::obs::slo {

enum class CloseReason {
  kDelivered = 0,
  kFullPath,
  kFailed,
  kBuffered,
  kSkipped,
  kEvicted,
  kExpired,
};
inline constexpr int kCloseReasonCount = 7;
const char* CloseReasonName(CloseReason r);

/// One finished journey, as kept in the recent ring and handed to on_close.
struct LedgerRecord {
  uint64_t trace_id = 0;
  DeadlineBudget budget;
  CloseReason reason = CloseReason::kDelivered;
  int64_t closed_us = 0;   ///< close time (== last stamp for completions)
  int64_t consumed_us = 0; ///< end-to-end latency at the last stamp
  bool missed = false;     ///< consumed > budget (or expired in flight)
  bool near_miss = false;  ///< within the near-miss fraction of the budget
};

/// Deadline budget per reading: one detection duty cycle. The advisory a
/// reading feeds must land within the cycle to retain the paper's
/// ~23-minute actionable validity window.
inline constexpr int64_t kDeadlineUs = 1800LL * 1'000'000;
/// "Near miss" = consumed >= (1 - fraction) * budget without missing.
inline constexpr double kNearMissFraction = 0.10;
/// In-flight bound; the oldest record is evicted beyond it.
inline constexpr size_t kMaxInFlight = 256;
/// Closed records kept for FormatRecent(), flight dumps and tests.
inline constexpr size_t kRecentCapacity = 64;

class XG_SIM_THREAD_CONFINED LatencyLedger {
 public:
  /// Register the xg_slo_* series. The registry (or nullptr) must outlive
  /// this ledger; callbacks read the ledger at snapshot time.
  void Attach(MetricsRegistry* registry);

  /// Fires for every closed record, after it is booked; set before the
  /// first Open.
  void set_on_close(std::function<void(const LedgerRecord&)> hook) {
    on_close_ = std::move(hook);
  }

  /// Open a budget for `trace_id` at `now_us`. Ignored for id 0 (tracing
  /// off) and for ids already in flight. May evict the oldest record.
  void Open(uint64_t trace_id, int64_t now_us);

  /// Stamp a stage boundary; a no-op for unknown / closed ids, so every
  /// layer may stamp unconditionally. Returns true when recorded.
  bool Stamp(uint64_t trace_id, Stage stage, int64_t at_us);

  /// True when the record exists and detection escalated it (the
  /// laminar_trigger stage is stamped) — such records stay open through
  /// the CFD path instead of closing at delivery.
  bool Escalated(uint64_t trace_id) const;

  /// Close the record; books it (see the header comment) and fires
  /// on_close.
  void Close(uint64_t trace_id, CloseReason reason);
  /// Close only when the record is open and NOT escalated (the fabric
  /// retires the previous frame's record when a newer frame lands).
  bool CloseIfIdle(uint64_t trace_id, CloseReason reason);

  /// Close every in-flight record whose deadline has passed as kExpired
  /// (each counts a miss). Returns the number closed.
  size_t SweepExpired(int64_t now_us);

  // -- introspection (xgtop, flight recorder, tests) --
  size_t in_flight() const { return open_.size(); }
  uint64_t opened_total() const { return opened_total_; }
  uint64_t closed_total() const { return closed_total_; }
  uint64_t missed_total() const { return missed_total_; }
  uint64_t near_miss_total() const { return near_miss_total_; }
  uint64_t closed_by_reason(CloseReason r) const {
    return closed_by_reason_[static_cast<int>(r)];
  }

  const Histogram& StageHistogram(Stage s) const {
    return stage_hist_[static_cast<int>(s)];
  }
  const Histogram& E2eHistogram() const { return e2e_hist_; }
  /// Fraction of the end-to-end total charged to `stage` (0 when idle).
  double StageBudgetShare(Stage s) const;

  struct StageSummary {
    Stage stage = Stage::kSensorEmit;
    uint64_t count = 0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    double max_ms = 0.0;
    double mean_ms = 0.0;
    double share = 0.0;  ///< of the e2e consumed total
  };
  struct Summary {
    std::vector<StageSummary> stages;  ///< stamped stages, pipeline order
    StageSummary e2e;                  ///< share == 1 when any completed
    uint64_t completed = 0;
    uint64_t full_path = 0;
    uint64_t misses = 0;
    uint64_t near_misses = 0;
    /// Stage with the largest aggregate budget share.
    Stage dominant_stage = Stage::kSensorEmit;
  };
  Summary Summarize() const;

  /// Deterministic fixed-width per-stage table (the xgtop main panel).
  std::string FormatSummary() const;

  struct InFlightView {
    uint64_t trace_id = 0;
    Stage last_stage = Stage::kSensorEmit;
    int64_t opened_us = 0;
    int64_t consumed_us = 0;
    int64_t remaining_us = 0;
  };
  /// The `n` in-flight readings with the least remaining budget (worst
  /// first; ties break on trace id for determinism).
  std::vector<InFlightView> WorstInFlight(size_t n, int64_t now_us) const;

  /// The last kRecentCapacity closed records, oldest to newest (a copy).
  std::vector<LedgerRecord> recent() const;

  /// Deterministic one-line rendering of a record:
  ///   trace=12 reason=delivered consumed=0.123s budget=1800s miss=0
  ///   stages: wan_hop=0.045s cspot_append=...
  static std::string FormatRecord(const LedgerRecord& rec);
  /// The recent ring, one line per record — byte-identical across
  /// same-seed runs (the determinism suite asserts on this).
  std::string FormatRecent() const;

 private:
  using OpenEntry = std::pair<uint64_t, DeadlineBudget>;
  /// The open entry for `trace_id`, or where it would be inserted.
  std::vector<OpenEntry>::iterator LowerBound(uint64_t trace_id);
  /// The open budget of `trace_id`, nullptr when none is open.
  const DeadlineBudget* FindOpen(uint64_t trace_id) const;
  void Finalize(uint64_t trace_id, DeadlineBudget budget, CloseReason reason);

  std::function<void(const LedgerRecord&)> on_close_;
  /// In-flight budgets sorted by trace id; at most kMaxInFlight. Trace ids
  /// grow, so Open appends and closes take entries near the front.
  std::vector<OpenEntry> open_;
  /// Ring of the last kRecentCapacity closed records; once full,
  /// recent_next_ is the oldest, overwritten by the next close.
  std::vector<LedgerRecord> recent_;
  size_t recent_next_ = 0;
  uint64_t opened_total_ = 0;
  uint64_t closed_total_ = 0;
  uint64_t missed_total_ = 0;
  uint64_t near_miss_total_ = 0;
  uint64_t closed_by_reason_[kCloseReasonCount] = {};
  Histogram stage_hist_[kStageCount];
  Histogram e2e_hist_;
};

}  // namespace xg::obs::slo
