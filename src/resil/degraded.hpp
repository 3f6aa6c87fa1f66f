// Degraded operating modes and the manager that keeps their audit trail.
//
// When a layer's failure signal fires, the fabric does not stop — it drops
// into an explicit degraded mode and keeps serving with reduced guarantees:
//
//   kStoreForward  5G/WAN outage at the sensor edge: telemetry frames are
//                  held in a bounded buffer and drained on recovery
//                  (CSPOT's delay-tolerance, made explicit and bounded).
//   kStaleServe    a fresh CFD run cannot be produced: the last result is
//                  served while inside its validity window, with the
//                  advisory flagged stale-but-valid.
//   kSiteFailover  the interactive HPC site is suspected: pilot traffic
//                  fails over to the batch site (Eqs. (1)-(4) still size
//                  the pilots there).
//   kOverloadShed  the serving tier is shedding: sustained load beyond
//                  capacity; still-valid advisories are served stale and
//                  excess requests are dropped instead of queueing to
//                  collapse (entered/exited with hysteresis by
//                  serve::OverloadGovernor).
//
// The manager records every Enter/Exit as a timeline entry, exports
// per-mode gauges and transition counters (`xg_resil_mode*`), and emits a
// `resil.<mode>` span covering each completed episode — the auditable
// recovery timeline chaos runs assert against.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xg::obs::slo {
class FlightRecorder;
}  // namespace xg::obs::slo

namespace xg::resil {

// ---------------------------------------------------------------------------
// Bounded store-and-forward buffer (sensor-edge delay tolerance)
// ---------------------------------------------------------------------------

class XG_SIM_THREAD_CONFINED StoreAndForward {
 public:
  explicit StoreAndForward(size_t capacity) : capacity_(capacity) {}

  /// Buffer a payload; when full, the *oldest* frame is evicted (newest
  /// data is most valuable to a detection pipeline). Returns false iff an
  /// eviction happened.
  bool Buffer(std::vector<uint8_t> payload);

  bool empty() const { return frames_.empty(); }
  size_t size() const { return frames_.size(); }
  size_t capacity() const { return capacity_; }
  const std::vector<uint8_t>& Front() const { return frames_.front(); }
  /// Pop the oldest frame, counting it as drained.
  std::vector<uint8_t> PopFront();

  uint64_t buffered_total() const { return buffered_total_; }
  uint64_t dropped_total() const { return dropped_total_; }
  uint64_t drained_total() const { return drained_total_; }

 private:
  size_t capacity_;
  std::deque<std::vector<uint8_t>> frames_;
  uint64_t buffered_total_ = 0;
  uint64_t dropped_total_ = 0;
  uint64_t drained_total_ = 0;
};

// ---------------------------------------------------------------------------
// Degraded-mode registry
// ---------------------------------------------------------------------------

enum class DegradedMode {
  kStoreForward = 0,
  kStaleServe = 1,
  kSiteFailover = 2,
  kOverloadShed = 3,
};
inline constexpr int kDegradedModeCount = 4;

const char* DegradedModeName(DegradedMode m);
/// The span an episode of `m` records: resil.<DegradedModeName(m)>.
obs::SpanName DegradedModeSpanName(DegradedMode m);

class XG_SIM_THREAD_CONFINED DegradedModeManager {
 public:
  /// Export `xg_resil_mode{mode=...}` gauges plus transition counters to
  /// `registry` and emit `resil.<mode>` spans to `tracer` on Exit. Either
  /// may be nullptr; both must outlive this manager.
  void AttachObservability(obs::MetricsRegistry* registry, obs::Tracer* tracer);

  /// Feed Enter/Exit transitions into the flight recorder's event ring.
  /// Must outlive this manager; may be null.
  void set_flight_recorder(obs::slo::FlightRecorder* flight) {
    flight_ = flight;
  }

  /// Idempotent: entering an active mode is a no-op.
  void Enter(DegradedMode m, int64_t now_us, const std::string& detail = "");
  void Exit(DegradedMode m, int64_t now_us);

  bool active(DegradedMode m) const { return active_[static_cast<int>(m)]; }
  bool AnyActive() const;
  uint64_t entries(DegradedMode m) const {
    return entries_[static_cast<int>(m)];
  }
  /// Time spent in `m` through `now_us`, counting an open episode.
  double TotalTimeS(DegradedMode m, int64_t now_us) const;

  struct Episode {
    DegradedMode mode;
    int64_t enter_us = 0;
    int64_t exit_us = -1;  ///< -1 while still open
    std::string detail;
  };
  const std::vector<Episode>& timeline() const { return timeline_; }

  /// Deterministic human-readable recovery timeline, one line per episode:
  ///   [  600.000s ->  1210.000s] store_forward (610.000s) 5g outage
  std::string FormatTimeline() const;

 private:
  bool active_[kDegradedModeCount] = {};
  int64_t entered_us_[kDegradedModeCount] = {};
  size_t open_episode_[kDegradedModeCount] = {};
  uint64_t entries_[kDegradedModeCount] = {};
  double closed_time_s_[kDegradedModeCount] = {};
  std::vector<Episode> timeline_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::slo::FlightRecorder* flight_ = nullptr;
  obs::TraceContext root_;  ///< parent of every resil.<mode> episode span
};

}  // namespace xg::resil
