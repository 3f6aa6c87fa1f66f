// FaultInjector: executes a FaultPlan against the layers' decision points.
//
// Two coupling styles, so every layer can consult the injector in the way
// its architecture allows:
//
//   actuators  Window kinds (partition, power loss, queue stall, job
//              kill) fire registered OnWindow callbacks at the window's
//              begin and end, scheduled on the virtual clock by Arm().
//              Layers self-register their actuators (cspot::Runtime flips
//              WAN links and node power, hpc::BatchScheduler gates its
//              admission loop), so the fault library depends on no layer.
//
//   queries    Layers that keep their own notion of time (net5g::Cell
//              iterates seconds without a Simulation) or that decide per
//              message (cspot::Wan) ask Active / ActiveMagnitude / Roll
//              with an explicit timestamp at each decision point.
//
// Injection counting is split so every injected fault is counted exactly
// once, deterministically: Arm() counts actuator kinds once per window,
// Roll() counts message kinds per injected message, and query layers
// count window edges themselves via Count() (the Cell counts a UE's
// rrc_drop once per window rising edge). Counts export through the obs
// registry as `xg_fault_injected_total{layer=...,kind=...}`.
//
// The injector belongs to the thread that runs its fabric and carries no
// lock (XG_SIM_THREAD_CONFINED); exporters read the counters on that
// thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/sim.hpp"
#include "common/thread_annotations.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xg::obs::slo {
class FlightRecorder;
}  // namespace xg::obs::slo

namespace xg::fault {

/// The span a window of `kind` opens: fault.<FaultKindName(kind)>.
obs::SpanName FaultSpanName(FaultKind kind);

class XG_SIM_THREAD_CONFINED FaultInjector {
 public:
  /// The injector draws its RNG stream from plan.seed(): one (plan, seed)
  /// pair => one injected-fault sequence, bit-for-bit.
  explicit FaultInjector(FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  /// Register an actuator for a window kind. Fired with begin=true at the
  /// window start and begin=false at its end (instantaneous events fire
  /// only the begin edge). Registration order is preserved.
  using Actuator = std::function<void(const FaultEvent&, bool begin)>;
  void OnWindow(FaultKind kind, Actuator fn);

  /// Schedule every event's begin/end actuation on `sim`. Call once, after
  /// the interested layers attached; `sim` must outlive the injector's use.
  void Arm(sim::Simulation& sim);
  bool armed() const { return armed_; }

  /// The first event of `kind` whose window covers `now_us` and whose
  /// target matches `query` (plan order). nullptr when none.
  const FaultEvent* ActiveEvent(FaultKind kind, const std::string& query,
                                int64_t now_us) const;
  bool Active(FaultKind kind, const std::string& query, int64_t now_us) const {
    return ActiveEvent(kind, query, now_us) != nullptr;
  }
  /// Magnitude of the active event, or 0 when none is active.
  double ActiveMagnitude(FaultKind kind, const std::string& query,
                         int64_t now_us) const;

  /// Per-message decision: if an event of `kind` is active, draw Bernoulli
  /// (magnitude) from the seeded stream. Returns the event when the fault
  /// fires (and counts it), nullptr otherwise. Call order must be
  /// deterministic — in this repo every caller runs on the sim thread.
  const FaultEvent* Roll(FaultKind kind, const std::string& query,
                         int64_t now_us);

  /// Record `n` injections a layer performed itself (query-style layers).
  void Count(Layer layer, FaultKind kind, uint64_t n = 1);

  uint64_t injected_total() const;
  uint64_t injected_total(Layer layer) const;
  uint64_t injected_total(Layer layer, FaultKind kind) const;

  /// Export counts as `xg_fault_injected_total{layer=,kind=}` (one series
  /// per kind) and record each actuated window as a `fault.<kind>` span.
  /// Either argument may be nullptr; both must outlive this injector.
  void AttachObservability(obs::MetricsRegistry* registry,
                           obs::Tracer* tracer);

  /// Feed actuated windows into the flight recorder's event ring (one
  /// Note per begin/end edge). Must outlive this injector; may be null.
  void set_flight_recorder(obs::slo::FlightRecorder* flight) {
    flight_ = flight;
  }

  /// Deterministic "layer=name value" lines, for reproducibility checks.
  std::string FormatCounts() const;

 private:
  void ActuateWindow(const FaultEvent& event, bool begin);

  FaultPlan plan_;
  Rng rng_;
  bool armed_ = false;
  std::map<FaultKind, std::vector<Actuator>> actuators_;
  std::map<std::pair<Layer, FaultKind>, uint64_t> counts_;
  obs::Tracer* tracer_ = nullptr;
  obs::slo::FlightRecorder* flight_ = nullptr;
};

}  // namespace xg::fault
