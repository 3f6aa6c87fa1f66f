// The xGFabric end-to-end assembly (paper Fig 3 / Section 3.7).
//
// One Fabric object wires together every layer on a shared virtual clock:
//
//   sensors  — the CUPS facility at the remote site, reporting every 5 min;
//   net5g    — the private 5G access hop the telemetry crosses at UNL;
//   cspot    — the UNL -> UCSB -> ND log replication paths;
//   laminar  — the change-detection duty cycle at UCSB (3 tests + voting);
//   pilot    — the controller at ND deciding when to (pre)provision nodes;
//   hpc      — the batch facility and the calibrated CFD runtime model;
//   cfd      — the airflow solver (optionally run for real at small scale);
//   twin     — prediction-vs-measurement deviation, breach localization;
//   robot    — surveillance dispatch when a breach is suspected.
//
// The fabric is the public API the examples and the end-to-end bench use:
// configure, Run(hours), then read the metrics.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cfd/case.hpp"
#include "common/sim.hpp"
#include "common/stats.hpp"
#include "core/advisor.hpp"
#include "core/robot.hpp"
#include "core/telemetry.hpp"
#include "core/twin.hpp"
#include "cspot/runtime.hpp"
#include "cspot/topology.hpp"
#include "fault/injector.hpp"
#include "hpc/perfmodel.hpp"
#include "hpc/scheduler.hpp"
#include "laminar/change_detect.hpp"
#include "obs/metrics.hpp"
#include "obs/slo/slo.hpp"
#include "obs/trace.hpp"
#include "pilot/pilot.hpp"
#include "resil/degraded.hpp"
#include "resil/detector.hpp"
#include "sensors/cups.hpp"
#include "sensors/quality.hpp"
#include "serve/server.hpp"

namespace xg::core {

/// Drain-probe cadence while the fabric is in store-and-forward: recovery
/// from an access outage lands within one period of the link returning.
/// The rest of the fixed resilience policy lives in fabric.cpp.
inline constexpr double kStoreForwardProbeS = 30.0;

enum class CfdMode {
  kModeled,  ///< analytic interior prediction; runtime from the perf model
  kFull,     ///< run the real solver on a reduced mesh (runtime still
             ///< charged to the virtual clock from the perf model)
};

struct FabricConfig {
  uint64_t seed = 42;
  bool telemetry_over_5g = true;       ///< UNL client behind the 5G hop
  double telemetry_period_s = 300.0;   ///< weather-station reporting interval
  double detect_period_s = 1800.0;     ///< change-detection / alert duty cycle
  laminar::ChangeDetectorConfig detector;
  sensors::CupsParams cups;
  sensors::AtmosphereParams atmosphere;
  hpc::SiteProfile site;               ///< defaults to ND CRC
  bool background_load = false;        ///< competing jobs on the facility
  pilot::PilotConfig pilot;
  hpc::CfdPerfParams perf;
  CfdMode cfd_mode = CfdMode::kModeled;
  cfd::MeshParams cfd_mesh;            ///< used in kFull mode
  int cfd_steps = 120;                 ///< solver steps in kFull mode
  TwinConfig twin;
  RobotParams robot;
  bool dispatch_robot = true;
  /// Patrol mode: when idle, the robot sweeps the screen perimeter on a
  /// fixed cadence — a detection path independent of the digital twin
  /// (catches breaches the sparse anemometer grid cannot sense).
  bool robot_patrol = false;
  double patrol_period_s = 3600.0;
  AdvisorConfig advisor;
  /// Quality-control screening of station readings before they enter the
  /// telemetry stream (rejects range/rate/stuck-sensor failures).
  bool qc_enabled = true;
  sensors::QcLimits qc;
  /// Observability switches (perfbench's obs.overhead_frac measures
  /// their cost).
  /// With metrics on, every layer mirrors its counters into `registry()`;
  /// with tracing on, each telemetry reading's journey becomes one trace.
  bool metrics_enabled = true;
  bool tracing_enabled = true;
  /// Deadline-budget SLO accounting: per-reading latency ledger, per-stage
  /// HDR histograms (xg_slo_*), and the flight recorder. Keys on trace
  /// ids, so it is inert unless tracing is enabled too. The ledger
  /// deadline defaults to one detection duty cycle (~ the paper's
  /// 23-minute actionable window).
  obs::slo::SloConfig slo;
  /// Chaos: a non-empty plan is armed on the fabric's clock at
  /// construction, coupled to the WAN, the CSPOT nodes, and the batch
  /// scheduler. Injected counts export as xg_fault_injected_total.
  fault::FaultPlan fault_plan;
  /// Site-health canary loop: a 1 s job every 120 s on the primary batch
  /// queue, each start a heartbeat for the site's failure detector. Without
  /// heartbeats the detector never suspects, so "primary site suspected"
  /// stale serving and failover stay idle. Off by default: the canaries
  /// roughly double a day's executed events and compete for a contended
  /// queue. Retry, exactly-once delivery, store-and-forward, breakers and
  /// stale serving are always on.
  bool site_probes = false;
  /// Failover facility for degraded-mode pilot placement. When set, CFD
  /// tasks are redirected here while the primary site's failure detector
  /// suspects it (which needs site_probes).
  std::optional<hpc::SiteProfile> failover_site;
  /// Overload-robust advisory serving tier (src/serve): quantized-key
  /// cache, single-flight coalescing, CoDel admission, and load shedding
  /// into the overload_shed degraded mode. Off by default. Its
  /// cache.validity_us is also the fabric's stale-advisory window, so the
  /// two stale-serve paths agree.
  serve::ServeConfig serve;

  FabricConfig();
};

/// Everything the evaluation reports, accumulated over a run.
struct FabricMetrics {
  uint64_t telemetry_frames_sent = 0;
  uint64_t telemetry_frames_stored = 0;
  SampleSet telemetry_latency_ms;  ///< UNL -> UCSB append latency
  uint64_t detection_cycles = 0;
  uint64_t alerts_raised = 0;
  uint64_t cfd_runs_completed = 0;
  SampleSet cfd_wait_s;            ///< alert at ND -> execution start
  SampleSet cfd_runtime_s;
  SampleSet alert_to_result_s;     ///< alert raised -> result stored at UCSB
  SampleSet result_validity_s;     ///< detect interval minus response time
  uint64_t breach_suspicions = 0;
  uint64_t robot_dispatches = 0;
  uint64_t patrol_legs = 0;
  uint64_t breaches_confirmed = 0;
  uint64_t breaches_found_on_patrol = 0;
  SampleSet breach_detection_delay_s;  ///< breach occurs -> confirmed
  double pilot_idle_node_seconds = 0.0;
  uint64_t spray_windows = 0;
  uint64_t frost_alerts = 0;
  uint64_t irrigation_advisories = 0;
  uint64_t qc_rejected_readings = 0;
  uint64_t readings_dropped = 0;  ///< station dropouts (fault injection)
  // -- resilience: degraded-mode accounting --
  uint64_t telemetry_frames_buffered = 0;  ///< held in store-and-forward
  uint64_t telemetry_frames_drained = 0;   ///< delivered from the buffer
  uint64_t stale_advisories_served = 0;    ///< advisories from the last result
  uint64_t stale_advisories_expired = 0;   ///< serves refused: window exceeded
  uint64_t site_failovers = 0;             ///< interactive -> batch episodes
  // -- serving tier (zero unless FabricConfig::serve.enabled) --
  uint64_t serve_cfd_runs = 0;     ///< CFD refreshes launched by the server
  uint64_t serve_cfd_rejected = 0; ///< refreshes refused by the bounded pilot
};

class Fabric {
 public:
  explicit Fabric(FabricConfig config);

  /// Run the whole coupled system for `hours` of virtual time.
  void Run(double hours);

  /// Inject a screen breach (before or during Run via a scheduled call).
  void ScheduleBreach(const sensors::BreachEvent& breach);

  /// Schedule a weather front in the synthetic atmosphere.
  void ScheduleFront(const sensors::FrontEvent& front);

  /// Inject a station fault (stuck sensor, dropout, spike window).
  void ScheduleStationFault(const sensors::FaultWindow& fault);

  const FabricMetrics& metrics() const { return metrics_; }
  const FabricConfig& config() const { return config_; }

  sim::Simulation& simulation() { return sim_; }
  cspot::Runtime& cspot_runtime() { return *cspot_; }
  sensors::CupsFacility& cups() { return *cups_; }
  DigitalTwin& twin() { return twin_; }

  /// The armed chaos injector (nullptr when config.fault_plan is empty).
  fault::FaultInjector* fault_injector() { return chaos_.get(); }

  /// Degraded-mode audit trail (shared with the serving tier).
  resil::DegradedModeManager& degraded_modes() { return degraded_; }
  /// Sensor-edge store-and-forward buffer.
  resil::StoreAndForward& store_forward() { return sf_; }
  /// Phi-accrual health of the primary HPC site (fed by site_probes).
  resil::FailureDetector& site_detector() { return site_detector_; }

  /// Unified observability: every layer's counters, mirrored live.
  obs::MetricsRegistry& registry() { return registry_; }
  /// Span store for the per-reading end-to-end traces (§4.4 breakdown).
  obs::Tracer& tracer() { return tracer_; }

  /// Per-reading deadline budgets and their aggregate histograms / miss
  /// counters (nullptr when config.slo is disabled).
  obs::slo::LatencyLedger* slo_ledger() {
    return config_.slo.enabled ? &ledger_ : nullptr;
  }
  /// Black-box dump ring (nullptr when config.slo is disabled).
  obs::slo::FlightRecorder* flight_recorder() {
    return config_.slo.enabled ? &flight_ : nullptr;
  }

  /// Overload-robust advisory front (nullptr unless config.serve.enabled).
  serve::AdvisoryServer* advisory_server() { return advisory_server_.get(); }

  /// Most recent CFD result, if any simulation completed.
  const std::optional<CfdResult>& latest_result() const { return latest_result_; }

  /// Hook invoked when a CFD result lands at UCSB (for examples/benches).
  std::function<void(const CfdResult&)> on_result;
  /// Hook invoked when the robot confirms (or clears) a suspicion.
  std::function<void(const BreachSuspicion&, bool confirmed)> on_breach;
  /// Hook invoked for each intervention advisory a CFD result generates.
  std::function<void(const Advisory&)> on_advisory;
  /// Hook invoked whenever a telemetry frame lands durably at UCSB.
  /// `drained` is true when the frame was delivered from the
  /// store-and-forward buffer rather than the live path (benches use the
  /// first post-outage call to measure recovery time).
  std::function<void(double store_time_s, bool drained)> on_frame_stored;

 private:
  void RegisterFabricMetrics();
  void PublishTelemetry();
  /// Park a serialized frame in the store-and-forward buffer and close
  /// its trace and budget as buffered.
  void ParkFrame(const obs::TraceContext& root,
                 const std::vector<uint8_t>& payload);
  /// Enter store-and-forward (idempotent) and start the drain probes.
  void EnterStoreForward(const std::string& detail);
  void ScheduleStoreForwardTick();
  /// One drain probe: try to append the oldest buffered frame; on success
  /// keep draining, on failure back off one probe period.
  void StoreForwardTick();
  /// Account a frame delivered from the buffer (twin observe + metrics).
  void ObserveStoredFrame(const std::vector<uint8_t>& payload, bool drained);
  /// Re-issue advisories from the last CFD result while it is still inside
  /// its validity window (flagged stale); counts an expiry otherwise.
  void ServeStaleAdvisories(const std::string& reason);
  /// Canary job against the primary site; its start is a detector heartbeat.
  void SubmitSiteProbe();
  /// The pilot CFD tasks go to at `now_us`: the failover pilot while the
  /// primary site is suspected and one is configured, else the primary.
  pilot::PilotController& PlacementPilot(int64_t now_us);
  void RunDetectionCycle();
  /// serve::CfdLauncher backend: one bounded CFD refresh for the requested
  /// conditions through the pilot tier (failover-aware). Returns false
  /// when the bounded pending queue refuses the task.
  bool LaunchServeCfd(const serve::FieldConditions& conditions,
                      std::function<void(std::vector<uint8_t>, int64_t)> done);
  void TriggerCfd(double alert_time_s, double data_bytes,
                  obs::TraceContext trace);
  /// The boundary frame for an escalation could not be fetched: free the
  /// CFD slot, bridge with stale advisories, close the budget as failed.
  void AbandonEscalation(const obs::TraceContext& decision);
  CfdResult ExecuteCfd(double alert_time_s, const TelemetryFrame& boundary);
  void StoreResult(const CfdResult& result, const obs::TraceContext& trace);
  void HandleSuspicion(const BreachSuspicion& suspicion);
  void PatrolNextLeg();
  /// Shared breach check at the robot's current position; repairs and
  /// accounts a confirmed breach. Returns true when one was confirmed.
  bool ConfirmBreachAtRobot(bool via_patrol);
  std::vector<TelemetryFrame> RecentFrames(size_t n) const;

  FabricConfig config_;
  sim::Simulation sim_;
  // Declared first: components keep pointers to the registry and tracer,
  // so both outlive them. The registry's views point into later members
  // (components, metrics_, telemetry_latency_hist_); snapshots run only
  // through registry() while the Fabric is alive, so none reads a
  // destroyed view.
  obs::MetricsRegistry registry_;
  obs::Tracer tracer_;
  std::unique_ptr<cspot::Runtime> cspot_;
  cspot::TopologyNames nodes_;
  std::unique_ptr<sensors::Atmosphere> atmosphere_;
  std::unique_ptr<sensors::CupsFacility> cups_;
  laminar::ChangeDetector detector_;
  std::unique_ptr<hpc::BatchScheduler> scheduler_;
  std::unique_ptr<pilot::PilotController> pilot_;
  hpc::CfdPerfModel perf_;
  DigitalTwin twin_;
  InterventionAdvisor advisor_;
  /// Station-level sensor faults (stuck/dropout/spike) — distinct from
  /// the cross-layer chaos injector below.
  std::unique_ptr<sensors::FaultInjector> station_faults_;
  std::unique_ptr<fault::FaultInjector> chaos_;
  sensors::QualityControl qc_;
  std::unique_ptr<OrchardGrid> orchard_;
  std::unique_ptr<Robot> robot_;
  FabricMetrics metrics_;
  std::optional<CfdResult> latest_result_;
  // SLO deadline accounting; idle when config_.slo.enabled is false.
  obs::slo::LatencyLedger ledger_;
  obs::slo::FlightRecorder flight_;
  /// Integer-µs twin of metrics_.telemetry_latency_ms, exported as
  /// xg_fabric_telemetry_latency_ms (recorded only with metrics on).
  obs::Histogram telemetry_latency_hist_;
  /// Trace of the most recently stored frame; the detection cycle and the
  /// downstream CFD/alert path attach to it.
  obs::TraceContext last_frame_trace_;
  std::string telemetry_client_;
  bool cfd_in_flight_ = false;
  bool robot_busy_ = false;
  size_t patrol_waypoint_ = 0;
  // Resilience state; the failover pair exists only with a failover site.
  resil::DegradedModeManager degraded_;
  resil::StoreAndForward sf_;
  resil::FailureDetector site_detector_;
  std::unique_ptr<hpc::BatchScheduler> failover_scheduler_;
  std::unique_ptr<pilot::PilotController> failover_pilot_;
  bool sf_tick_pending_ = false;  ///< a drain probe is already scheduled
  bool sf_probe_inflight_ = false;
  /// Serving tier (null unless config_.serve.enabled).
  std::unique_ptr<serve::AdvisoryServer> advisory_server_;
  Rng rng_;
};

}  // namespace xg::core
