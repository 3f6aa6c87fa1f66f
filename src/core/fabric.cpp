#include "core/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "cfd/solver.hpp"
#include "common/contract.hpp"
#include "common/logging.hpp"
#include "resil/policy.hpp"

namespace xg::core {

namespace {
constexpr const char* kTelemetryLog = "telemetry";
constexpr const char* kAlertLog = "alerts";
constexpr const char* kResultLog = "results";

// The fixed resilience policy. Telemetry appends retry with backoff under
// a per-frame idempotence token; failed frames park in a bounded
// store-and-forward buffer (oldest evicted first); the primary site's
// phi-accrual detector judges canary-job heartbeats (site_probes). WAN
// breakers run at resil::BreakerConfig defaults.
constexpr resil::RetryPolicyConfig kTelemetryRetry{
    .max_attempts = 8,
    .attempt_timeout_ms = 400.0,
    .initial_backoff_ms = 200.0,
    .multiplier = 2.0,
    .max_backoff_ms = 10'000.0,
    .jitter = 0.2,
};
constexpr resil::DetectorConfig kSiteDetector{
    .window = 16,
    .phi_threshold = 8.0,
    .min_std_ms = 5'000.0,
    .min_samples = 3,
};
constexpr size_t kStoreForwardCapacity = 256;  // frames
constexpr double kSiteProbePeriodS = 120.0;
constexpr double kSiteProbeRuntimeS = 1.0;

struct AlertRecord {
  double time_s = 0.0;
  double data_bytes = 0.0;
  // Trace context, serialized through the alert log so the ND-side CFD
  // path joins the originating telemetry reading's trace (0 = untraced).
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

// Stable idempotence token for a serialized telemetry frame (FNV-1a over
// the payload; frames embed their capture time, so distinct frames hash
// apart). A frame whose append half-succeeded (ack lost) and was then
// buffered dedups at UCSB when the drain re-ships it.
uint64_t FrameToken(const std::vector<uint8_t>& payload) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : payload) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h == 0 ? 1 : h;
}
}  // namespace

FabricConfig::FabricConfig() : site(hpc::NotreDameCRC()) {
  pilot.data_threshold_bytes = 16384.0;  // one node per ~16 KB of telemetry
  pilot.cores_per_node = site.cores_per_node;
  pilot.estimated_task_runtime_s = 600.0;
  twin.calibration_updates = 2;
}

Fabric::Fabric(FabricConfig config)
    : config_(std::move(config)), detector_(config_.detector),
      perf_(config_.perf), twin_(config_.twin), advisor_(config_.advisor),
      sf_(kStoreForwardCapacity), site_detector_(kSiteDetector),
      rng_(config_.seed ^ 0xFAB) {
  cspot_ = std::make_unique<cspot::Runtime>(sim_, config_.seed);
  nodes_ = cspot::BuildXgTopology(*cspot_);
  telemetry_client_ =
      config_.telemetry_over_5g ? nodes_.unl_5g : nodes_.unl_wired;

  atmosphere_ = std::make_unique<sensors::Atmosphere>(config_.atmosphere,
                                                      config_.seed ^ 0xA7);
  cups_ = std::make_unique<sensors::CupsFacility>(config_.cups,
                                                  config_.seed ^ 0xC4);

  // Logs at the UCSB repository. The topology was built above, so log
  // creation can only fail on a name clash — an internal wiring bug.
  const cspot::LogConfig log_cfgs[] = {{kTelemetryLog, 1024, 4096},
                                       {kAlertLog, 64, 1024},
                                       {kResultLog, 1024, 1024}};
  for (const auto& cfg : log_cfgs) {
    auto created = cspot_->CreateLog(nodes_.ucsb, cfg);
    XG_INVARIANT(created.ok(), "fabric log creation failed: " + cfg.name);
  }

  scheduler_ = std::make_unique<hpc::BatchScheduler>(sim_, config_.site,
                                                     config_.seed ^ 0x5C);
  pilot::PilotConfig pc = config_.pilot;
  pc.cores_per_node = config_.site.cores_per_node;
  pilot_ = std::make_unique<pilot::PilotController>(sim_, *scheduler_, perf_,
                                                    pc, config_.seed ^ 0x91);

  for (const auto& st : cups_->stations()) {
    twin_.RegisterStation(st.id(), st.x(), st.y(), st.interior());
  }

  station_faults_ =
      std::make_unique<sensors::FaultInjector>(config_.seed ^ 0xF417);
  qc_ = sensors::QualityControl(config_.qc);

  OrchardGridParams og;
  og.length_m = config_.cups.length_m;
  og.width_m = config_.cups.width_m;
  orchard_ = std::make_unique<OrchardGrid>(og);
  robot_ = std::make_unique<Robot>(*orchard_, config_.robot,
                                   config_.cups.length_m / 2.0, 1.0);

  // Observability wiring: spans run on the virtual clock; each layer
  // mirrors its own counters (which remain the source of truth).
  tracer_.set_clock([this] { return sim_.Now().micros(); });
  tracer_.set_enabled(config_.tracing_enabled);
  obs::MetricsRegistry* reg = config_.metrics_enabled ? &registry_ : nullptr;
  obs::Tracer* tracer = config_.tracing_enabled ? &tracer_ : nullptr;
  cspot_->AttachObservability(reg, tracer);
  scheduler_->AttachObservability(reg);
  pilot_->AttachObservability(reg);
  if (reg != nullptr) RegisterFabricMetrics();

  // Resilience: breakers sit on the WAN, the degraded-mode manager keeps
  // the audit trail, and (when a failover site is configured) a second
  // scheduler/pilot pair stands by for interactive -> batch placement.
  cspot_->wan().set_metrics_registry(reg);
  cspot_->wan().EnableCircuitBreakers(resil::BreakerConfig{});
  degraded_.AttachObservability(reg, tracer);
  if (config_.failover_site.has_value()) {
    failover_scheduler_ = std::make_unique<hpc::BatchScheduler>(
        sim_, *config_.failover_site, config_.seed ^ 0xFA11);
    failover_scheduler_->AttachObservability(reg);
    pilot::PilotConfig fpc = config_.pilot;
    fpc.cores_per_node = config_.failover_site->cores_per_node;
    failover_pilot_ = std::make_unique<pilot::PilotController>(
        sim_, *failover_scheduler_, perf_, fpc, config_.seed ^ 0xFA12);
  }

  // Cross-layer chaos: couple the plan to the transport, the CSPOT node
  // actuators, and the batch scheduler, then arm it on the shared clock.
  if (!config_.fault_plan.empty()) {
    chaos_ = std::make_unique<fault::FaultInjector>(config_.fault_plan);
    chaos_->AttachObservability(reg, tracer);
    cspot_->AttachFaultInjector(*chaos_);
    scheduler_->AttachFaultInjector(*chaos_);
    if (failover_scheduler_ != nullptr) {
      failover_scheduler_->AttachFaultInjector(*chaos_);
    }
    chaos_->Arm(sim_);
  }

  // Deadline-budget SLO accounting: the ledger keys per-reading budgets by
  // trace id (inert while tracing is off) and books closed records into
  // the xg_slo_* series; the flight recorder keeps the black box that
  // dumps on contract violations and deadline misses. Switched off, no
  // budget opens (see PublishTelemetry) and no layer gets the recorder.
  obs::slo::FlightRecorder* flight = flight_recorder();
  flight_.set_clock([this] { return sim_.Now().micros(); });
  flight_.set_ledger(&ledger_);
  ledger_.set_on_close([this](const obs::slo::LedgerRecord& rec) {
    flight_.OnRecordClosed(rec);
  });
  cspot_->AttachSlo(&ledger_);
  if (config_.slo.enabled) {
    ledger_.Attach(reg);
    flight_.ArmContractTrigger();
  }
  // Layer event feeds into the flight recorder's fault/resilience ring.
  degraded_.set_flight_recorder(flight);
  if (chaos_ != nullptr) chaos_->set_flight_recorder(flight);
  scheduler_->set_flight_recorder(flight);
  pilot_->set_flight_recorder(flight);
  if (failover_scheduler_ != nullptr) {
    failover_scheduler_->set_flight_recorder(flight);
  }
  if (failover_pilot_ != nullptr) failover_pilot_->set_flight_recorder(flight);

  // Overload-robust serving tier: quantized-key cache + single-flight
  // coalescing + CoDel admission in front of the pilot tier. It shares the
  // fabric's degraded-mode manager, and its cache validity window is the
  // one ServeStaleAdvisories uses, so both stale-serve paths agree on the
  // same inclusive boundary.
  if (config_.serve.enabled) {
    advisory_server_ =
        std::make_unique<serve::AdvisoryServer>(sim_, config_.serve);
    advisory_server_->set_degraded_manager(&degraded_);
    advisory_server_->set_flight_recorder(flight);
    advisory_server_->AttachObservability(reg);
    advisory_server_->set_launcher(
        [this](const serve::ConditionKey&,
               const serve::FieldConditions& conditions,
               std::function<void(std::vector<uint8_t>, int64_t)> done) {
          return LaunchServeCfd(conditions, std::move(done));
        });
  }
}

void Fabric::RegisterFabricMetrics() {
  registry_.RegisterCounter("xg_fabric_telemetry_frames_sent_total", {},
                            "Telemetry frames published",
                            &metrics_.telemetry_frames_sent);
  registry_.RegisterCounter("xg_fabric_telemetry_frames_stored_total", {},
                            "Telemetry frames durably appended at UCSB",
                            &metrics_.telemetry_frames_stored);
  registry_.RegisterCounter("xg_fabric_detection_cycles_total", {},
                            "Change-detection duty cycles",
                            &metrics_.detection_cycles);
  registry_.RegisterCounter("xg_fabric_alerts_raised_total", {},
                            "Change alerts appended", &metrics_.alerts_raised);
  registry_.RegisterCounter("xg_fabric_cfd_runs_completed_total", {},
                            "CFD simulations completed",
                            &metrics_.cfd_runs_completed);
  registry_.RegisterCounter("xg_fabric_breach_suspicions_total", {},
                            "Twin-raised breach suspicions",
                            &metrics_.breach_suspicions);
  registry_.RegisterCounter("xg_fabric_robot_dispatches_total", {},
                            "Robot surveillance dispatches",
                            &metrics_.robot_dispatches);
  registry_.RegisterCounter("xg_fabric_patrol_legs_total", {},
                            "Perimeter patrol legs flown",
                            &metrics_.patrol_legs);
  registry_.RegisterCounter("xg_fabric_breaches_confirmed_total", {},
                            "Breaches confirmed on camera",
                            &metrics_.breaches_confirmed);
  registry_.RegisterCounter("xg_fabric_spray_windows_total", {},
                            "Spray-window advisories", &metrics_.spray_windows);
  registry_.RegisterCounter("xg_fabric_frost_alerts_total", {},
                            "Frost advisories", &metrics_.frost_alerts);
  registry_.RegisterCounter("xg_fabric_irrigation_advisories_total", {},
                            "Irrigation advisories",
                            &metrics_.irrigation_advisories);
  registry_.RegisterCounter("xg_fabric_qc_rejected_readings_total", {},
                            "Readings rejected by QC",
                            &metrics_.qc_rejected_readings);
  registry_.RegisterCounter("xg_fabric_readings_dropped_total", {},
                            "Readings lost to station faults",
                            &metrics_.readings_dropped);
  registry_.RegisterCounter("xg_fabric_serve_cfd_runs_total", {},
                            "CFD refreshes launched by the serving tier",
                            &metrics_.serve_cfd_runs);
  registry_.RegisterCounter(
      "xg_fabric_serve_cfd_rejected_total", {},
      "Serve refreshes refused by the bounded pilot queue",
      &metrics_.serve_cfd_rejected);
  registry_.RegisterCounter("xg_resil_failovers_total", {},
                            "Interactive -> batch pilot failover episodes",
                            &metrics_.site_failovers);
  registry_.RegisterCounter(
      "xg_resil_stale_served_total", {},
      "Advisories served from the last CFD result while degraded",
      &metrics_.stale_advisories_served);
  registry_.RegisterCounter(
      "xg_resil_stale_expired_total", {},
      "Stale serves refused because the validity window had passed",
      &metrics_.stale_advisories_expired);
  registry_.RegisterCounter("xg_resil_sf_buffered_total", {},
                            "Telemetry frames ever parked in store-and-forward",
                            &metrics_.telemetry_frames_buffered);
  registry_.RegisterCounter("xg_resil_sf_drained_total", {},
                            "Buffered frames delivered after recovery",
                            &metrics_.telemetry_frames_drained);
  registry_.RegisterCallback(
      "xg_resil_sf_dropped_total", {},
      "Buffered frames evicted by the bounded buffer",
      [this] { return static_cast<double>(sf_.dropped_total()); },
      obs::MetricSample::Type::kCounter);
  registry_.RegisterCallback(
      "xg_resil_sf_depth", {},
      "Telemetry frames currently parked in store-and-forward",
      [this] { return static_cast<double>(sf_.size()); });
  registry_.RegisterCallback(
      "xg_resil_suspicion", {{"target", config_.site.name}},
      "Phi-accrual suspicion of the primary HPC site",
      [this] { return site_detector_.PhiAt(sim_.Now().micros()); });
  registry_.RegisterHistogram(
      "xg_fabric_telemetry_latency_ms", {},
      "End-to-end telemetry append latency, " + telemetry_client_ + " -> " +
          nodes_.ucsb + " (ms)",
      &telemetry_latency_hist_);
}

void Fabric::ScheduleBreach(const sensors::BreachEvent& breach) {
  cups_->AddBreach(breach);
}

void Fabric::ScheduleFront(const sensors::FrontEvent& front) {
  atmosphere_->AddFront(front);
}

void Fabric::ScheduleStationFault(const sensors::FaultWindow& fault) {
  station_faults_->Add(fault);
}

void Fabric::PublishTelemetry() {
  // One trace per reading: the root span covers the reading's whole
  // journey, so its duration is the e2e latency the paper decomposes.
  const obs::TraceContext root = tracer_.StartTrace("telemetry", "fabric");
  tracer_.Annotate(root, "client", telemetry_client_);
  // The reporting tick doubles as the expiry sweep (a stalled journey is
  // closed as kExpired — a deadline miss — once its budget runs out), then
  // this reading's budget opens at the emit boundary. With the SLO layer
  // off it opens under id 0, which the ledger ignores, so every later
  // stamp and close is a no-op.
  ledger_.SweepExpired(sim_.Now().micros());
  ledger_.Open(config_.slo.enabled ? root.trace_id : 0, sim_.Now().micros());
  const obs::TraceContext read_span =
      tracer_.StartSpan("sensor.read", "sensors", root);

  const sensors::AtmoState exterior = atmosphere_->Current();
  const double now_s = sim_.Now().seconds();
  const std::vector<sensors::Reading> raw = cups_->MeasureAll(exterior, now_s);

  // Ingest pipeline: fault injection (the physical world) then QC
  // screening (the edge software) before anything enters the telemetry
  // stream the detector and twin consume.
  std::vector<sensors::Reading> readings;
  std::vector<bool> interior;
  const auto& stations = cups_->stations();
  for (size_t i = 0; i < raw.size(); ++i) {
    auto injected = station_faults_->Apply(raw[i]);
    if (!injected.has_value()) {
      ++metrics_.readings_dropped;
      continue;
    }
    if (config_.qc_enabled &&
        qc_.Check(*injected) != sensors::QcVerdict::kPass) {
      ++metrics_.qc_rejected_readings;
      continue;
    }
    readings.push_back(*injected);
    interior.push_back(stations[i].interior());
  }
  TelemetryFrame frame = MakeFrame(readings, interior, now_s);
  ++metrics_.telemetry_frames_sent;
  tracer_.Annotate(read_span, "stations", std::to_string(readings.size()));
  tracer_.EndSpan(read_span);

  const sim::SimTime t0 = sim_.Now();
  const std::vector<uint8_t> payload = SerializeFrame(frame);

  // Degraded path: the access link is known-down, so park the frame
  // instead of burning a full retry schedule against an open breaker.
  // FIFO order is preserved — the drain ships everything buffered before
  // anything published after recovery.
  if (degraded_.active(resil::DegradedMode::kStoreForward)) {
    ParkFrame(root, payload);
    return;
  }

  cspot::AppendOptions opts;
  opts.trace = root;
  opts.retry = kTelemetryRetry;
  opts.idem_token = FrameToken(payload);
  cspot_->RemoteAppend(
      telemetry_client_, nodes_.ucsb, kTelemetryLog, payload, opts,
      [this, t0, frame, root, payload](Result<cspot::SeqNo> r,
                                       const fault::FaultOutcome&) {
        if (!r.ok()) {
          XG_LOG(kWarn, "fabric")
              << "telemetry append failed: " << r.status().ToString();
          tracer_.Annotate(root, "error", r.status().ToString());
          // Exactly-once across the boundary: the drain re-ships this
          // frame under the same idempotence token, so an append whose
          // ack was lost dedups instead of appending twice.
          EnterStoreForward("telemetry append failed: " +
                            r.status().ToString());
          ParkFrame(root, payload);
          return;
        }
        ++metrics_.telemetry_frames_stored;
        // Grandfathered summary metric; the per-stage decomposition of the
        // same interval lives in the deadline ledger.
        const sim::SimTime latency =
            sim_.Now() - t0;  // xglint:allow(stage-stamp)
        metrics_.telemetry_latency_ms.Add(latency.millis());
        if (config_.metrics_enabled) {
          telemetry_latency_hist_.Record(latency.micros());
        }
        // The operator-side twin sees each stored frame; the detection
        // cycle attaches its span to this frame's trace.
        const obs::TraceContext observe =
            tracer_.StartSpan("twin.observe", "twin", root);
        auto suspicion = twin_.Observe(frame);
        tracer_.EndSpan(observe);
        tracer_.EndSpan(root);
        // A newer frame supersedes the previous one as the detection
        // window head: retire its budget as plain delivery unless the
        // detector escalated it into the CFD path.
        ledger_.CloseIfIdle(last_frame_trace_.trace_id,
                            obs::slo::CloseReason::kDelivered);
        last_frame_trace_ = root;
        if (on_frame_stored) on_frame_stored(sim_.Now().seconds(), false);
        if (suspicion) HandleSuspicion(*suspicion);
      });
}

void Fabric::ParkFrame(const obs::TraceContext& root,
                       const std::vector<uint8_t>& payload) {
  sf_.Buffer(payload);
  ++metrics_.telemetry_frames_buffered;
  tracer_.Annotate(root, "buffered", "true");
  tracer_.EndSpan(root);
  // The journey continues untraced through the drain; the budget closes
  // here and the resilience metrics account the buffered leg.
  ledger_.Close(root.trace_id, obs::slo::CloseReason::kBuffered);
}

void Fabric::EnterStoreForward(const std::string& detail) {
  if (degraded_.active(resil::DegradedMode::kStoreForward)) return;
  degraded_.Enter(resil::DegradedMode::kStoreForward, sim_.Now().micros(),
                  detail);
  ScheduleStoreForwardTick();
}

void Fabric::ScheduleStoreForwardTick() {
  if (sf_tick_pending_) return;
  sf_tick_pending_ = true;
  sim_.Schedule(sim::SimTime::Seconds(kStoreForwardProbeS), [this] {
    sf_tick_pending_ = false;
    StoreForwardTick();
  });
}

void Fabric::StoreForwardTick() {
  if (!degraded_.active(resil::DegradedMode::kStoreForward)) return;
  if (sf_probe_inflight_) return;
  if (sf_.empty()) {
    degraded_.Exit(resil::DegradedMode::kStoreForward, sim_.Now().micros());
    return;
  }
  // Probe with the oldest buffered frame: a short retry budget that either
  // lands (link restored -> drain everything) or fails fast and waits one
  // probe period. While the breaker for the access link is open the
  // attempts fail without touching the wire; the breaker's own half-open
  // probing decides when traffic flows again.
  const std::vector<uint8_t> probe = sf_.Front();
  cspot::AppendOptions opts;
  opts.retry.max_attempts = 2;
  opts.retry.attempt_timeout_ms = kTelemetryRetry.attempt_timeout_ms;
  opts.idem_token = FrameToken(probe);
  sf_probe_inflight_ = true;
  cspot_->RemoteAppend(
      telemetry_client_, nodes_.ucsb, kTelemetryLog, probe, opts,
      [this](Result<cspot::SeqNo> r, const fault::FaultOutcome&) {
        sf_probe_inflight_ = false;
        if (!r.ok()) {
          ScheduleStoreForwardTick();
          return;
        }
        ObserveStoredFrame(sf_.PopFront(), /*drained=*/true);
        StoreForwardTick();  // keep draining; exits the mode when empty
      });
}

void Fabric::ObserveStoredFrame(const std::vector<uint8_t>& payload,
                                bool drained) {
  ++metrics_.telemetry_frames_stored;
  if (drained) ++metrics_.telemetry_frames_drained;
  auto f = DeserializeFrame(payload);
  if (f.ok()) {
    auto suspicion = twin_.Observe(f.value());
    if (suspicion) HandleSuspicion(*suspicion);
  }
  if (on_frame_stored) on_frame_stored(sim_.Now().seconds(), drained);
}

void Fabric::ServeStaleAdvisories(const std::string& reason) {
  if (!latest_result_.has_value()) return;
  // Integer-µs comparison against the serving tier's validity window: it
  // is inclusive (a result aged exactly validity_us still serves, matching
  // DeadlineBudget's exactly-at-deadline-is-not-a-miss rule), and the float
  // round trip through complete_time_s must not flip the boundary case.
  const int64_t complete_us =
      std::llround(latest_result_->complete_time_s * 1e6);
  const int64_t age_us = sim_.Now().micros() - complete_us;
  if (!serve::WithinValidityUs(age_us, config_.serve.cache.validity_us)) {
    ++metrics_.stale_advisories_expired;
    return;
  }
  const double age_s = static_cast<double>(age_us) * 1e-6;
  degraded_.Enter(resil::DegradedMode::kStaleServe, sim_.Now().micros(),
                  reason);
  const std::vector<TelemetryFrame> latest = RecentFrames(1);
  if (latest.empty()) return;
  char age[48];
  std::snprintf(age, sizeof(age), " [stale result, age %.0fs]", age_s);
  for (Advisory a : advisor_.Advise(*latest_result_, latest.back())) {
    a.stale = true;
    a.reason += age;
    ++metrics_.stale_advisories_served;
    if (on_advisory) on_advisory(a);
  }
}

void Fabric::SubmitSiteProbe() {
  hpc::JobSpec spec;
  spec.name = "xg-canary";
  spec.nodes = 1;
  spec.runtime_s = kSiteProbeRuntimeS;
  spec.walltime_s = std::max(60.0, 4.0 * spec.runtime_s);
  scheduler_->Submit(spec, /*on_start=*/[this](const hpc::JobInfo&) {
    const int64_t now_us = sim_.Now().micros();
    site_detector_.Heartbeat(now_us);
    // A canary starting is proof the queue admits again: fail back.
    if (!site_detector_.SuspectAt(now_us)) {
      degraded_.Exit(resil::DegradedMode::kSiteFailover, now_us);
    }
  });
}

pilot::PilotController& Fabric::PlacementPilot(int64_t now_us) {
  if (failover_pilot_ != nullptr && site_detector_.SuspectAt(now_us)) {
    return *failover_pilot_;
  }
  return *pilot_;
}

std::vector<TelemetryFrame> Fabric::RecentFrames(size_t n) const {
  std::vector<TelemetryFrame> frames;
  cspot::Node* ucsb = cspot_->GetNode(nodes_.ucsb);
  if (ucsb == nullptr) return frames;
  cspot::LogStorage* log = ucsb->GetLog(kTelemetryLog);
  if (log == nullptr) return frames;
  for (const auto& bytes : log->Tail(n)) {
    auto f = DeserializeFrame(bytes);
    if (f.ok()) frames.push_back(f.take());
  }
  return frames;
}

void Fabric::RunDetectionCycle() {
  ++metrics_.detection_cycles;
  // The window evaluation joins the latest stored frame's trace, so a
  // reading that trips the detector carries one trace end to end.
  const obs::TraceContext window =
      tracer_.StartSpan("laminar.window", "laminar", last_frame_trace_);
  const size_t need = 2 * config_.detector.window;
  std::vector<TelemetryFrame> frames = RecentFrames(need);

  bool changed = false;
  if (frames.size() >= need) {
    std::vector<double> wind, temp;
    for (const auto& f : frames) {
      wind.push_back(f.exterior_wind_ms);
      temp.push_back(f.exterior_temp_c);
    }
    const laminar::ChangeDecision dw = detector_.Evaluate(wind);
    const laminar::ChangeDecision dt = detector_.Evaluate(temp);
    changed = dw.changed || dt.changed;
    if (changed && config_.slo.enabled) {
      flight_.Note("laminar", dw.changed ? "wind " + dw.Describe()
                                          : "temp " + dt.Describe());
    }
  }
  // Bootstrap: the very first cycle with data runs a calibration
  // simulation even without a statistically detectable change.
  if (!changed && metrics_.cfd_runs_completed == 0 && !cfd_in_flight_ &&
      !frames.empty()) {
    changed = true;
  }
  tracer_.Annotate(window, "frames", std::to_string(frames.size()));
  tracer_.Annotate(window, "changed", changed ? "true" : "false");
  if (!changed) {
    tracer_.EndSpan(window);
    return;
  }

  double data_bytes = 0.0;
  for (const auto& f : frames) {
    data_bytes += static_cast<double>(f.WireBytes());
  }
  // The alert record carries the trace context through the CSPOT log to
  // the ND-side poller (context propagation through persisted state).
  AlertRecord alert{sim_.Now().seconds(), data_bytes, window.trace_id,
                    window.span_id};
  std::vector<uint8_t> bytes(sizeof(AlertRecord));
  std::memcpy(bytes.data(), &alert, sizeof(AlertRecord));
  auto r = cspot_->LocalAppend(nodes_.ucsb, kAlertLog, bytes);
  if (r.ok()) {
    ++metrics_.alerts_raised;
    // Escalation boundary: once laminar_trigger is stamped the reading's
    // budget stays open through pilot/CFD and closes at twin_update.
    ledger_.Stamp(window.trace_id, obs::slo::Stage::kLaminarTrigger,
                  sim_.Now().micros());
  }
  tracer_.EndSpan(window);
}

void Fabric::TriggerCfd(double alert_time_s, double data_bytes,
                        obs::TraceContext trace) {
  if (cfd_in_flight_) {
    // One simulation at a time in the prototype. The blocked alert still
    // gets decision support: re-issue the advisories from the last result
    // while it is inside its validity window.
    ServeStaleAdvisories("cfd in flight");
    // The declined escalation would otherwise dangle until the expiry
    // sweep and read as a spurious deadline miss.
    ledger_.Close(trace.trace_id, obs::slo::CloseReason::kSkipped);
    return;
  }
  cfd_in_flight_ = true;

  // The decision span covers alert pickup: fetching the boundary frame
  // from UCSB and sizing/submitting the task (the paper's Eqs 1-4).
  const obs::TraceContext decision =
      tracer_.StartSpan("pilot.decision", "pilot", trace);
  tracer_.Annotate(decision, "data_bytes",
                   std::to_string(static_cast<uint64_t>(data_bytes)));

  // The pilot gathers the most recent telemetry from the CSPOT logs at
  // UCSB to parameterize the preprocessing pipeline.
  cspot_->RemoteLatestSeq(
      nodes_.nd, nodes_.ucsb, kTelemetryLog,
      [this, alert_time_s, data_bytes, decision](Result<cspot::SeqNo> latest) {
        if (!latest.ok() || latest.value() == cspot::kNoSeq) {
          AbandonEscalation(decision);
          return;
        }
        cspot_->RemoteGet(
            nodes_.nd, nodes_.ucsb, kTelemetryLog, latest.value(),
            [this, alert_time_s, data_bytes,
             decision](Result<std::vector<uint8_t>> bytes) {
              Result<TelemetryFrame> frame =
                  bytes.ok() ? DeserializeFrame(bytes.value())
                             : Result<TelemetryFrame>(bytes.status());
              if (!frame.ok()) {
                AbandonEscalation(decision);
                return;
              }
              const TelemetryFrame boundary = frame.take();
              tracer_.EndSpan(decision);
              const int64_t submit_us = sim_.Now().micros();
              ledger_.Stamp(decision.trace_id, obs::slo::Stage::kPilotSubmit,
                            submit_us);
              if (site_detector_.SuspectAt(submit_us)) {
                // Bridge the gap with the last result while the (slower)
                // failover path produces a fresh one.
                ServeStaleAdvisories("primary site suspected");
                if (failover_pilot_ != nullptr &&
                    !degraded_.active(resil::DegradedMode::kSiteFailover)) {
                  degraded_.Enter(resil::DegradedMode::kSiteFailover,
                                  submit_us, "primary site suspected");
                  ++metrics_.site_failovers;
                }
              }
              PlacementPilot(submit_us).SubmitTask(
                  data_bytes,
                  [this, alert_time_s, boundary, decision,
                   submit_us](const pilot::TaskResult& task) {
                    metrics_.cfd_wait_s.Add(task.wait_s);
                    metrics_.cfd_runtime_s.Add(task.runtime_s);
                    // The job already ran in virtual time; reconstruct its
                    // span from the pilot's wait/runtime accounting.
                    const int64_t end_us = sim_.Now().micros();
                    const int64_t start_us =
                        submit_us + static_cast<int64_t>(task.wait_s * 1e6);
                    const obs::TraceContext job = tracer_.RecordSpan(
                        "hpc.cfd", "hpc", decision, submit_us, end_us,
                        {{"wait_s", std::to_string(task.wait_s)},
                         {"nodes", std::to_string(task.nodes_used)},
                         {"warm_pilot",
                          task.ran_in_warm_pilot ? "true" : "false"}});
                    tracer_.RecordSpan("cfd.solve", "cfd", job, start_us,
                                       end_us);
                    // Queue wait (pilot_submit -> cfd_start) and solve
                    // (cfd_start -> cfd_end) from the same accounting
                    // that reconstructs the spans above.
                    ledger_.Stamp(decision.trace_id,
                                  obs::slo::Stage::kCfdStart, start_us);
                    ledger_.Stamp(decision.trace_id, obs::slo::Stage::kCfdEnd,
                                  end_us);
                    CfdResult result = ExecuteCfd(alert_time_s, boundary);
                    result.complete_time_s = sim_.Now().seconds();
                    StoreResult(result, job);
                  });
            });
      });
}

void Fabric::AbandonEscalation(const obs::TraceContext& decision) {
  cfd_in_flight_ = false;
  tracer_.EndSpan(decision);
  ServeStaleAdvisories("boundary fetch failed");
  ledger_.Close(decision.trace_id, obs::slo::CloseReason::kFailed);
}

bool Fabric::LaunchServeCfd(
    const serve::FieldConditions& conditions,
    std::function<void(std::vector<uint8_t>, int64_t)> done) {
  // Synthesize the boundary frame the solver needs from the requested
  // conditions (the serve tier's key is exactly the CFD boundary inputs).
  TelemetryFrame boundary;
  boundary.time_s = sim_.Now().seconds();
  boundary.exterior_wind_ms = conditions.wind_ms;
  boundary.exterior_dir_deg = conditions.dir_deg;
  boundary.exterior_temp_c = conditions.temp_c;
  boundary.exterior_humidity_pct = conditions.humidity_pct;
  const double alert_time_s = boundary.time_s;
  const double data_bytes = static_cast<double>(boundary.WireBytes());

  const bool accepted = PlacementPilot(sim_.Now().micros()).TrySubmitTask(
      data_bytes,
      [this, alert_time_s, boundary,
       done = std::move(done)](const pilot::TaskResult&) {
        CfdResult result = ExecuteCfd(alert_time_s, boundary);
        result.complete_time_s = sim_.Now().seconds();
        ++metrics_.serve_cfd_runs;
        done(SerializeResult(result), sim_.Now().micros());
      });
  if (!accepted) ++metrics_.serve_cfd_rejected;
  return accepted;
}

CfdResult Fabric::ExecuteCfd(double alert_time_s,
                             const TelemetryFrame& boundary) {
  CfdResult result;
  result.trigger_time_s = alert_time_s;
  result.boundary_wind_ms = boundary.exterior_wind_ms;
  result.boundary_dir_deg = boundary.exterior_dir_deg;
  result.boundary_temp_c = boundary.exterior_temp_c;
  result.spray_advisory_ok = boundary.exterior_wind_ms < 2.5;

  if (config_.cfd_mode == CfdMode::kFull) {
    // Preprocessing: generate the case file from telemetry and parse it
    // back (the input-deck pipeline the pilot runs before the solver).
    cfd::CfdCase generated;
    generated.mesh = config_.cfd_mesh;
    generated.steps = config_.cfd_steps;
    generated.boundary = cfd::BoundaryFromTelemetry(
        boundary.exterior_wind_ms, boundary.exterior_dir_deg,
        boundary.exterior_temp_c,
        boundary.exterior_temp_c + config_.cups.greenhouse_temp_c);
    Result<cfd::CfdCase> parsed = cfd::ParseCase(cfd::FormatCase(generated));
    XG_INVARIANT(parsed.ok(), "the fabric's own CFD case does not parse: " +
                                  parsed.status().ToString());
    const cfd::CfdCase cfd_case = parsed.ok() ? parsed.take() : generated;
    cfd::Mesh mesh(cfd_case.mesh);
    cfd::Solver solver(mesh, cfd_case.solver);
    solver.Initialize(cfd_case.boundary);
    solver.Run(cfd_case.steps);
    result.interior_mean_speed_ms = solver.InteriorMeanSpeed();
    result.interior_mean_temp_c = solver.InteriorMeanTemperature();
    const auto& mp = cfd_case.mesh;
    for (const auto& st : cups_->stations()) {
      if (!st.interior()) continue;
      // Map facility coordinates into the solver's domain frame.
      const double mx = mp.house_x0 + st.x() / config_.cups.length_m *
                                          (mp.house_x1 - mp.house_x0);
      const double my = mp.house_y0 + st.y() / config_.cups.width_m *
                                          (mp.house_y1 - mp.house_y0);
      StationPrediction p;
      p.station_id = st.id();
      p.wind_speed_ms = solver.SpeedAtPoint(mx, my, 2.0);
      p.temperature_c = solver.TemperatureAtPoint(mx, my, 2.0);
      result.predictions.push_back(p);
    }
  } else {
    // Modeled interior: screen attenuation applied to the boundary wind.
    result.interior_mean_speed_ms =
        boundary.exterior_wind_ms * config_.cups.screen_wind_factor;
    result.interior_mean_temp_c =
        boundary.exterior_temp_c + config_.cups.greenhouse_temp_c;
    for (const auto& st : cups_->stations()) {
      if (!st.interior()) continue;
      StationPrediction p;
      p.station_id = st.id();
      p.wind_speed_ms = result.interior_mean_speed_ms;
      p.temperature_c = result.interior_mean_temp_c;
      result.predictions.push_back(p);
    }
  }
  return result;
}

void Fabric::StoreResult(const CfdResult& result,
                         const obs::TraceContext& trace) {
  ++metrics_.cfd_runs_completed;
  const double response_s = result.complete_time_s - result.trigger_time_s;
  metrics_.alert_to_result_s.Add(response_s);
  metrics_.result_validity_s.Add(
      std::max(0.0, config_.detect_period_s - response_s));
  latest_result_ = result;
  const obs::TraceContext compare =
      tracer_.StartSpan("twin.compare", "twin", trace);
  twin_.UpdatePrediction(result);
  tracer_.EndSpan(compare);
  // End of the full escalated path: the twin holds the fresh prediction,
  // so the reading's journey is complete and its budget settles.
  ledger_.Stamp(trace.trace_id, obs::slo::Stage::kTwinUpdate,
                sim_.Now().micros());
  ledger_.Close(trace.trace_id, obs::slo::CloseReason::kFullPath);
  cfd_in_flight_ = false;
  // A fresh result ends any stale-serving episode.
  degraded_.Exit(resil::DegradedMode::kStaleServe, sim_.Now().micros());
  // Feed the serving tier: an organic alert-driven run is the freshest
  // possible advisory for its boundary conditions, and it resolves any
  // not-yet-launched flight on the same quantized key (that run would be
  // redundant).
  if (advisory_server_ != nullptr) {
    serve::FieldConditions cond;
    cond.wind_ms = result.boundary_wind_ms;
    cond.dir_deg = result.boundary_dir_deg;
    cond.temp_c = result.boundary_temp_c;
    const std::vector<TelemetryFrame> recent = RecentFrames(1);
    cond.humidity_pct =
        recent.empty() ? 50.0 : recent.back().exterior_humidity_pct;
    advisory_server_->Publish(cond, SerializeResult(result),
                              sim_.Now().micros());
  }

  // Decision support: each fresh simulation re-evaluates the intervention
  // advisories against the latest telemetry.
  const std::vector<TelemetryFrame> latest = RecentFrames(1);
  if (!latest.empty()) {
    for (const Advisory& a : advisor_.Advise(result, latest.back())) {
      switch (a.kind) {
        case ActionKind::kSprayWindow: ++metrics_.spray_windows; break;
        case ActionKind::kFrostAlert: ++metrics_.frost_alerts; break;
        case ActionKind::kIrrigate: ++metrics_.irrigation_advisories; break;
        default: break;
      }
      if (on_advisory) on_advisory(a);
    }
  }

  cspot::AppendOptions opts;
  opts.trace = trace;
  cspot_->RemoteAppend(nodes_.nd, nodes_.ucsb, kResultLog,
                       SerializeResult(result), opts,
                       [this, result](Result<cspot::SeqNo> r,
                                      const fault::FaultOutcome&) {
                         if (r.ok() && on_result) on_result(result);
                       });
}

bool Fabric::ConfirmBreachAtRobot(bool via_patrol) {
  const double now_s = sim_.Now().seconds();
  auto breach = cups_->StrongestActiveBreach(now_s);
  if (!breach) return false;
  const double d =
      std::hypot(breach->x_m - robot_->x(), breach->y_m - robot_->y());
  if (d > config_.robot.camera_range_m) return false;
  ++metrics_.breaches_confirmed;
  if (via_patrol) ++metrics_.breaches_found_on_patrol;
  metrics_.breach_detection_delay_s.Add(now_s - breach->time_s);
  cups_->RepairBreachesNear(robot_->x(), robot_->y(),
                            config_.robot.camera_range_m, now_s);
  XG_LOG(kInfo, "fabric") << "breach confirmed at (" << breach->x_m << ","
                          << breach->y_m << ") after "
                          << (now_s - breach->time_s) << "s"
                          << (via_patrol ? " (patrol)" : " (twin)");
  return true;
}

void Fabric::HandleSuspicion(const BreachSuspicion& suspicion) {
  ++metrics_.breach_suspicions;
  if (!config_.dispatch_robot || robot_busy_) return;
  robot_busy_ = true;
  ++metrics_.robot_dispatches;
  auto report = robot_->Surveil(suspicion.x_m, suspicion.y_m);
  if (!report.ok()) {
    robot_busy_ = false;
    return;
  }
  const BreachSuspicion suspicion_copy = suspicion;
  sim_.Schedule(sim::SimTime::Seconds(report.value().total_time_s),
                [this, suspicion_copy]() {
                  robot_busy_ = false;
                  const bool confirmed = ConfirmBreachAtRobot(false);
                  if (on_breach) on_breach(suspicion_copy, confirmed);
                });
}

void Fabric::PatrolNextLeg() {
  if (robot_busy_) return;
  // Perimeter circuit: corners plus edge midpoints, so every stretch of
  // screen wall comes within camera range once per full circuit.
  const double inset = 6.0;
  const double lx = config_.cups.length_m - inset;
  const double wy = config_.cups.width_m - inset;
  const double mx = config_.cups.length_m / 2.0;
  const double my = config_.cups.width_m / 2.0;
  const double waypoints[8][2] = {
      {inset, inset}, {mx, inset},  {lx, inset}, {lx, my},
      {lx, wy},       {mx, wy},     {inset, wy}, {inset, my},
  };
  const auto& wp = waypoints[patrol_waypoint_ % 8];
  ++patrol_waypoint_;
  auto report = robot_->Surveil(wp[0], wp[1]);
  if (!report.ok()) return;
  robot_busy_ = true;
  ++metrics_.patrol_legs;
  sim_.Schedule(sim::SimTime::Seconds(report.value().total_time_s), [this]() {
    robot_busy_ = false;
    ConfirmBreachAtRobot(true);
  });
}

void Fabric::Run(double hours) {
  const sim::SimTime horizon = sim_.Now() + sim::SimTime::Hours(hours);

  if (config_.background_load) {
    scheduler_->StartBackgroundLoad(horizon);
    // Warm the queue: without history the first hour has an empty system.
    if (failover_scheduler_ != nullptr) {
      failover_scheduler_->StartBackgroundLoad(horizon);
    }
  }

  // Canary probes against the primary site: each start is a heartbeat into
  // the phi-accrual detector, so a stalled queue raises suspicion and a
  // moving one fails the fabric back from the batch site.
  if (config_.site_probes) {
    sim::Periodic(sim_, sim::SimTime::Seconds(kSiteProbePeriodS),
                  sim::SimTime::Seconds(kSiteProbePeriodS), [this, horizon]() {
                    if (sim_.Now() > horizon) return false;
                    SubmitSiteProbe();
                    return true;
                  });
  }

  if (config_.robot_patrol) {
    sim::Periodic(sim_, sim::SimTime::Seconds(config_.patrol_period_s / 2.0),
                  sim::SimTime::Seconds(config_.patrol_period_s),
                  [this, horizon]() {
                    if (sim_.Now() > horizon) return false;
                    PatrolNextLeg();
                    return true;
                  });
  }

  // Telemetry every reporting period. A reading published at the horizon
  // instant could not be appended before RunUntil returns, so the last
  // publish is the one strictly before it.
  sim::Periodic(sim_, sim::SimTime::Seconds(config_.telemetry_period_s),
                sim::SimTime::Seconds(config_.telemetry_period_s),
                [this, horizon]() {
                  if (sim_.Now() >= horizon) return false;
                  atmosphere_->Advance(config_.telemetry_period_s);
                  PublishTelemetry();
                  return true;
                });

  // Change detection at UCSB on the 30-minute duty cycle.
  sim::Periodic(sim_, sim::SimTime::Seconds(config_.detect_period_s + 5.0),
                sim::SimTime::Seconds(config_.detect_period_s),
                [this, horizon]() {
                  if (sim_.Now() > horizon) return false;
                  RunDetectionCycle();
                  return true;
                });

  // ND fetches the alert status on the same duty cycle, offset behind the
  // detector.
  auto last_alert = std::make_shared<cspot::SeqNo>(cspot::kNoSeq);
  sim::Periodic(
      sim_, sim::SimTime::Seconds(config_.detect_period_s + 65.0),
      sim::SimTime::Seconds(config_.detect_period_s),
      [this, horizon, last_alert]() {
        if (sim_.Now() > horizon) return false;
        cspot_->RemoteLatestSeq(
            nodes_.nd, nodes_.ucsb, kAlertLog,
            [this, last_alert](Result<cspot::SeqNo> latest) {
              if (!latest.ok() || latest.value() == cspot::kNoSeq) return;
              if (latest.value() <= *last_alert) return;
              const cspot::SeqNo seq = latest.value();
              cspot_->RemoteGet(
                  nodes_.nd, nodes_.ucsb, kAlertLog, seq,
                  [this, last_alert, seq](Result<std::vector<uint8_t>> bytes) {
                    if (!bytes.ok() ||
                        bytes.value().size() < sizeof(AlertRecord)) {
                      return;
                    }
                    *last_alert = seq;
                    AlertRecord alert;
                    std::memcpy(&alert, bytes.value().data(),
                                sizeof(AlertRecord));
                    TriggerCfd(alert.time_s, alert.data_bytes,
                               obs::TraceContext{alert.trace_id,
                                                 alert.span_id});
                  });
            });
        return true;
      });

  sim_.RunUntil(horizon);
  metrics_.pilot_idle_node_seconds = pilot_->idle_node_seconds();
}

}  // namespace xg::core
