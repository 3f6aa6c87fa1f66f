#include "core/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <tuple>

#include "cfd/solver.hpp"
#include "common/contract.hpp"
#include "common/logging.hpp"
#include "resil/policy.hpp"

namespace xg::core {

namespace {
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

// The fabric's counters, registered as xg_<name>_total in this order.
using M = FabricMetrics;
constexpr std::tuple<const char*, const char*, uint64_t M::*> kCounters[] = {
    {"fabric_telemetry_frames_sent", "Telemetry frames published",
     &M::telemetry_frames_sent},
    {"fabric_telemetry_frames_stored",
     "Telemetry frames durably appended at UCSB", &M::telemetry_frames_stored},
    {"fabric_detection_cycles", "Change-detection duty cycles",
     &M::detection_cycles},
    {"fabric_alerts_raised", "Change alerts appended", &M::alerts_raised},
    {"fabric_cfd_runs_completed", "CFD simulations completed",
     &M::cfd_runs_completed},
    {"fabric_breach_suspicions", "Twin-raised breach suspicions",
     &M::breach_suspicions},
    {"fabric_robot_dispatches", "Robot surveillance dispatches",
     &M::robot_dispatches},
    {"fabric_patrol_legs", "Perimeter patrol legs flown", &M::patrol_legs},
    {"fabric_breaches_confirmed", "Breaches confirmed on camera",
     &M::breaches_confirmed},
    {"fabric_spray_windows", "Spray-window advisories", &M::spray_windows},
    {"fabric_frost_alerts", "Frost advisories", &M::frost_alerts},
    {"fabric_irrigation_advisories", "Irrigation advisories",
     &M::irrigation_advisories},
    {"fabric_qc_rejected_readings", "Readings rejected by QC",
     &M::qc_rejected_readings},
    {"fabric_readings_dropped", "Readings lost to station faults",
     &M::readings_dropped},
    {"fabric_serve_cfd_runs", "CFD refreshes launched by the serving tier",
     &M::serve_cfd_runs},
    {"fabric_serve_cfd_rejected",
     "Serve refreshes refused by the bounded pilot queue",
     &M::serve_cfd_rejected},
    {"resil_failovers", "Interactive -> batch pilot failover episodes",
     &M::site_failovers},
    {"resil_stale_served",
     "Advisories served from the last CFD result while degraded",
     &M::stale_advisories_served},
    {"resil_stale_expired",
     "Stale serves refused because the validity window had passed",
     &M::stale_advisories_expired},
    {"resil_sf_buffered", "Telemetry frames ever parked in store-and-forward",
     &M::telemetry_frames_buffered},
    {"resil_sf_drained", "Buffered frames delivered after recovery",
     &M::telemetry_frames_drained},
};
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
      sf_(kStoreForwardCapacity), site_detector_(kSiteDetector) {
  cspot_ = std::make_unique<cspot::Runtime>(sim_, config_.seed);
  nodes_ = cspot::BuildXgTopology(*cspot_);
  telemetry_client_ =
      config_.telemetry_over_5g ? nodes_.unl_5g : nodes_.unl_wired;

  atmosphere_ = std::make_unique<sensors::Atmosphere>(config_.atmosphere,
                                                      config_.seed ^ 0xA7);
  cups_ = std::make_unique<sensors::CupsFacility>(config_.cups,
                                                  config_.seed ^ 0xC4);

  client_id_ = cspot_->wan().Find(telemetry_client_);
  ucsb_id_ = cspot_->wan().Find(nodes_.ucsb);
  nd_id_ = cspot_->wan().Find(nodes_.nd);
  // Logs at the UCSB repository. The topology was built above, so log
  // creation can only fail on a name clash — an internal wiring bug.
  const std::pair<cspot::LogConfig, cspot::LogId*> logs[] = {
      {{"telemetry", 1024, 4096}, &telemetry_log_},
      {{"alerts", 64, 1024}, &alert_log_},
      {{"results", 1024, 1024}, &result_log_}};
  for (const auto& [cfg, id] : logs) {
    auto created = cspot_->CreateLog(nodes_.ucsb, cfg);
    XG_INVARIANT(created.ok(), "fabric log creation failed: " + cfg.name);
    *id = cspot_->ResolveLog(ucsb_id_, cfg.name);
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

  orchard_ = std::make_unique<OrchardGrid>(OrchardGridParams{
      .length_m = config_.cups.length_m, .width_m = config_.cups.width_m});
  robot_ = std::make_unique<Robot>(*orchard_, config_.robot,
                                   config_.cups.length_m / 2.0, 1.0);

  // Observability wiring: spans run on the virtual clock; each layer
  // mirrors its own counters (which remain the source of truth).
  tracer_.set_clock([this] { return sim_.Now().micros(); });
  tracer_.set_enabled(config_.tracing_enabled);
  telemetry_client_label_ = tracer_.Label(telemetry_client_);
  obs::MetricsRegistry* reg = config_.metrics_enabled ? &registry_ : nullptr;
  obs::Tracer* tracer = config_.tracing_enabled ? &tracer_ : nullptr;
  // Each layer also feeds its fault/resilience events into the flight
  // recorder's ring (none while the SLO layer is off).
  obs::slo::FlightRecorder* flight = flight_recorder();
  cspot_->AttachObservability(reg, tracer);
  scheduler_->AttachObservability(reg);
  scheduler_->set_flight_recorder(flight);
  pilot_->AttachObservability(reg);
  pilot_->set_flight_recorder(flight);
  if (reg != nullptr) RegisterFabricMetrics();

  // Resilience: breakers sit on the WAN, the degraded-mode manager keeps
  // the audit trail, and (when a failover site is configured) a second
  // scheduler/pilot pair stands by for interactive -> batch placement.
  cspot_->wan().set_metrics_registry(reg);
  cspot_->wan().EnableCircuitBreakers(resil::BreakerConfig{});
  degraded_.AttachObservability(reg, tracer);
  degraded_.set_flight_recorder(flight);
  if (config_.failover_site.has_value()) {
    failover_scheduler_ = std::make_unique<hpc::BatchScheduler>(
        sim_, *config_.failover_site, config_.seed ^ 0xFA11);
    failover_scheduler_->AttachObservability(reg);
    pilot::PilotConfig fpc = config_.pilot;
    fpc.cores_per_node = config_.failover_site->cores_per_node;
    failover_pilot_ = std::make_unique<pilot::PilotController>(
        sim_, *failover_scheduler_, perf_, fpc, config_.seed ^ 0xFA12);
    failover_scheduler_->set_flight_recorder(flight);
    failover_pilot_->set_flight_recorder(flight);
  }

  // Cross-layer chaos: couple the plan to the transport, the CSPOT node
  // actuators, and the batch scheduler, then arm it on the shared clock.
  if (!config_.fault_plan.empty()) {
    chaos_ = std::make_unique<fault::FaultInjector>(config_.fault_plan);
    chaos_->AttachObservability(reg, tracer);
    chaos_->set_flight_recorder(flight);
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
    // One bounded CFD refresh per flight through the (failover-aware)
    // pilot tier, sized as one station-less telemetry frame; false when
    // the bounded pending queue refuses it.
    advisory_server_->set_launcher(
        [this](const serve::ConditionKey&,
               const serve::FieldConditions& conditions,
               std::function<void(std::vector<uint8_t>, int64_t)> done) {
          const double alert_time_s = sim_.Now().seconds();
          pilot::PilotController& pilot = PlacementPilot(sim_.Now().micros());
          const bool accepted = pilot.TrySubmitTask(
              static_cast<double>(TelemetryFrame::WireBytesFor(0)),
              [this, alert_time_s, conditions,
               done = std::move(done)](const pilot::TaskResult&) {
                ++metrics_.serve_cfd_runs;
                done(SerializeResult(ExecuteCfd(alert_time_s, conditions)),
                     sim_.Now().micros());
              });
          if (!accepted) ++metrics_.serve_cfd_rejected;
          return accepted;
        });
  }
}

void Fabric::RegisterFabricMetrics() {
  for (const auto& [name, help, value] : kCounters) {
    registry_.RegisterCounter(std::string("xg_") + name + "_total", {}, help,
                              &(metrics_.*value));
  }
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

void Fabric::PublishTelemetry() {
  // One trace per reading: the root span covers the reading's whole
  // journey, so its duration is the e2e latency the paper decomposes.
  const obs::TraceContext root = tracer_.StartTrace(obs::SpanName::kTelemetry);
  tracer_.AnnotateLabel(root, "client", telemetry_client_label_);
  // The reporting tick doubles as the expiry sweep (a stalled journey is
  // closed as kExpired — a deadline miss — once its budget runs out), then
  // this reading's budget opens at the emit boundary. With the SLO layer
  // off it opens under id 0, which the ledger ignores, so every later
  // stamp and close is a no-op.
  ledger_.SweepExpired(sim_.Now().micros());
  ledger_.Open(config_.slo.enabled ? root.trace_id : 0, sim_.Now().micros());
  const obs::TraceContext read_span =
      tracer_.StartSpan(obs::SpanName::kSensorRead, root);

  const sensors::AtmoState exterior = atmosphere_->Current();
  const double now_s = sim_.Now().seconds();
  std::vector<sensors::Reading> readings = cups_->MeasureAll(exterior, now_s);

  // Ingest pipeline: fault injection (the physical world) then QC
  // screening (the edge software) before anything enters the telemetry
  // stream the detector and twin consume. Survivors are compacted in
  // place and the vector becomes the frame's station block.
  std::vector<bool> interior;
  interior.reserve(readings.size());
  const auto& stations = cups_->stations();
  size_t kept = 0;
  for (size_t i = 0; i < readings.size(); ++i) {
    auto injected = station_faults_->Apply(readings[i]);
    if (!injected.has_value()) {
      ++metrics_.readings_dropped;
      continue;
    }
    if (qc_.Check(*injected) != sensors::QcVerdict::kPass) {
      ++metrics_.qc_rejected_readings;
      continue;
    }
    readings[kept++] = *injected;
    interior.push_back(stations[i].interior());
  }
  readings.resize(kept);
  TelemetryFrame frame = MakeFrame(std::move(readings), interior, now_s);
  ++metrics_.telemetry_frames_sent;
  tracer_.AnnotateInt(read_span, "stations",
                      static_cast<int64_t>(frame.stations.size()));
  tracer_.EndSpan(read_span);

  const sim::SimTime t0 = sim_.Now();
  std::vector<uint8_t> payload = SerializeFrame(frame);

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
  // Frames embed their capture time, so distinct frames hash apart, and a
  // frame whose append half-succeeded (ack lost) and was then buffered
  // dedups at UCSB when the drain re-ships the same bytes.
  opts.idem_token = cspot::StableToken(payload.data(), payload.size());
  cspot_->RemoteAppend(
      client_id_, ucsb_id_, telemetry_log_, std::move(payload), opts,
      [this, t0, root, frame = std::move(frame)](Result<cspot::SeqNo> r,
                                                 const fault::FaultOutcome&) {
        if (!r.ok()) {
          XG_LOG(kWarn, "fabric")
              << "telemetry append failed: " << r.status().ToString();
          tracer_.Annotate(root, "error", r.status().ToString());
          // Exactly-once across the boundary: the drain re-ships this
          // frame under the same idempotence token, so an append whose
          // ack was lost dedups instead of appending twice.
          if (!degraded_.active(resil::DegradedMode::kStoreForward)) {
            degraded_.Enter(
                resil::DegradedMode::kStoreForward, sim_.Now().micros(),
                "telemetry append failed: " + r.status().ToString());
            ScheduleStoreForwardTick();
          }
          ParkFrame(root, SerializeFrame(frame));
          return;
        }
        // Grandfathered summary metric; the per-stage decomposition of the
        // same interval lives in the deadline ledger.
        const sim::SimTime latency =
            sim_.Now() - t0;  // xglint:allow(stage-stamp)
        metrics_.telemetry_latency_ms.Add(latency.millis());
        if (config_.metrics_enabled) {
          telemetry_latency_hist_.Record(latency.micros());
        }
        OnFrameStored(frame, root, /*drained=*/false);
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
  std::vector<uint8_t> probe = sf_.Front();
  cspot::AppendOptions opts;
  opts.retry.max_attempts = 2;
  opts.retry.attempt_timeout_ms = kTelemetryRetry.attempt_timeout_ms;
  opts.idem_token = cspot::StableToken(probe.data(), probe.size());
  sf_probe_inflight_ = true;
  cspot_->RemoteAppend(
      client_id_, ucsb_id_, telemetry_log_, std::move(probe), opts,
      [this](Result<cspot::SeqNo> r, const fault::FaultOutcome&) {
        sf_probe_inflight_ = false;
        if (!r.ok()) {
          ScheduleStoreForwardTick();
          return;
        }
        Result<TelemetryFrame> frame = DeserializeFrame(sf_.PopFront());
        XG_INVARIANT(frame.ok(), "a frame this fabric buffered does not parse");
        if (frame.ok()) OnFrameStored(frame.value(), {}, /*drained=*/true);
        StoreForwardTick();  // keep draining; exits the mode when empty
      });
}

void Fabric::OnFrameStored(const TelemetryFrame& frame,
                           const obs::TraceContext& root, bool drained) {
  ++metrics_.telemetry_frames_stored;
  if (drained) ++metrics_.telemetry_frames_drained;
  const obs::TraceContext observe =
      tracer_.StartSpan(obs::SpanName::kTwinObserve, root);
  std::optional<BreachSuspicion> suspicion = twin_.Observe(frame);
  tracer_.EndSpan(observe);
  if (!drained) {
    // A live frame heads the detection window: retire the previous head's
    // budget as plain delivery unless the detector escalated it.
    tracer_.EndSpan(root);
    ledger_.CloseIfIdle(last_frame_trace_.trace_id,
                        obs::slo::CloseReason::kDelivered);
    last_frame_trace_ = root;
  }
  // The hook runs before a live frame's suspicion is handled and after a
  // drained one's.
  if (suspicion && drained) HandleSuspicion(std::move(*suspicion));
  if (on_frame_stored) on_frame_stored(sim_.Now().seconds(), drained);
  if (suspicion && !drained) HandleSuspicion(std::move(*suspicion));
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
  degraded_.Enter(resil::DegradedMode::kStaleServe, sim_.Now().micros(),
                  reason);
  const std::optional<TelemetryFrame> latest = LatestFrame();
  if (latest.has_value()) {
    EmitAdvisories(*latest_result_, *latest,
                   static_cast<double>(age_us) * 1e-6);
  }
}

void Fabric::EmitAdvisories(const CfdResult& result,
                            const TelemetryFrame& latest,
                            std::optional<double> stale_age_s) {
  char age[48] = "";
  if (stale_age_s.has_value()) {
    std::snprintf(age, sizeof(age), " [stale result, age %.0fs]",
                  *stale_age_s);
  }
  for (Advisory& a : advisor_.Advise(result, latest)) {
    if (stale_age_s.has_value()) {
      a.stale = true;
      a.reason += age;
      ++metrics_.stale_advisories_served;
    } else if (a.kind == ActionKind::kSprayWindow) {
      ++metrics_.spray_windows;
    } else if (a.kind == ActionKind::kFrostAlert) {
      ++metrics_.frost_alerts;
    } else if (a.kind == ActionKind::kIrrigate) {
      ++metrics_.irrigation_advisories;
    }
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
  const bool failover =
      failover_pilot_ != nullptr && site_detector_.SuspectAt(now_us);
  return failover ? *failover_pilot_ : *pilot_;
}

std::optional<TelemetryFrame> Fabric::LatestFrame() const {
  std::optional<TelemetryFrame> latest;
  TelemetryLog().VisitTail(1, [&latest](std::span<const uint8_t> bytes) {
    Result<TelemetryFrame> f = DeserializeFrame(bytes);
    if (f.ok()) latest = f.take();
  });
  return latest;
}

void Fabric::FetchLatest(cspot::LogId log, const cspot::SeqNo* after,
                         FetchCallback done) {
  // Shared: an injected duplicate reply runs each read's completion twice.
  auto shared = std::make_shared<FetchCallback>(std::move(done));
  cspot_->RemoteLatestSeq(
      nd_id_, ucsb_id_, log,
      [this, log, after, shared](Result<cspot::SeqNo> latest) {
        if (!latest.ok() ||
            latest.value() <= (after != nullptr ? *after : cspot::kNoSeq)) {
          (*shared)(cspot::kNoSeq,
                    latest.ok() ? Status(ErrorCode::kNotFound, "none newer")
                                : latest.status());
          return;
        }
        const cspot::SeqNo seq = latest.value();
        cspot_->RemoteGet(nd_id_, ucsb_id_, log, seq,
                          [seq, shared](Result<std::vector<uint8_t>> bytes) {
                            (*shared)(seq, std::move(bytes));
                          });
      });
}

void Fabric::RunDetectionCycle() {
  ++metrics_.detection_cycles;
  // The window evaluation joins the latest stored frame's trace, so a
  // reading that trips the detector carries one trace end to end.
  const obs::TraceContext window =
      tracer_.StartSpan(obs::SpanName::kLaminarWindow, last_frame_trace_);
  // The detector reads two fields per frame straight from the stored
  // bytes; a frame that does not decode is skipped. One struct, so the
  // visitor captures a single reference and fits std::function's buffer.
  const size_t need = 2 * config_.detector.window;
  struct {
    std::vector<double> wind, temp;
    double data_bytes = 0.0;
  } w;
  w.wind.reserve(need);
  w.temp.reserve(need);
  TelemetryLog().VisitTail(need, [&w](std::span<const uint8_t> bytes) {
    const std::optional<FrameSummary> f = SummarizeFrame(bytes);
    if (!f.has_value()) return;
    w.wind.push_back(f->exterior_wind_ms);
    w.temp.push_back(f->exterior_temp_c);
    w.data_bytes +=
        static_cast<double>(TelemetryFrame::WireBytesFor(f->stations));
  });

  bool changed = false;
  if (w.wind.size() >= need) {
    const laminar::ChangeDecision dw = detector_.Evaluate(w.wind);
    const laminar::ChangeDecision dt = detector_.Evaluate(w.temp);
    changed = dw.changed || dt.changed;
    if (changed && config_.slo.enabled) {
      flight_.Note("laminar", dw.changed ? "wind " + dw.Describe()
                                          : "temp " + dt.Describe());
    }
  }
  // Bootstrap: the very first cycle with data runs a calibration
  // simulation even without a statistically detectable change.
  if (!changed && metrics_.cfd_runs_completed == 0 && !cfd_in_flight_ &&
      !w.wind.empty()) {
    changed = true;
  }
  tracer_.AnnotateInt(window, "frames", static_cast<int64_t>(w.wind.size()));
  tracer_.Annotate(window, "changed", changed ? "true" : "false");
  if (!changed) {
    tracer_.EndSpan(window);
    return;
  }

  // The alert record carries the trace context through the CSPOT log to
  // the ND-side poller (context propagation through persisted state).
  AlertRecord alert{sim_.Now().seconds(), w.data_bytes, window.trace_id,
                    window.span_id};
  std::vector<uint8_t> bytes(sizeof(AlertRecord));
  std::memcpy(bytes.data(), &alert, sizeof(AlertRecord));
  auto r = cspot_->LocalAppend(ucsb_id_, alert_log_, bytes);
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
      tracer_.StartSpan(obs::SpanName::kPilotDecision, trace);
  tracer_.AnnotateInt(decision, "data_bytes",
                      static_cast<int64_t>(data_bytes));

  // The pilot gathers the most recent telemetry from the CSPOT logs at
  // UCSB to parameterize the preprocessing pipeline.
  FetchLatest(
      telemetry_log_, nullptr,
      [this, alert_time_s, data_bytes, decision](
          cspot::SeqNo, Result<std::vector<uint8_t>> bytes) {
        Result<TelemetryFrame> frame =
            bytes.ok() ? DeserializeFrame(bytes.value())
                       : Result<TelemetryFrame>(bytes.status());
        tracer_.EndSpan(decision);
        if (!frame.ok()) {
          cfd_in_flight_ = false;
          ServeStaleAdvisories("boundary fetch failed");
          ledger_.Close(decision.trace_id, obs::slo::CloseReason::kFailed);
          return;
        }
        const TelemetryFrame& f = frame.value();
        const int64_t submit_us = sim_.Now().micros();
        ledger_.Stamp(decision.trace_id, obs::slo::Stage::kPilotSubmit,
                      submit_us);
        if (site_detector_.SuspectAt(submit_us)) {
          // Bridge the gap with the last result while the (slower)
          // failover path produces a fresh one.
          ServeStaleAdvisories("primary site suspected");
          if (failover_pilot_ != nullptr &&
              !degraded_.active(resil::DegradedMode::kSiteFailover)) {
            degraded_.Enter(resil::DegradedMode::kSiteFailover, submit_us,
                            "primary site suspected");
            ++metrics_.site_failovers;
          }
        }
        PlacementPilot(submit_us).SubmitTask(
            data_bytes,
            [this, alert_time_s, decision, submit_us,
             boundary = serve::FieldConditions{
                 f.exterior_wind_ms, f.exterior_dir_deg, f.exterior_temp_c,
                 f.exterior_humidity_pct}](const pilot::TaskResult& task) {
              metrics_.cfd_wait_s.Add(task.wait_s);
              metrics_.cfd_runtime_s.Add(task.runtime_s);
              // The job already ran in virtual time; reconstruct its span
              // from the pilot's wait/runtime accounting.
              const int64_t end_us = sim_.Now().micros();
              const int64_t start_us =
                  submit_us + static_cast<int64_t>(task.wait_s * 1e6);
              const obs::TraceContext job = tracer_.RecordSpan(
                  obs::SpanName::kHpcCfd, decision, submit_us, end_us);
              tracer_.AnnotateDouble(job, "wait_s", task.wait_s);
              tracer_.AnnotateInt(job, "nodes", task.nodes_used);
              tracer_.Annotate(job, "warm_pilot",
                               task.ran_in_warm_pilot ? "true" : "false");
              tracer_.RecordSpan(obs::SpanName::kCfdSolve, job, start_us,
                                 end_us);
              // Queue wait (pilot_submit -> cfd_start) and solve
              // (cfd_start -> cfd_end) from the same accounting that
              // reconstructs the spans above.
              ledger_.Stamp(decision.trace_id, obs::slo::Stage::kCfdStart,
                            start_us);
              ledger_.Stamp(decision.trace_id, obs::slo::Stage::kCfdEnd,
                            end_us);
              StoreResult(ExecuteCfd(alert_time_s, boundary), job);
            });
      });
}

CfdResult Fabric::ExecuteCfd(double alert_time_s,
                             const serve::FieldConditions& boundary) {
  CfdResult result;
  result.trigger_time_s = alert_time_s;
  result.boundary_wind_ms = boundary.wind_ms;
  result.boundary_dir_deg = boundary.dir_deg;
  result.boundary_temp_c = boundary.temp_c;
  result.spray_advisory_ok = boundary.wind_ms < 2.5;

  // kFull runs the solver; kModeled attenuates the wind by the screen.
  cfd::CfdCase cfd_case;
  std::optional<cfd::Mesh> mesh;
  std::optional<cfd::Solver> solver;
  if (config_.cfd_mode == CfdMode::kFull) {
    // Preprocessing: generate the case file from telemetry and parse it
    // back (the input-deck pipeline the pilot runs before the solver).
    cfd_case.mesh = config_.cfd_mesh;
    cfd_case.steps = config_.cfd_steps;
    cfd_case.boundary = cfd::BoundaryFromTelemetry(
        boundary.wind_ms, boundary.dir_deg, boundary.temp_c,
        boundary.temp_c + config_.cups.greenhouse_temp_c);
    Result<cfd::CfdCase> parsed = cfd::ParseCase(cfd::FormatCase(cfd_case));
    XG_INVARIANT(parsed.ok(), "the fabric's own CFD case does not parse: " +
                                  parsed.status().ToString());
    if (parsed.ok()) cfd_case = parsed.take();
    mesh.emplace(cfd_case.mesh);
    solver.emplace(*mesh, cfd_case.solver);
    solver->Initialize(cfd_case.boundary);
    solver->Run(cfd_case.steps);
    result.interior_mean_speed_ms = solver->InteriorMeanSpeed();
    result.interior_mean_temp_c = solver->InteriorMeanTemperature();
  } else {
    result.interior_mean_speed_ms =
        boundary.wind_ms * config_.cups.screen_wind_factor;
    result.interior_mean_temp_c =
        boundary.temp_c + config_.cups.greenhouse_temp_c;
  }
  const auto& mp = cfd_case.mesh;
  result.predictions.reserve(cups_->stations().size());
  for (const auto& st : cups_->stations()) {
    if (!st.interior()) continue;
    StationPrediction& p = result.predictions.emplace_back();
    p.station_id = st.id();
    p.wind_speed_ms = result.interior_mean_speed_ms;
    p.temperature_c = result.interior_mean_temp_c;
    if (solver.has_value()) {
      // Map facility coordinates into the solver's domain frame.
      const double mx = mp.house_x0 + st.x() / config_.cups.length_m *
                                          (mp.house_x1 - mp.house_x0);
      const double my = mp.house_y0 + st.y() / config_.cups.width_m *
                                          (mp.house_y1 - mp.house_y0);
      p.wind_speed_ms = solver->SpeedAtPoint(mx, my, 2.0);
      p.temperature_c = solver->TemperatureAtPoint(mx, my, 2.0);
    }
  }
  result.complete_time_s = sim_.Now().seconds();
  return result;
}

void Fabric::StoreResult(CfdResult result, const obs::TraceContext& trace) {
  ++metrics_.cfd_runs_completed;
  const double response_s = result.complete_time_s - result.trigger_time_s;
  metrics_.alert_to_result_s.Add(response_s);
  metrics_.result_validity_s.Add(
      std::max(0.0, config_.detect_period_s - response_s));
  latest_result_ = result;
  const obs::TraceContext compare =
      tracer_.StartSpan(obs::SpanName::kTwinCompare, trace);
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
  const std::optional<TelemetryFrame> latest = LatestFrame();
  // Feed the serving tier: an organic alert-driven run is the freshest
  // possible advisory for its boundary conditions, and it resolves any
  // not-yet-launched flight on the same quantized key (that run would be
  // redundant).
  if (advisory_server_ != nullptr) {
    const serve::FieldConditions cond{
        result.boundary_wind_ms, result.boundary_dir_deg,
        result.boundary_temp_c,
        latest.has_value() ? latest->exterior_humidity_pct : 50.0};
    advisory_server_->Publish(cond, SerializeResult(result),
                              sim_.Now().micros());
  }
  // Decision support: each fresh simulation re-evaluates the intervention
  // advisories against the latest telemetry.
  if (latest.has_value()) EmitAdvisories(result, *latest, std::nullopt);

  cspot::AppendOptions opts;
  opts.trace = trace;
  std::vector<uint8_t> payload = SerializeResult(result);
  cspot_->RemoteAppend(nd_id_, ucsb_id_, result_log_, std::move(payload),
                       opts,
                       [this, result = std::move(result)](
                           Result<cspot::SeqNo> r, const fault::FaultOutcome&) {
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

void Fabric::HandleSuspicion(BreachSuspicion suspicion) {
  ++metrics_.breach_suspicions;
  if (!config_.dispatch_robot || robot_busy_) return;
  ++metrics_.robot_dispatches;
  const double x = suspicion.x_m, y = suspicion.y_m;
  DispatchRobot(x, y, [this, suspicion = std::move(suspicion)] {
    const bool confirmed = ConfirmBreachAtRobot(false);
    if (on_breach) on_breach(suspicion, confirmed);
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
  if (DispatchRobot(wp[0], wp[1], [this] { ConfirmBreachAtRobot(true); })) {
    ++metrics_.patrol_legs;
  }
}

bool Fabric::DispatchRobot(double x_m, double y_m,
                           std::function<void()> arrived) {
  auto report = robot_->Surveil(x_m, y_m);
  if (!report.ok()) return false;
  robot_busy_ = true;
  sim_.Schedule(sim::SimTime::Seconds(report.value().total_time_s),
                [this, arrived = std::move(arrived)] {
                  robot_busy_ = false;
                  arrived();
                });
  return true;
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

  // A duty cycle that stops once the clock is past the horizon.
  auto every = [this, horizon](double first_s, double period_s,
                               std::function<void()> step) {
    sim::Periodic(sim_, sim::SimTime::Seconds(first_s),
                  sim::SimTime::Seconds(period_s),
                  [this, horizon, step = std::move(step)] {
                    if (sim_.Now() > horizon) return false;
                    step();
                    return true;
                  });
  };
  // Canary probes against the primary site: each start is a heartbeat into
  // the phi-accrual detector, so a stalled queue raises suspicion and a
  // moving one fails the fabric back from the batch site.
  if (config_.site_probes) {
    every(kSiteProbePeriodS, kSiteProbePeriodS, [this] { SubmitSiteProbe(); });
  }
  if (config_.robot_patrol) {
    every(config_.patrol_period_s / 2.0, config_.patrol_period_s,
          [this] { PatrolNextLeg(); });
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
  every(config_.detect_period_s + 5.0, config_.detect_period_s,
        [this] { RunDetectionCycle(); });

  // ND fetches the alert status on the same duty cycle, offset behind the
  // detector.
  every(config_.detect_period_s + 65.0, config_.detect_period_s, [this] {
    FetchLatest(alert_log_, &last_alert_seq_,
                [this](cspot::SeqNo seq, Result<std::vector<uint8_t>> bytes) {
                  if (!bytes.ok() ||
                      bytes.value().size() < sizeof(AlertRecord)) {
                    return;
                  }
                  last_alert_seq_ = seq;
                  AlertRecord alert;
                  std::memcpy(&alert, bytes.value().data(),
                              sizeof(AlertRecord));
                  TriggerCfd(alert.time_s, alert.data_bytes,
                             obs::TraceContext{alert.trace_id, alert.span_id});
                });
  });

  sim_.RunUntil(horizon);
  metrics_.pilot_idle_node_seconds = pilot_->idle_node_seconds();
}

}  // namespace xg::core
