// xgtop: terminal dashboard over a running xGFabric simulation.
//
// Drives the full sensor -> 5G -> CSPOT -> HPC -> CFD -> twin scenario on
// the virtual clock and renders, at a fixed virtual-time cadence, the
// fabric's SLO observability surface:
//
//   - per-stage deadline-budget histograms (p50/p90/p99/p99.9/max + the
//     budget share of end-to-end latency each stage is responsible for),
//   - the worst in-flight readings (least remaining budget first),
//   - closed-journey accounting (delivered / full-path / misses / near),
//   - degraded-mode + circuit-breaker state and store-and-forward depth,
//   - the flight recorder's fault / resilience event tail.
//
// Because everything runs in virtual time, the "live" view is a
// deterministic replay: the same seed renders byte-identical frames. Use
// --chaos to script a mid-morning 5G outage plus an HPC queue stall and
// watch the panels react; use --snapshot to skip rendering and emit one
// machine-readable JSON document at the end of the run instead.
//
// Usage:
//   xgtop [--hours H] [--seed N] [--refresh S] [--chaos] [--no-clear]
//   xgtop --snapshot [--out FILE] [--hours H] [--seed N] [--chaos]
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "core/fabric.hpp"
#include "fault/plan.hpp"
#include "serve/loadgen.hpp"

using namespace xg;

namespace {

struct Options {
  double hours = 24.0;
  uint64_t seed = 42;
  double refresh_s = 1800.0;
  double serve_requesters = 0.0;  ///< >0 enables the advisory serving tier
  bool chaos = false;
  bool snapshot = false;
  bool clear = true;
  std::string out_path;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: xgtop [--hours H] [--seed N] [--refresh S] [--serve R]\n"
      "             [--chaos] [--no-clear] [--snapshot] [--out FILE]\n"
      "  --hours H    simulated hours to run (default 24)\n"
      "  --seed N     scenario seed (default 42)\n"
      "  --refresh S  dashboard cadence in simulated seconds (default 1800)\n"
      "  --serve R    enable the advisory serving tier under a seeded\n"
      "               open-loop load of R requesters (default 0 = off)\n"
      "  --chaos      script a 5G outage + HPC queue stall into the day\n"
      "  --no-clear   no ANSI clear between frames (pipe-friendly)\n"
      "  --snapshot   emit one JSON document at the end instead of frames\n"
      "  --out FILE   write the snapshot JSON to FILE (default stdout)\n");
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](double& v) {
      if (i + 1 >= argc) return false;
      v = std::atof(argv[++i]);
      return true;
    };
    if (a == "--hours") {
      if (!next(opt.hours)) return false;
    } else if (a == "--seed") {
      if (i + 1 >= argc) return false;
      opt.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (a == "--refresh") {
      if (!next(opt.refresh_s)) return false;
    } else if (a == "--serve") {
      if (!next(opt.serve_requesters)) return false;
    } else if (a == "--chaos") {
      opt.chaos = true;
    } else if (a == "--no-clear") {
      opt.clear = false;
    } else if (a == "--snapshot") {
      opt.snapshot = true;
    } else if (a == "--out") {
      if (i + 1 >= argc) return false;
      opt.out_path = argv[++i];
    } else {
      return false;
    }
  }
  return opt.hours > 0.0 && opt.refresh_s > 0.0 && opt.serve_requesters >= 0.0;
}

std::string ClockHms(double t_s) {
  const int64_t t = static_cast<int64_t>(t_s);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02lld:%02lld:%02lld",
                static_cast<long long>(t / 3600),
                static_cast<long long>((t / 60) % 60),
                static_cast<long long>(t % 60));
  return buf;
}

/// The standard scenario day (mirrors bench_e2e): two weather fronts and
/// a midday screen breach, so alerts and CFD runs actually happen.
void ScheduleScenario(core::Fabric& fabric) {
  sensors::FrontEvent morning;
  morning.start_s = 8.0 * 3600;
  morning.ramp_s = 1800.0;
  morning.d_wind_ms = 2.0;
  morning.d_temp_c = 1.5;
  fabric.ScheduleFront(morning);
  sensors::FrontEvent evening;
  evening.start_s = 18.0 * 3600;
  evening.ramp_s = 2400.0;
  evening.d_wind_ms = -1.5;
  evening.d_temp_c = -3.0;
  fabric.ScheduleFront(evening);
  sensors::BreachEvent breach;
  breach.time_s = 13.0 * 3600;
  breach.x_m = 30.0;
  breach.y_m = 90.0;
  breach.radius_m = 25.0;
  fabric.ScheduleBreach(breach);
}

void RenderFrame(core::Fabric& fabric, const Options& opt) {
  const double now_s = fabric.simulation().Now().seconds();
  const int64_t now_us = fabric.simulation().Now().micros();
  const core::FabricMetrics& m = fabric.metrics();
  std::string out;
  out.reserve(4096);
  if (opt.clear) out += "\033[2J\033[H";

  char line[192];
  std::snprintf(line, sizeof(line),
                "xgtop  t=%s  seed=%llu  frames=%llu/%llu  alerts=%llu  "
                "cfd=%llu\n",
                ClockHms(now_s).c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(m.telemetry_frames_stored),
                static_cast<unsigned long long>(m.telemetry_frames_sent),
                static_cast<unsigned long long>(m.alerts_raised),
                static_cast<unsigned long long>(m.cfd_runs_completed));
  out += line;

  obs::slo::LatencyLedger* ledger = fabric.slo_ledger();
  if (ledger == nullptr) {
    out += "SLO accounting disabled (config.slo.enabled = false)\n";
    std::fputs(out.c_str(), stdout);
    return;
  }

  out += "\n-- deadline budgets (per stage, completed journeys) --\n";
  out += ledger->FormatSummary();

  std::snprintf(line, sizeof(line),
                "\n-- in flight: %zu open, %llu closed (%llu missed, "
                "%llu near) --\n",
                ledger->in_flight(),
                static_cast<unsigned long long>(ledger->closed_total()),
                static_cast<unsigned long long>(ledger->missed_total()),
                static_cast<unsigned long long>(ledger->near_miss_total()));
  out += line;
  for (const auto& v : ledger->WorstInFlight(5, now_us)) {
    std::snprintf(line, sizeof(line),
                  "  trace=%-8llu at=%-13s consumed=%9.3fs remaining=%9.3fs\n",
                  static_cast<unsigned long long>(v.trace_id),
                  obs::slo::StageName(v.last_stage),
                  static_cast<double>(v.consumed_us) / 1e6,
                  static_cast<double>(v.remaining_us) / 1e6);
    out += line;
  }

  out += "\n-- degraded / breaker state --\n";
  const resil::DegradedModeManager& degraded = fabric.degraded_modes();
  bool any = false;
  for (int i = 0; i < resil::kDegradedModeCount; ++i) {
    const auto mode = static_cast<resil::DegradedMode>(i);
    if (!degraded.active(mode)) continue;
    any = true;
    std::snprintf(line, sizeof(line), "  ACTIVE %s (%.0fs)\n",
                  resil::DegradedModeName(mode),
                  degraded.TotalTimeS(mode, now_us));
    out += line;
  }
  const resil::StoreAndForward& sf = fabric.store_forward();
  if (sf.size() > 0) {
    any = true;
    std::snprintf(line, sizeof(line), "  store-and-forward depth %zu/%zu\n",
                  sf.size(), sf.capacity());
    out += line;
  }
  for (const obs::MetricSample& s : fabric.registry().Snapshot()) {
    if (s.name.rfind("xg_resil_breaker_state", 0) != 0 || s.value == 0.0) {
      continue;
    }
    any = true;
    std::snprintf(line, sizeof(line), "  breaker %s state=%.0f\n",
                  s.labels.empty() ? "?" : s.labels.front().second.c_str(),
                  s.value);
    out += line;
  }
  if (!any) out += "  nominal (no degraded modes, breakers closed)\n";

  serve::AdvisoryServer* srv = fabric.advisory_server();
  if (srv != nullptr) {
    const serve::AdvisoryServer::Counters& c = srv->counters();
    const serve::AdvisoryCache& cache = srv->cache();
    const serve::AdmissionController& adm = srv->admission();
    const serve::OverloadGovernor& gov = srv->governor();
    out += "\n-- advisory serve --\n";
    std::snprintf(line, sizeof(line),
                  "  req=%llu coalesced=%llu hit fresh/stale=%llu/%llu "
                  "shed=%llu (q=%llu dl=%llu soj=%llu) late=%llu\n",
                  static_cast<unsigned long long>(c.requests),
                  static_cast<unsigned long long>(c.coalesced),
                  static_cast<unsigned long long>(cache.hits_fresh()),
                  static_cast<unsigned long long>(cache.hits_stale()),
                  static_cast<unsigned long long>(adm.shed_total()),
                  static_cast<unsigned long long>(adm.shed_queue_full()),
                  static_cast<unsigned long long>(adm.shed_deadline()),
                  static_cast<unsigned long long>(adm.shed_sojourn()),
                  static_cast<unsigned long long>(c.late_responses));
    out += line;
    std::snprintf(
        line, sizeof(line),
        "  flights launched=%llu done=%llu absorbed=%llu failed=%llu "
        "in_air=%zu pending=%zu\n",
        static_cast<unsigned long long>(c.flights_launched),
        static_cast<unsigned long long>(c.flights_completed),
        static_cast<unsigned long long>(c.flights_absorbed),
        static_cast<unsigned long long>(c.flights_failed),
        srv->flights_in_air(), srv->flights_pending());
    out += line;
    std::snprintf(line, sizeof(line),
                  "  overload %s  transitions=%llu storms=%llu  "
                  "serve p99=%.3fms\n",
                  gov.overloaded() ? "ACTIVE" : "clear",
                  static_cast<unsigned long long>(gov.transitions()),
                  static_cast<unsigned long long>(gov.storms()),
                  static_cast<double>(srv->latency_hist().Percentile(99.0)) /
                      1e3);
    out += line;
  }

  obs::slo::FlightRecorder* flight = fabric.flight_recorder();
  if (flight != nullptr) {
    std::snprintf(line, sizeof(line),
                  "\n-- fault / resilience events (%zu kept, %llu dumps) --\n",
                  flight->events().size(),
                  static_cast<unsigned long long>(flight->dumps_taken()));
    out += line;
    const auto& events = flight->events();
    const size_t tail = events.size() > 8 ? events.size() - 8 : 0;
    for (size_t i = tail; i < events.size(); ++i) {
      std::snprintf(line, sizeof(line), "  [%s] %-6s %s\n",
                    ClockHms(static_cast<double>(events[i].at_us) / 1e6).c_str(),
                    events[i].source.c_str(), events[i].detail.c_str());
      out += line;
    }
    if (events.empty()) out += "  (none)\n";
  }
  std::fputs(out.c_str(), stdout);
}

void StageJson(bench::JsonWriter& jw,
               const obs::slo::LatencyLedger::StageSummary& s,
               bool with_name) {
  jw.BeginObject();
  if (with_name) jw.Field("stage", obs::slo::StageName(s.stage));
  jw.Field("count", s.count);
  jw.Field("p50_ms", s.p50_ms);
  jw.Field("p90_ms", s.p90_ms);
  jw.Field("p99_ms", s.p99_ms);
  jw.Field("p999_ms", s.p999_ms);
  jw.Field("max_ms", s.max_ms);
  jw.Field("mean_ms", s.mean_ms);
  jw.Field("budget_share", s.share);
  jw.EndObject();
}

int WriteSnapshot(core::Fabric& fabric, const Options& opt, std::ostream& os) {
  obs::slo::LatencyLedger* ledger = fabric.slo_ledger();
  obs::slo::FlightRecorder* flight = fabric.flight_recorder();
  if (ledger == nullptr) {
    std::cerr << "xgtop: SLO accounting disabled; nothing to snapshot\n";
    return 1;
  }
  const core::FabricMetrics& m = fabric.metrics();
  const obs::slo::LatencyLedger::Summary sum = ledger->Summarize();

  bench::JsonWriter jw(os);
  jw.BeginObject();
  jw.Field("schema", "xg-xgtop-snapshot-v1");
  jw.Field("seed", opt.seed);
  jw.Field("hours", opt.hours);
  jw.Field("chaos", opt.chaos);
  jw.Field("virtual_time_s", fabric.simulation().Now().seconds());

  jw.Key("fabric");
  jw.BeginObject();
  jw.Field("telemetry_frames_sent", m.telemetry_frames_sent);
  jw.Field("telemetry_frames_stored", m.telemetry_frames_stored);
  jw.Field("detection_cycles", m.detection_cycles);
  jw.Field("alerts_raised", m.alerts_raised);
  jw.Field("cfd_runs_completed", m.cfd_runs_completed);
  jw.EndObject();

  jw.Key("slo");
  jw.BeginObject();
  jw.Field("completed", sum.completed);
  jw.Field("full_path", sum.full_path);
  jw.Field("deadline_misses", sum.misses);
  jw.Field("near_misses", sum.near_misses);
  jw.Field("dominant_stage", obs::slo::StageName(sum.dominant_stage));
  jw.Key("e2e");
  StageJson(jw, sum.e2e, /*with_name=*/false);
  jw.Key("stages");
  jw.BeginArray();
  for (const auto& s : sum.stages) StageJson(jw, s, /*with_name=*/true);
  jw.EndArray();
  jw.EndObject();

  jw.Key("ledger");
  jw.BeginObject();
  jw.Field("in_flight", static_cast<uint64_t>(ledger->in_flight()));
  jw.Field("opened_total", ledger->opened_total());
  jw.Field("closed_total", ledger->closed_total());
  jw.Field("missed_total", ledger->missed_total());
  jw.Field("near_miss_total", ledger->near_miss_total());
  jw.Key("closed_by_reason");
  jw.BeginObject();
  for (int r = 0; r < obs::slo::kCloseReasonCount; ++r) {
    const auto reason = static_cast<obs::slo::CloseReason>(r);
    jw.Field(obs::slo::CloseReasonName(reason),
             ledger->closed_by_reason(reason));
  }
  jw.EndObject();
  jw.EndObject();

  jw.Key("degraded");
  jw.BeginObject();
  const resil::DegradedModeManager& degraded = fabric.degraded_modes();
  const int64_t now_us = fabric.simulation().Now().micros();
  for (int i = 0; i < resil::kDegradedModeCount; ++i) {
    const auto mode = static_cast<resil::DegradedMode>(i);
    jw.Key(resil::DegradedModeName(mode));
    jw.BeginObject();
    jw.Field("active", degraded.active(mode));
    jw.Field("entries", degraded.entries(mode));
    jw.Field("total_time_s", degraded.TotalTimeS(mode, now_us));
    jw.EndObject();
  }
  jw.EndObject();

  serve::AdvisoryServer* srv = fabric.advisory_server();
  if (srv != nullptr) {
    const serve::AdvisoryServer::Counters& c = srv->counters();
    const serve::AdvisoryCache& cache = srv->cache();
    const serve::AdmissionController& adm = srv->admission();
    const serve::OverloadGovernor& gov = srv->governor();
    jw.Key("serve");
    jw.BeginObject();
    jw.Field("requests", c.requests);
    jw.Key("responses");
    jw.BeginObject();
    for (int s = 0; s < serve::kServeStatusCount; ++s) {
      jw.Field(serve::ServeStatusName(static_cast<serve::ServeStatus>(s)),
               c.responses[s]);
    }
    jw.EndObject();
    jw.Field("coalesced", c.coalesced);
    jw.Field("cache_hits_fresh", cache.hits_fresh());
    jw.Field("cache_hits_stale", cache.hits_stale());
    jw.Field("cache_misses", cache.misses());
    jw.Field("shed_total", adm.shed_total());
    jw.Field("shed_queue_full", adm.shed_queue_full());
    jw.Field("shed_deadline", adm.shed_deadline());
    jw.Field("shed_sojourn", adm.shed_sojourn());
    jw.Field("late_responses", c.late_responses);
    jw.Field("cfd_launched", c.flights_launched);
    jw.Field("cfd_completed", c.flights_completed);
    jw.Field("cfd_absorbed", c.flights_absorbed);
    jw.Field("cfd_failed", c.flights_failed);
    jw.Field("overloaded", gov.overloaded());
    jw.Field("overload_transitions", gov.transitions());
    jw.Field("overload_storms", gov.storms());
    jw.Field("latency_p50_ms",
             static_cast<double>(srv->latency_hist().Percentile(50.0)) / 1e3);
    jw.Field("latency_p99_ms",
             static_cast<double>(srv->latency_hist().Percentile(99.0)) / 1e3);
    jw.EndObject();
  }

  jw.Key("flight");
  jw.BeginObject();
  jw.Field("dumps_taken", flight != nullptr ? flight->dumps_taken() : 0);
  jw.Field("files_written", flight != nullptr ? flight->files_written() : 0);
  jw.Key("events");
  jw.BeginArray();
  if (flight != nullptr) {
    for (const obs::slo::FlightEvent& e : flight->events()) {
      jw.BeginObject();
      jw.Field("at_s", static_cast<double>(e.at_us) / 1e6);
      jw.Field("source", e.source);
      jw.Field("detail", e.detail);
      jw.EndObject();
    }
  }
  jw.EndArray();
  jw.EndObject();

  jw.EndObject();
  os << "\n";
  if (!os || !jw.Complete()) {
    std::cerr << "xgtop: snapshot write failed\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, opt)) {
    Usage();
    return 2;
  }

  core::FabricConfig cfg;
  cfg.seed = opt.seed;
  cfg.site_probes = true;
  cfg.serve.enabled = opt.serve_requesters > 0.0;
  if (opt.chaos) {
    cfg.fault_plan = fault::FaultPlan(opt.seed);
    // Mid-morning access outage (store-and-forward territory) and an
    // afternoon queue stall at the HPC site (pilot/CFD territory).
    cfg.fault_plan.Partition("unl", "unl-gw", 9.0 * 3600, 600.0);
    cfg.fault_plan.QueueStall(cfg.site.name, 13.5 * 3600, 1200.0);
  }
  core::Fabric fabric(cfg);
  ScheduleScenario(fabric);

  // Optional serving-tier load: a seeded open-loop requester population
  // polling the advisory endpoint for the whole run.
  std::unique_ptr<serve::LoadGenerator> loadgen;
  if (opt.serve_requesters > 0.0) {
    serve::LoadGenConfig lg;
    lg.seed = opt.seed;
    lg.requesters = opt.serve_requesters;
    lg.start_s = 0.0;
    lg.duration_s = opt.hours * 3600.0;
    // Advisory consumers tolerate a refresh cycle, not a web-page RTT:
    // give them the paper's >= 23-minute validity window as a deadline so
    // cold-key misses can park on a real CFD flight instead of all
    // diverting to the stale fast path.
    lg.deadline_us = 30ll * 60 * 1'000'000;
    loadgen = std::make_unique<serve::LoadGenerator>(
        fabric.simulation(), *fabric.advisory_server(), lg);
    loadgen->Start();
  }

  if (!opt.snapshot) {
    sim::Periodic(fabric.simulation(), sim::SimTime::Seconds(opt.refresh_s),
                  sim::SimTime::Seconds(opt.refresh_s), [&fabric, &opt]() {
                    RenderFrame(fabric, opt);
                    return true;
                  });
  }
  fabric.Run(opt.hours);

  if (opt.snapshot) {
    if (!opt.out_path.empty()) {
      std::ofstream out(opt.out_path);
      if (!out) {
        std::cerr << "xgtop: cannot open " << opt.out_path << "\n";
        return 1;
      }
      return WriteSnapshot(fabric, opt, out);
    }
    return WriteSnapshot(fabric, opt, std::cout);
  }
  RenderFrame(fabric, opt);  // final frame after the horizon
  return 0;
}
