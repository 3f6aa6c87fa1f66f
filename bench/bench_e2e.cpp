// Section 4.4 reproduction: end-to-end performance of the coupled system
// over a simulated day, including the breach-detection loop.
//
// Paper statements checked:
//  - telemetry transfer 5G network at UNL -> ND head node via UCSB takes
//    ~200 ms (101 ms + 92 ms append latency per hop, cf. Table 1);
//  - a 64-core allocation sustains roughly one simulation per ~7 minutes;
//  - the CFD result is valid for >= ~23 of the 30-minute detection cycle;
//  - the voting rule trades HPC load against sensitivity (design ablation).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "core/fabric.hpp"
#include "common/table.hpp"
#include "fault/plan.hpp"
#include "obs/slo/slo.hpp"

using namespace xg;
using namespace xg::core;

namespace {

struct DayRun {
  FabricMetrics metrics;
  obs::slo::LatencyLedger::Summary slo;
  std::string slo_table;
};

DayRun RunDay(int votes_needed, uint64_t seed, bool with_breach) {
  FabricConfig cfg;
  cfg.seed = seed;
  cfg.detector.votes_needed = votes_needed;
  Fabric fabric(cfg);
  // A realistic day: two weather fronts.
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
  if (with_breach) {
    sensors::BreachEvent breach;
    breach.time_s = 13.0 * 3600;
    breach.x_m = 30.0;
    breach.y_m = 90.0;
    breach.radius_m = 25.0;
    fabric.ScheduleBreach(breach);
  }
  fabric.Run(24.0);
  DayRun out;
  out.metrics = fabric.metrics();
  out.slo = fabric.slo_ledger()->Summarize();
  out.slo_table = fabric.slo_ledger()->FormatSummary();
  return out;
}

// Chaos SLO run: the UCSB -> ND alert path is severed across the morning
// front, so the escalated reading's alert never reaches the ND poller and
// its 30-minute deadline budget expires in flight. The flight recorder
// must auto-dump on the miss and blame the stage with the largest budget
// share.
struct ChaosRun {
  FabricMetrics metrics;
  uint64_t misses = 0;
  uint64_t expired = 0;
  uint64_t dumps = 0;
  std::string dump_trigger;
  std::string dominant_stage;
};

ChaosRun RunChaosDay(uint64_t seed) {
  FabricConfig cfg;
  cfg.seed = seed;
  cfg.site_probes = true;
  cfg.fault_plan = fault::FaultPlan(seed);
  // Covers the first post-front detection cycles (~08:30, ~09:00) and
  // outlasts the 1800 s deadline of any reading escalated inside it.
  cfg.fault_plan.Partition("ucsb", "nd", 8.0 * 3600, 2.5 * 3600);
  Fabric fabric(cfg);
  sensors::FrontEvent morning;
  morning.start_s = 8.0 * 3600;
  morning.ramp_s = 1800.0;
  morning.d_wind_ms = 2.0;
  morning.d_temp_c = 1.5;
  fabric.ScheduleFront(morning);
  fabric.Run(14.0);

  ChaosRun out;
  out.metrics = fabric.metrics();
  out.misses = fabric.slo_ledger()->missed_total();
  out.expired = fabric.slo_ledger()->closed_by_reason(
      obs::slo::CloseReason::kExpired);
  out.dumps = fabric.flight_recorder()->dumps_taken();
  const std::string& dump = fabric.flight_recorder()->last_dump();
  auto extract = [&dump](const char* key) -> std::string {
    const std::string pat = std::string("\"") + key + "\":\"";
    const size_t at = dump.find(pat);
    if (at == std::string::npos) return "";
    const size_t start = at + pat.size();
    return dump.substr(start, dump.find('"', start) - start);
  };
  out.dump_trigger = extract("trigger");
  out.dominant_stage = extract("dominant_stage");
  return out;
}

// Recovery-time measurement: a scripted mid-morning 5G outage with site
// probes on. Recovery time is the gap between the fault window
// closing and the first buffered frame draining to durable storage.
struct RecoveryRun {
  FabricMetrics metrics;
  double outage_start_s = 0.0;
  double outage_duration_s = 0.0;
  double recovery_s = -1.0;  ///< fault end -> first drained delivery
};

RecoveryRun RunOutageDay(uint64_t seed) {
  RecoveryRun out;
  out.outage_start_s = 9.0 * 3600;
  out.outage_duration_s = 600.0;

  FabricConfig cfg;
  cfg.seed = seed;
  cfg.site_probes = true;
  cfg.fault_plan = fault::FaultPlan(seed);
  cfg.fault_plan.Partition("unl", "unl-gw", out.outage_start_s,
                           out.outage_duration_s);
  Fabric fabric(cfg);

  const double fault_end_s = out.outage_start_s + out.outage_duration_s;
  fabric.on_frame_stored = [&out, fault_end_s](double time_s, bool drained) {
    if (drained && out.recovery_s < 0.0) {
      out.recovery_s = time_s - fault_end_s;
    }
  };
  fabric.Run(24.0);
  out.metrics = fabric.metrics();
  return out;
}

void JsonStats(bench::JsonWriter& jw, const std::string& key,
               const SampleSet& s) {
  jw.Key(key);
  jw.BeginObject();
  jw.Field("mean", s.mean());
  jw.Field("stddev", s.stddev());
  jw.Field("count", static_cast<uint64_t>(s.count()));
  jw.EndObject();
}

}  // namespace

int main() {
  const DayRun day = RunDay(/*votes_needed=*/2, 9001, /*breach=*/true);
  const FabricMetrics& m = day.metrics;

  Table e2e({"Metric", "Measured", "Paper"});
  e2e.AddRow({"Telemetry frames stored / sent",
              Table::Num(m.telemetry_frames_stored, 0) + " / " +
                  Table::Num(m.telemetry_frames_sent, 0),
              "every 300 s"});
  e2e.AddRow({"UNL->UCSB telemetry append (ms)",
              Table::PlusMinus(m.telemetry_latency_ms.mean(),
                               m.telemetry_latency_ms.stddev(), 1),
              "101 +/- 17"});
  e2e.AddRow({"UNL->ND transfer via UCSB (ms)",
              Table::Num(m.telemetry_latency_ms.mean() + 92.0, 0),
              "~200 (~101+92)"});
  e2e.AddRow({"Detection cycles (30-min duty)",
              Table::Num(m.detection_cycles, 0), "48/day"});
  e2e.AddRow({"Alerts raised", Table::Num(m.alerts_raised, 0), "-"});
  e2e.AddRow({"CFD simulations completed",
              Table::Num(m.cfd_runs_completed, 0), "-"});
  e2e.AddRow({"CFD runtime (s, 64 cores)",
              Table::PlusMinus(m.cfd_runtime_s.mean(),
                               m.cfd_runtime_s.stddev(), 1),
              "420.39 +/- 36.29"});
  e2e.AddRow({"Task wait in pilot (s)", Table::Num(m.cfd_wait_s.mean(), 1),
              "masked by pilot"});
  e2e.AddRow({"Alert -> result (s)",
              Table::Num(m.alert_to_result_s.mean(), 0), "~7 min + fetch"});
  e2e.AddRow({"Result validity within cycle (min)",
              Table::Num(m.result_validity_s.mean() / 60.0, 1), ">= ~23"});
  e2e.AddRow({"Breach suspicions / confirmed",
              Table::Num(m.breach_suspicions, 0) + " / " +
                  Table::Num(m.breaches_confirmed, 0),
              "-"});
  e2e.AddRow({"Breach detection delay (min)",
              m.breach_detection_delay_s.count()
                  ? Table::Num(m.breach_detection_delay_s.mean() / 60.0, 1)
                  : "-",
              "-"});
  e2e.AddRow({"Pilot idle node-hours",
              Table::Num(m.pilot_idle_node_seconds / 3600.0, 1), "-"});
  e2e.Print(std::cout,
            "Section 4.4: End-to-end performance over a simulated day "
            "(fronts at 08:00 and 18:00, breach at 13:00)");

  // Deadline-budget decomposition of the same day: where each reading's
  // 30-minute budget went, per stage boundary. The per-stage consumed
  // times sum to the end-to-end latency by construction; verify anyway.
  std::cout << "\nDeadline-budget breakdown (per-stage share of the "
               "end-to-end latency):\n"
            << day.slo_table;
  double share_sum = 0.0;
  for (const auto& st : day.slo.stages) share_sum += st.share;
  const double share_err_pct = 100.0 * (share_sum - 1.0);
  std::cout << "Stage budget shares sum to "
            << Table::Num(100.0 * share_sum, 2)
            << "% of the e2e latency (tolerance +/- 1%).\n";
  bool ok = day.slo.completed > 0 && share_err_pct > -1.0 &&
            share_err_pct < 1.0;
  if (!ok) {
    std::cout << "FAIL: per-stage budget shares do not sum to the "
                 "end-to-end latency.\n";
  }
  // Percentiles are clamped into the observed range, so no stage's tail
  // may be reported above its max.
  std::vector<obs::slo::LatencyLedger::StageSummary> rows = day.slo.stages;
  rows.push_back(day.slo.e2e);
  for (const auto& st : rows) {
    if (st.p99_ms > st.max_ms || st.p999_ms > st.max_ms) {
      std::cout << "FAIL: a p99/p99.9 exceeds its stage max.\n";
      ok = false;
      break;
    }
  }

  // Ablation: voting rule vs HPC load and sensitivity.
  struct VoteRow {
    int k;
    uint64_t alerts, runs;
    double node_seconds;
  };
  std::vector<VoteRow> vote_rows;
  Table votes({"Voting rule", "Alerts/day", "CFD runs/day",
               "HPC node-seconds (runtime)"});
  for (int k : {1, 2, 3}) {
    const FabricMetrics vm =
        RunDay(k, 9100 + static_cast<uint64_t>(k), /*breach=*/false).metrics;
    vote_rows.push_back(
        {k, vm.alerts_raised, vm.cfd_runs_completed, vm.cfd_runtime_s.sum()});
    votes.AddRow({Table::Num(k, 0) + "-of-3", Table::Num(vm.alerts_raised, 0),
                  Table::Num(vm.cfd_runs_completed, 0),
                  Table::Num(vm.cfd_runtime_s.sum(), 0)});
  }
  votes.Print(std::cout, "\nAblation: change-detection voting rule "
                         "(sensitivity vs HPC load)");
  std::cout << "Expected: stricter voting (3-of-3) raises fewer alerts and "
               "burns fewer node-seconds,\nat the risk of missing subtle "
               "condition changes.\n";

  // Recovery time under a scripted 10-minute 5G outage.
  const RecoveryRun rec = RunOutageDay(9200);
  Table recov({"Metric", "Measured"});
  recov.AddRow({"Outage start (h)", Table::Num(rec.outage_start_s / 3600, 1)});
  recov.AddRow({"Outage duration (s)", Table::Num(rec.outage_duration_s, 0)});
  recov.AddRow({"Frames buffered during outage",
                Table::Num(rec.metrics.telemetry_frames_buffered, 0)});
  recov.AddRow({"Frames drained on recovery",
                Table::Num(rec.metrics.telemetry_frames_drained, 0)});
  recov.AddRow({"Recovery time (s, fault end -> first delivery)",
                rec.recovery_s >= 0 ? Table::Num(rec.recovery_s, 1) : "-"});
  recov.Print(std::cout, "\nResilience: store-and-forward recovery after a "
                         "10-minute 5G outage");

  // Chaos SLO: a severed alert path must surface as a deadline miss with
  // a flight-recorder dump blaming the dominant stage.
  const ChaosRun chaos = RunChaosDay(9300);
  Table ct({"Metric", "Measured"});
  ct.AddRow({"Deadline misses", Table::Num(chaos.misses, 0)});
  ct.AddRow({"Budgets expired in flight", Table::Num(chaos.expired, 0)});
  ct.AddRow({"Flight-recorder dumps", Table::Num(chaos.dumps, 0)});
  ct.AddRow({"Last dump trigger",
             chaos.dump_trigger.empty() ? "-" : chaos.dump_trigger});
  ct.AddRow({"Blamed (dominant) stage",
             chaos.dominant_stage.empty() ? "-" : chaos.dominant_stage});
  ct.Print(std::cout, "\nChaos SLO: UCSB->ND alert path severed across the "
                      "morning front (deadline forced to expire)");
  if (chaos.misses == 0 || chaos.dumps == 0 ||
      chaos.dump_trigger != "deadline_miss" ||
      chaos.dominant_stage.empty() || chaos.dominant_stage == "none") {
    std::cout << "FAIL: chaos run did not produce a deadline-miss flight "
                 "dump naming a dominant stage.\n";
    ok = false;
  }

  // Machine-readable artifact (PR 3 bench convention).
  std::ofstream jout("BENCH_e2e.json");
  if (!jout) {
    std::cerr << "bench_e2e: cannot open BENCH_e2e.json\n";
    return 1;
  }
  bench::JsonWriter jw(jout);
  jw.BeginObject();
  jw.Field("schema", "xg-bench-e2e-v1");
  jw.Key("day");
  jw.BeginObject();
  jw.Field("telemetry_frames_sent", m.telemetry_frames_sent);
  jw.Field("telemetry_frames_stored", m.telemetry_frames_stored);
  JsonStats(jw, "telemetry_latency_ms", m.telemetry_latency_ms);
  jw.Field("detection_cycles", m.detection_cycles);
  jw.Field("alerts_raised", m.alerts_raised);
  jw.Field("cfd_runs_completed", m.cfd_runs_completed);
  JsonStats(jw, "cfd_runtime_s", m.cfd_runtime_s);
  JsonStats(jw, "cfd_wait_s", m.cfd_wait_s);
  JsonStats(jw, "alert_to_result_s", m.alert_to_result_s);
  JsonStats(jw, "result_validity_s", m.result_validity_s);
  jw.Field("breach_suspicions", m.breach_suspicions);
  jw.Field("breaches_confirmed", m.breaches_confirmed);
  jw.Field("pilot_idle_node_hours", m.pilot_idle_node_seconds / 3600.0);
  jw.EndObject();
  jw.Key("slo");
  jw.BeginObject();
  jw.Field("completed", day.slo.completed);
  jw.Field("full_path", day.slo.full_path);
  jw.Field("deadline_misses", day.slo.misses);
  jw.Field("near_misses", day.slo.near_misses);
  jw.Field("dominant_stage", obs::slo::StageName(day.slo.dominant_stage));
  jw.Field("share_sum", share_sum);
  jw.Key("e2e");
  jw.BeginObject();
  jw.Field("count", day.slo.e2e.count);
  jw.Field("p50_ms", day.slo.e2e.p50_ms);
  jw.Field("p99_ms", day.slo.e2e.p99_ms);
  jw.Field("max_ms", day.slo.e2e.max_ms);
  jw.EndObject();
  jw.Key("stages");
  jw.BeginArray();
  for (const auto& st : day.slo.stages) {
    jw.BeginObject();
    jw.Field("stage", obs::slo::StageName(st.stage));
    jw.Field("count", st.count);
    jw.Field("p50_ms", st.p50_ms);
    jw.Field("p99_ms", st.p99_ms);
    jw.Field("share", st.share);
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();
  jw.Key("chaos_slo");
  jw.BeginObject();
  jw.Field("deadline_misses", chaos.misses);
  jw.Field("expired_in_flight", chaos.expired);
  jw.Field("flight_dumps", chaos.dumps);
  jw.Field("dump_trigger", chaos.dump_trigger);
  jw.Field("dominant_stage", chaos.dominant_stage);
  jw.EndObject();
  jw.Key("voting_ablation");
  jw.BeginArray();
  for (const VoteRow& v : vote_rows) {
    jw.BeginObject();
    jw.Field("votes_needed", v.k);
    jw.Field("alerts", v.alerts);
    jw.Field("cfd_runs", v.runs);
    jw.Field("hpc_node_seconds", v.node_seconds);
    jw.EndObject();
  }
  jw.EndArray();
  jw.Key("recovery");
  jw.BeginObject();
  jw.Field("outage_start_s", rec.outage_start_s);
  jw.Field("outage_duration_s", rec.outage_duration_s);
  jw.Field("frames_buffered", rec.metrics.telemetry_frames_buffered);
  jw.Field("frames_drained", rec.metrics.telemetry_frames_drained);
  jw.Field("recovery_s", rec.recovery_s);
  jw.EndObject();
  jw.EndObject();
  jout << "\n";
  jout.close();
  if (!jout || !jw.Complete()) {
    std::cerr << "bench_e2e: write to BENCH_e2e.json failed\n";
    return 1;
  }
  std::cout << "\nData written to BENCH_e2e.json\n";
  if (!ok) return 1;
  std::cout << "PASS: stage budget shares sum to the e2e latency, no "
               "percentile exceeds its max, and the chaos run dumped a "
               "deadline-miss flight record.\n";
  return 0;
}
