#include "core/scenario.hpp"

#include <fstream>
#include <sstream>

#include "common/keyvalue.hpp"
#include "common/table.hpp"

namespace xg::core {

std::string FormatScenario(const Scenario& s) {
  std::ostringstream os;
  os.precision(10);
  os << "# xGFabric scenario\n";
  os << "name = " << s.name << "\n";
  os << "hours = " << s.hours << "\n";
  os << "seed = " << s.fabric.seed << "\n";
  os << "telemetry_over_5g = " << (s.fabric.telemetry_over_5g ? 1 : 0) << "\n";
  os << "telemetry_period_s = " << s.fabric.telemetry_period_s << "\n";
  os << "detect_period_s = " << s.fabric.detect_period_s << "\n";
  os << "detector.window = " << s.fabric.detector.window << "\n";
  os << "detector.alpha = " << s.fabric.detector.alpha << "\n";
  os << "detector.votes_needed = " << s.fabric.detector.votes_needed << "\n";
  os << "background_load = " << (s.fabric.background_load ? 1 : 0) << "\n";
  os << "pilot.strategy = "
     << static_cast<int>(s.fabric.pilot.strategy) << "\n";
  os << "cfd_mode = " << (s.fabric.cfd_mode == CfdMode::kFull ? 1 : 0) << "\n";
  os << "cfd_steps = " << s.fabric.cfd_steps << "\n";
  os << "dispatch_robot = " << (s.fabric.dispatch_robot ? 1 : 0) << "\n";
  for (size_t i = 0; i < s.fronts.size(); ++i) {
    const auto& f = s.fronts[i];
    const std::string p = "front." + std::to_string(i) + ".";
    os << p << "start_s = " << f.start_s << "\n";
    os << p << "ramp_s = " << f.ramp_s << "\n";
    os << p << "d_wind_ms = " << f.d_wind_ms << "\n";
    os << p << "d_dir_deg = " << f.d_dir_deg << "\n";
    os << p << "d_temp_c = " << f.d_temp_c << "\n";
    os << p << "d_humidity_pct = " << f.d_humidity_pct << "\n";
  }
  for (size_t i = 0; i < s.breaches.size(); ++i) {
    const auto& b = s.breaches[i];
    const std::string p = "breach." + std::to_string(i) + ".";
    os << p << "time_s = " << b.time_s << "\n";
    os << p << "x_m = " << b.x_m << "\n";
    os << p << "y_m = " << b.y_m << "\n";
    os << p << "radius_m = " << b.radius_m << "\n";
    os << p << "severity = " << b.severity << "\n";
  }
  return os.str();
}

Result<Scenario> ParseScenario(const std::string& text) {
  Result<KeyValueDeck> parsed = KeyValueDeck::Parse(text);
  if (!parsed.ok()) return parsed.status();
  KeyValueDeck kv = parsed.take();
  auto take_bool = [&kv](const std::string& key, bool& out) {
    int v = out ? 1 : 0;
    if (kv.TakeNumber(key, v)) out = v != 0;
  };

  Scenario s;
  kv.TakeString("name", s.name);
  kv.TakeNumber("hours", s.hours);
  kv.TakeNumber("seed", s.fabric.seed);
  take_bool("telemetry_over_5g", s.fabric.telemetry_over_5g);
  kv.TakeNumber("telemetry_period_s", s.fabric.telemetry_period_s);
  kv.TakeNumber("detect_period_s", s.fabric.detect_period_s);
  kv.TakeNumber("detector.window", s.fabric.detector.window);
  kv.TakeNumber("detector.alpha", s.fabric.detector.alpha);
  kv.TakeNumber("detector.votes_needed", s.fabric.detector.votes_needed);
  take_bool("background_load", s.fabric.background_load);
  int strategy = static_cast<int>(s.fabric.pilot.strategy);
  if (kv.TakeNumber("pilot.strategy", strategy)) {
    if (strategy < 0 || strategy > 2) {
      return Status(ErrorCode::kInvalidArgument, "bad pilot.strategy");
    }
    s.fabric.pilot.strategy = static_cast<pilot::Strategy>(strategy);
  }
  int full = s.fabric.cfd_mode == CfdMode::kFull ? 1 : 0;
  if (kv.TakeNumber("cfd_mode", full)) {
    s.fabric.cfd_mode = full != 0 ? CfdMode::kFull : CfdMode::kModeled;
  }
  kv.TakeNumber("cfd_steps", s.fabric.cfd_steps);
  take_bool("dispatch_robot", s.fabric.dispatch_robot);

  // Indexed events.
  for (int i = 0;; ++i) {
    const std::string p = "front." + std::to_string(i) + ".";
    sensors::FrontEvent f;
    if (!kv.TakeNumber(p + "start_s", f.start_s)) break;
    kv.TakeNumber(p + "ramp_s", f.ramp_s);
    kv.TakeNumber(p + "d_wind_ms", f.d_wind_ms);
    kv.TakeNumber(p + "d_dir_deg", f.d_dir_deg);
    kv.TakeNumber(p + "d_temp_c", f.d_temp_c);
    kv.TakeNumber(p + "d_humidity_pct", f.d_humidity_pct);
    s.fronts.push_back(f);
  }
  for (int i = 0;; ++i) {
    const std::string p = "breach." + std::to_string(i) + ".";
    sensors::BreachEvent b;
    if (!kv.TakeNumber(p + "time_s", b.time_s)) break;
    kv.TakeNumber(p + "x_m", b.x_m);
    kv.TakeNumber(p + "y_m", b.y_m);
    kv.TakeNumber(p + "radius_m", b.radius_m);
    kv.TakeNumber(p + "severity", b.severity);
    s.breaches.push_back(b);
  }

  if (Status st = kv.Finish("scenario"); !st.ok()) return st;
  return s;
}

Status WriteScenarioFile(const Scenario& s, const std::string& path) {
  std::ofstream f(path);
  if (!f) return Status(ErrorCode::kUnavailable, "cannot open " + path);
  f << FormatScenario(s);
  return f.good() ? Status::Ok()
                  : Status(ErrorCode::kUnavailable, "write failed: " + path);
}

Result<Scenario> ReadScenarioFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status(ErrorCode::kNotFound, "cannot open " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return ParseScenario(os.str());
}

FabricMetrics RunScenario(const Scenario& s) {
  Fabric fabric(s.fabric);
  for (const auto& front : s.fronts) fabric.ScheduleFront(front);
  for (const auto& breach : s.breaches) fabric.ScheduleBreach(breach);
  fabric.Run(s.hours);
  return fabric.metrics();
}

std::string FormatReport(const Scenario& s, const FabricMetrics& m) {
  Table t({"Metric", "Value"});
  t.AddRow({"Scenario", s.name});
  t.AddRow({"Hours simulated", Table::Num(s.hours, 1)});
  t.AddRow({"Telemetry frames stored",
            Table::Num(m.telemetry_frames_stored, 0)});
  t.AddRow({"Telemetry append latency (ms)",
            Table::PlusMinus(m.telemetry_latency_ms.mean(),
                             m.telemetry_latency_ms.stddev(), 1)});
  t.AddRow({"Detection cycles", Table::Num(m.detection_cycles, 0)});
  t.AddRow({"Alerts raised", Table::Num(m.alerts_raised, 0)});
  t.AddRow({"CFD runs", Table::Num(m.cfd_runs_completed, 0)});
  t.AddRow({"CFD runtime (s)",
            Table::PlusMinus(m.cfd_runtime_s.mean(),
                             m.cfd_runtime_s.stddev(), 1)});
  t.AddRow({"Result validity (min)",
            Table::Num(m.result_validity_s.mean() / 60.0, 1)});
  t.AddRow({"Breach suspicions / confirmed",
            Table::Num(m.breach_suspicions, 0) + " / " +
                Table::Num(m.breaches_confirmed, 0)});
  t.AddRow({"Spray windows", Table::Num(m.spray_windows, 0)});
  t.AddRow({"Frost alerts", Table::Num(m.frost_alerts, 0)});
  t.AddRow({"Irrigation advisories",
            Table::Num(m.irrigation_advisories, 0)});
  t.AddRow({"Pilot idle node-hours",
            Table::Num(m.pilot_idle_node_seconds / 3600.0, 1)});
  return t.Render("xGFabric scenario report");
}

}  // namespace xg::core
