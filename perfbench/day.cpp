// day-full and day-fast: seeded windows / days through core::Fabric.
//
// day-full runs 2 h windows with CfdMode::kFull (the real solver on the
// default mesh). A weather front at every detection cycle makes each
// window escalate the same number of CFD runs, so wall time per window
// tracks solver cost and not the seed. day-fast runs 24 h days with the
// shipped default FabricConfig (kModeled CFD), so its wall time is event
// dispatch, CSPOT, Laminar, core glue and observability.
//
// Both cycle a fixed, seeded pool of units. Virtual outputs come from the
// first pass over the pool, so a pure speed-up cannot move them; every
// later pass must hash identically.
#include <algorithm>
#include <map>
#include <optional>

#include "bench.hpp"
#include "cfd/case.hpp"
#include "common/rng.hpp"
#include "core/fabric.hpp"
#include "obs/kerneltimer.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using namespace xg;
using namespace xg::core;

struct Spec {
  bool full;
  double hours;  ///< virtual length of one unit
  size_t pool;   ///< distinct seeded units cycled by the timed loop
};

constexpr Spec kFull{true, 2.0, 4};
constexpr Spec kFast{false, 24.0, 256};
constexpr size_t kSetupReps = 11;
constexpr size_t kAbPairsPerUnit = 4;  ///< obs A/B pairs per pool day

FabricConfig MakeConfig(const Spec& spec, uint64_t seed, bool obs_on) {
  FabricConfig cfg;  // shipped defaults: resilience and serving off
  cfg.seed = seed;
  if (spec.full) cfg.cfd_mode = CfdMode::kFull;
  if (!obs_on) {
    cfg.metrics_enabled = false;
    cfg.tracing_enabled = false;
    cfg.slo.enabled = false;
  }
  return cfg;
}

void ScheduleFronts(Fabric& fabric, const Spec& spec, uint64_t seed) {
  Rng rng(seed ^ 0xf0f0f0f0ULL);
  if (spec.full) {
    // One front per detection cycle, alternating in sign: every cycle
    // after the bootstrap run sees a change between its two half-windows.
    for (int k = 1; k * 1800.0 < spec.hours * 3600.0; ++k) {
      const double sign = k % 2 ? 1.0 : -1.0;
      sensors::FrontEvent f;
      f.start_s = 1800.0 * k;
      f.ramp_s = 300.0;
      f.d_wind_ms = sign * rng.Uniform(1.5, 2.5);
      f.d_temp_c = sign * rng.Uniform(1.5, 2.5);
      fabric.ScheduleFront(f);
    }
    return;
  }
  sensors::FrontEvent morning;
  morning.start_s = rng.Uniform(6.0, 10.0) * 3600.0;
  morning.ramp_s = rng.Uniform(1200.0, 2400.0);
  morning.d_wind_ms = rng.Uniform(1.0, 2.5);
  morning.d_temp_c = rng.Uniform(0.5, 2.0);
  fabric.ScheduleFront(morning);
  sensors::FrontEvent evening;
  evening.start_s = rng.Uniform(16.0, 20.0) * 3600.0;
  evening.ramp_s = rng.Uniform(1800.0, 3000.0);
  evening.d_wind_ms = -rng.Uniform(1.0, 2.0);
  evening.d_temp_c = -rng.Uniform(1.5, 3.5);
  fabric.ScheduleFront(evening);
}

/// Extras gathered only by the traced pass.
struct Collect {
  std::vector<CfdResult> results;  ///< every real-solver case the fabric ran
  std::map<std::string, double> registry;  ///< summed over labels
  double detection_cycles = 0, alerts = 0, spans = 0, spans_dropped = 0;
  double laminar_windows = 0;
  /// Largest simulation queue seen when a frame is stored. Fabric::Run
  /// gives no per-event hook, so this samples the queue once per stored
  /// frame and can miss a peak between frames.
  size_t pending_max_at_store = 0;
};

struct UnitOut {
  double wall_ms = 0.0;  ///< Fabric construction + Run
  double run_ms = 0.0;   ///< Run alone
  uint64_t events = 0;
  uint64_t hash = 0;
  uint64_t sent = 0, stored = 0;
  std::vector<double> telemetry_latency_ms, alert_to_result_s;
  double slo_share_sum = 1.0;  ///< stays 1 when the SLO layer is off
};

UnitOut RunUnit(const Spec& spec, uint64_t seed, bool obs_on,
                SpanRecorder* rec, Collect* collect) {
  UnitOut out;
  Fnv hash;
  Span unit_span(rec, "bench.unit", Layer::kBench);
  const int64_t t0 = NowNs();
  std::optional<Fabric> fabric;
  {
    Span s(rec, "core.construct", Layer::kCore);
    fabric.emplace(MakeConfig(spec, seed, obs_on));
    ScheduleFronts(*fabric, spec, seed);
  }
  fabric->on_result = [&](const CfdResult& r) {
    Span s(rec, "bench.on_result", Layer::kBench);
    hash.F64(r.complete_time_s);
    hash.F64(r.interior_mean_speed_ms);
    hash.F64(r.interior_mean_temp_c);
    if (collect != nullptr && spec.full) collect->results.push_back(r);
  };
  if (collect != nullptr) {
    fabric->on_frame_stored = [&](double, bool) {
      collect->pending_max_at_store = std::max(
          collect->pending_max_at_store, fabric->simulation().pending());
    };
  }
  const int64_t r0 = NowNs();
  {
    Span s(rec, "core.run", Layer::kCore);
    fabric->Run(spec.hours);
  }
  out.run_ms = MsSince(r0);
  out.wall_ms = MsSince(t0);

  // Everything below is outside the timed region.
  const FabricMetrics& m = fabric->metrics();
  out.events = fabric->simulation().executed();
  out.sent = m.telemetry_frames_sent;
  out.stored = m.telemetry_frames_stored;
  out.telemetry_latency_ms = m.telemetry_latency_ms.samples();
  out.alert_to_result_s = m.alert_to_result_s.samples();
  for (uint64_t v : {m.telemetry_frames_sent, m.telemetry_frames_stored,
                     m.detection_cycles, m.alerts_raised,
                     m.cfd_runs_completed, out.events}) {
    hash.U64(v);
  }
  for (double v : out.telemetry_latency_ms) hash.F64(v);
  for (double v : out.alert_to_result_s) hash.F64(v);
  out.hash = hash.value();

  if (obs_on) {
    out.slo_share_sum = 0.0;
    for (const obs::MetricSample& s : fabric->registry().Snapshot()) {
      if (s.name == "xg_slo_stage_budget_share") out.slo_share_sum += s.value;
      if (collect != nullptr && s.type != obs::MetricSample::Type::kHistogram) {
        collect->registry[s.name] += s.value;
      }
    }
  }
  if (collect != nullptr) {
    collect->detection_cycles += static_cast<double>(m.detection_cycles);
    collect->alerts += static_cast<double>(m.alerts_raised);
    collect->spans += static_cast<double>(fabric->tracer().span_count());
    collect->spans_dropped += static_cast<double>(fabric->tracer().dropped());
    for (const obs::SpanRecord& s : fabric->tracer().Snapshot()) {
      if (s.name == "laminar.window") ++collect->laminar_windows;
    }
  }
  return out;
}

/// One set-up: day-fast builds a fabric and runs one untimed warm-up day;
/// day-full builds a fabric plus a solver on the configured mesh and takes
/// one step. The warm-up unit has a fixed seed, so set-up work does not
/// vary with the run's seed.
double SetupOnce(const Spec& spec) {
  constexpr uint64_t kWarmSeed = 42;
  const int64_t t0 = NowNs();
  Fabric fabric(MakeConfig(spec, kWarmSeed, true));
  ScheduleFronts(fabric, spec, kWarmSeed);
  if (spec.full) {
    cfd::Mesh mesh(fabric.config().cfd_mesh);
    cfd::Solver solver(mesh, cfd::SolverParams{});
    solver.Initialize(cfd::Boundary{});
    (void)solver.Step();
  } else {
    fabric.Run(spec.hours);
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

/// Virtual outputs of one pass over the pool (deterministic per seed).
/// Good-put here is telemetry frames stored durably at UCSB per frame sent.
void ReportVirtual(Outcome& o, const std::vector<UnitOut>& pass) {
  uint64_t sent = 0, stored = 0;
  std::vector<double> lat, a2r;
  for (const UnitOut& u : pass) {
    sent += u.sent;
    stored += u.stored;
    lat.insert(lat.end(), u.telemetry_latency_ms.begin(),
               u.telemetry_latency_ms.end());
    a2r.insert(a2r.end(), u.alert_to_result_s.begin(),
               u.alert_to_result_s.end());
  }
  o.Check(sent > 0, "no telemetry frames sent");
  const double sent_d = static_cast<double>(std::max<uint64_t>(sent, 1));
  o.report.Set("failed_frac", static_cast<double>(sent - stored) / sent_d,
               "frac");
  o.e2e.Set("goodput_frac", static_cast<double>(stored) / sent_d, "frac");
  ReportPct(o, o.report, "telemetry_latency_ms_p50", lat, 50.0, "ms");
  ReportPct(o, o.report, "alert_to_result_s_p50", a2r, 50.0, "s");
}

/// Checks a unit against an earlier run of the same seeded unit (or
/// itself on its first run) and its SLO stage shares.
void CheckUnit(Outcome& o, const UnitOut& u, uint64_t expected_hash) {
  const bool same = u.hash == expected_hash;
  if (!same) ++o.failed;
  o.Check(same, "virtual outputs differ between runs of one seeded unit");
  o.Check(std::abs(u.slo_share_sum - 1.0) <= 0.01,
          "SLO stage shares sum to " + std::to_string(u.slo_share_sum));
}

/// Replays the cases the fabric ran through FormatCase/ParseCase and a
/// serial solver; each must reproduce the fabric's interior mean speed
/// exactly. Runs right after the unit that produced the cases, so replay
/// and Run see the same host conditions. Solve time comes from replays
/// without a timer; `timed` replays attach a host-clock KernelTimer (its
/// per-kernel observations cost about 1% of a step) for the kernel split.
class Replayer {
 public:
  Replayer() : timer_(&kreg_, [] { return NowNs() / 1000; }) {}

  void Replay(Outcome& o, const CfdResult& r, SpanRecorder* rec, bool timed) {
    Span replay(rec, "bench.replay", Layer::kBench);
    cfd::CfdCase c;
    {
      Span s(rec, "cfd.case", Layer::kCfd);
      cfd::CfdCase built;
      built.mesh = cfg_.cfd_mesh;
      built.steps = cfg_.cfd_steps;
      built.boundary = cfd::BoundaryFromTelemetry(
          r.boundary_wind_ms, r.boundary_dir_deg, r.boundary_temp_c,
          r.boundary_temp_c + cfg_.cups.greenhouse_temp_c);
      Result<cfd::CfdCase> parsed = cfd::ParseCase(cfd::FormatCase(built));
      o.Check(parsed.ok(), "replayed case does not parse");
      if (!parsed.ok()) return;
      c = parsed.take();
    }
    std::optional<cfd::Mesh> mesh;
    std::optional<cfd::Solver> solver;
    {
      Span s(rec, "cfd.init", Layer::kCfd);
      mesh.emplace(c.mesh);
      solver.emplace(*mesh, c.solver);
      if (timed) solver->set_kernel_timer(&timer_);
      solver->Initialize(c.boundary);
    }
    const int64_t t0 = NowNs();
    cfd::StepStats last;
    {
      Span s(rec, "cfd.solve", Layer::kCfd);
      last = solver->Run(c.steps);
    }
    o.Check(solver->InteriorMeanSpeed() == r.interior_mean_speed_ms,
            "CFD replay differs from the fabric's interior_mean_speed_ms");
    if (timed) {
      timed_steps_ += c.steps;
      return;
    }
    solve_ms_ += MsSince(t0);
    residual_ = std::max(residual_, last.poisson_residual);
    divergence_ = std::max(divergence_, last.max_divergence);
    updates_ += solver->total_cell_updates();
    interior_ = solver->interior_cell_count();
    iters_ = c.solver.poisson_iters;
    ++runs_;
  }

  double solve_ms() const { return solve_ms_; }

  void Report(Outcome& o, double run_ms) const {
    if (runs_ == 0 || timed_steps_ == 0) {
      o.Check(false, "day-full ran no CFD cases");
      return;
    }
    Metrics& l = o.layers;
    l.Set("cfd.runs", runs_, "count");
    l.Set("cfd.solve_ms", solve_ms_ / runs_, "ms");
    for (const char* k : {"sor", "advect", "diffuse_force", "project",
                          "residual", "max_divergence"}) {
      l.Set(std::string("cfd.kernel_ms.") + k,
            timer_.TotalMs(k) / timed_steps_, "ms/step");
    }
    l.Set("cfd.cell_updates_per_s",
          static_cast<double>(updates_) / (solve_ms_ / 1e3), "1/s");
    // Computed, not measured: doubles each kernel reads plus writes per
    // interior cell — advect 8, diffuse+force 10, divergence 4, SOR 3 per
    // iteration, residual 2, project 7, max-divergence 3.
    l.Set("cfd.computed_bytes_per_step",
          static_cast<double>((34 + 3 * iters_) * 8) *
              static_cast<double>(interior_),
          "bytes");
    l.Set("cfd.poisson_iters", iters_, "count");
    l.Set("cfd.poisson_residual", residual_, "1");
    l.Set("cfd.max_divergence", divergence_, "1/s");
    l.Set("cfd.share", solve_ms_ / run_ms, "frac");
  }

 private:
  const FabricConfig cfg_;  // the fabric's defaults for mesh, steps, cups
  obs::MetricsRegistry kreg_;
  obs::KernelTimer timer_;
  double solve_ms_ = 0.0, residual_ = 0.0, divergence_ = 0.0;
  uint64_t updates_ = 0, interior_ = 0;
  int iters_ = 0, timed_steps_ = 0, runs_ = 0;
};

double Sum(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

void ReportLayers(Outcome& o, const Spec& spec, const Collect& c,
                  const std::vector<UnitOut>& untraced) {
  Metrics& l = o.layers;
  double run_ms = 0.0, events = 0.0;
  for (const UnitOut& u : untraced) {
    run_ms += u.run_ms;
    events += static_cast<double>(u.events);
  }
  const double units = static_cast<double>(untraced.size());
  const std::map<std::string, double>& r = c.registry;
  l.Set("sim.events", events, "count");
  l.Set("sim.wall_ns_per_event", run_ms * 1e6 / events, "ns");
  l.Set("sim.pending_max_at_store", static_cast<double>(c.pending_max_at_store),
        "count");
  l.Set("obs.spans_per_day", c.spans / units * (24.0 / spec.hours), "count");
  l.Set("obs.spans_dropped", c.spans_dropped, "count");
  l.Set("core.detection_cycles", c.detection_cycles, "count");
  l.Set("core.alerts", c.alerts, "count");
  const double appends = Sum(r, "xg_cspot_remote_appends_total");
  const double attempts = Sum(r, "xg_cspot_append_attempts_total");
  // A size request goes over the WAN only on a cache miss, so lookups are
  // hits plus size requests.
  const double size_hits = Sum(r, "xg_cspot_size_cache_hits_total");
  const double size_lookups = size_hits + Sum(r, "xg_cspot_size_requests_total");
  l.Set("cspot.appends", appends, "count");
  l.Set("cspot.append_attempts", attempts, "count");
  l.Set("cspot.retry_ratio", appends > 0 ? (attempts - appends) / appends : 0,
        "frac");
  l.Set("cspot.wan_messages", Sum(r, "xg_cspot_wan_messages_sent_total"),
        "count");
  l.Set("cspot.wan_lost", Sum(r, "xg_cspot_wan_messages_lost_total"), "count");
  l.Set("cspot.timeouts", Sum(r, "xg_cspot_timeouts_total"), "count");
  l.Set("cspot.size_cache_hit_ratio",
        size_lookups > 0 ? size_hits / size_lookups : 0, "frac");
  l.Set("laminar.windows", c.laminar_windows, "count");
  l.Set("pilot.tasks_completed", Sum(r, "xg_pilot_tasks_completed_total"),
        "count");
  l.Set("pilot.idle_node_s", Sum(r, "xg_pilot_idle_node_seconds_total"), "s");
  l.Set("hpc.jobs_started", Sum(r, "xg_hpc_jobs_started_total"), "count");
}

/// Interleaved A/B days with observability off vs on, alternating which
/// side runs first. Returns the median overhead in ms per day.
double MeasureObsOverhead(Outcome& o, const std::vector<uint64_t>& pool) {
  std::vector<double> off, on;
  for (size_t i = 0; i < kAbPairsPerUnit * pool.size(); ++i) {
    const uint64_t seed = pool[i % pool.size()];
    const bool on_first = i % 2 == 1;
    auto day_ms = [seed](bool obs_on) {
      return RunUnit(kFast, seed, obs_on, nullptr, nullptr).wall_ms;
    };
    if (on_first) on.push_back(day_ms(true));
    off.push_back(day_ms(false));
    if (!on_first) on.push_back(day_ms(true));
  }
  const Quartiles d = PairedOverhead(off, on);
  o.layers.Set("obs.overhead_ms_per_day", d.median, "ms");
  o.layers.Set("obs.overhead_ms_per_day_q1", d.q1, "ms");
  o.layers.Set("obs.overhead_ms_per_day_q3", d.q3, "ms");
  o.layers.Set("obs.overhead_frac", d.median / *Percentile(off, 50.0), "frac");
  return d.median;
}

}  // namespace

Outcome RunDay(const Options& opt, bool full) {
  const Spec& spec = full ? kFull : kFast;
  Outcome o;
  std::vector<uint64_t> pool;
  for (size_t i = 0; i < spec.pool; ++i) pool.push_back(UnitSeed(opt.seed, i));
  // setup_s is the median of several set-ups: one before the first timed
  // event, the rest spread across the timed run, because host speed drifts
  // over seconds and a burst of set-ups at the start sees only one state.
  std::vector<double> setups = {SetupOnce(spec)};

  if (!opt.trace) {
    std::vector<UnitOut> first_pass;
    std::vector<double> walls;
    double wall_ms = 0.0;
    const int64_t start = NowNs();
    auto time_left = [&] { return MsSince(start) < opt.seconds * 1e3; };
    for (size_t i = 0; i < spec.pool || time_left(); ++i) {
      UnitOut u = RunUnit(spec, pool[i % spec.pool], true, nullptr, nullptr);
      ++o.attempted;
      walls.push_back(u.wall_ms);
      wall_ms += u.wall_ms;
      if (i < spec.pool) {
        CheckUnit(o, u, u.hash);
        first_pass.push_back(std::move(u));
      } else {
        CheckUnit(o, u, first_pass[i % spec.pool].hash);
      }
      if (setups.size() < kSetupReps &&
          MsSince(start) >= static_cast<double>(setups.size()) *
                                opt.seconds * 1e3 / kSetupReps) {
        setups.push_back(SetupOnce(spec));
      }
    }
    o.e2e.Set("setup_s", *Percentile(setups, 50.0), "s");
    ReportVirtual(o, first_pass);
    o.e2e.Set("sim_h_per_wall_s",
              spec.hours * static_cast<double>(walls.size()) / (wall_ms / 1e3),
              "h/s");
    ReportPct(o, o.report, "unit_wall_ms_p50", walls, 50.0, "ms");
    if (TailReportable(walls.size(), 90.0)) {
      ReportPct(o, o.report, "unit_wall_ms_p90", walls, 90.0, "ms");
    }
    o.report.Set("units", static_cast<double>(walls.size()), "count");
    o.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
    return o;
  }

  // Traced run: each pool unit runs untraced and traced back to back,
  // alternating which goes first, so the tracing overhead is a paired
  // difference; both runs must hash identically. The traced unit's CFD
  // cases are replayed right after it.
  std::vector<UnitOut> untraced;
  SpanRecorder rec;
  Collect collect;
  Replayer replayer;
  // Not exercised: the serving tier is off, and only serve-drift steps the
  // simulation event by event for a true queue peak. day-full leaves the
  // observability A/B to day-fast (its effect is below day-full's noise);
  // day-fast runs no real solver.
  o.bypassed = {"serve.", "sim.pending_peak",
                spec.full ? "obs.overhead" : "cfd."};
  double untraced_ms = 0.0, traced_ms = 0.0, traced_run_ms = 0.0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const size_t first_case = collect.results.size();
    const bool traced_first = i % 2 == 1;
    std::optional<UnitOut> traced;
    if (traced_first) traced = RunUnit(spec, pool[i], true, &rec, &collect);
    std::optional<UnitOut> plain =
        RunUnit(spec, pool[i], true, nullptr, nullptr);
    if (!traced_first) traced = RunUnit(spec, pool[i], true, &rec, &collect);
    CheckUnit(o, *plain, plain->hash);
    CheckUnit(o, *traced, plain->hash);
    untraced_ms += plain->wall_ms;
    traced_ms += traced->wall_ms;
    traced_run_ms += traced->run_ms;
    for (size_t c = first_case; c < collect.results.size(); ++c) {
      replayer.Replay(o, collect.results[c], &rec, false);
      if (c == first_case) replayer.Replay(o, collect.results[c], &rec, true);
    }
    untraced.push_back(std::move(*plain));
  }
  o.attempted = 2 * pool.size();
  o.e2e.Set("setup_s", setups.front(), "s");
  ReportVirtual(o, untraced);
  ReportLayers(o, spec, collect, untraced);
  double obs_ms_per_day = 0.0;
  if (spec.full) {
    replayer.Report(o, traced_run_ms);
  } else {
    obs_ms_per_day = MeasureObsOverhead(o, pool);
  }
  // Run wall per unit not attributed to CFD (replayed solve time) or to
  // observability (A/B overhead).
  o.layers.Set("core.unattributed_ms",
               (traced_run_ms - replayer.solve_ms()) /
                       static_cast<double>(pool.size()) -
                   obs_ms_per_day * spec.hours / 24.0,
               "ms");
  o.AddSelfTimes(rec, untraced_ms, traced_ms);
  if (!opt.trace_out.empty()) {
    o.Check(rec.WriteChromeTrace(opt.trace_out),
            "cannot write " + opt.trace_out);
  }
  return o;
}

}  // namespace perfbench
