// serve-drift: an open-loop Poisson requester population against
// serve::AdvisoryServer on its own Simulation, at one fixed virtual rate.
//
// Field conditions drift slowly, so the working set keeps moving: part of
// it is pre-published, organic CFD results are published on a fixed
// cadence, and keys the drift reaches first miss, launch one coalesced CFD
// refresh and park followers. Hot shards overload at drift peaks, so
// admission sheds some requests there.
//
// Time is cut into equal virtual slices; the first kWarmupSlices belong to
// set-up. Virtual outputs come from the requests submitted in the first
// kPrefixSlices timed slices and answered within kGraceSlices after them,
// which makes them independent of how many slices the wall-clock budget
// allows.
#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/sim.hpp"
#include "core/telemetry.hpp"
#include "resil/degraded.hpp"
#include "serve/server.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using namespace xg;

constexpr double kRequesters = 1e5;
constexpr double kRequestPeriodS = 60.0;  ///< mean poll gap per requester
constexpr int64_t kSliceUs = 60'000'000;
constexpr int kWarmupSlices = 3;
constexpr int kPrefixSlices = 30;
constexpr int kGraceSlices = 15;
constexpr int kSetupReps = 3;
constexpr int64_t kPublishPeriodUs = 300'000'000;
constexpr double kDriftPeriodS = 900.0;
constexpr double kDeadlineFraction = 0.8;
constexpr int64_t kDeadlineUs = 10'000'000;
constexpr double kRefreshMeanS = 420.0;
constexpr double kRefreshMaxS = 600.0;

/// Exactly-once response accounting in O(outstanding requests) memory.
class ResponseLedger {
 public:
  uint64_t Open() {
    pending_.push_back(0);
    return base_ + pending_.size() - 1;
  }
  /// False on a response for an unknown id or a second response.
  bool Close(uint64_t id) {
    if (id < base_ || id - base_ >= pending_.size()) return false;
    uint8_t& c = pending_[id - base_];
    if (c != 0) return false;
    c = 1;
    while (!pending_.empty() && pending_.front() != 0) {
      pending_.pop_front();
      ++base_;
    }
    return true;
  }
  bool AllAnswered() const { return pending_.empty(); }
  uint64_t opened() const { return base_ + pending_.size(); }

 private:
  uint64_t base_ = 0;
  std::deque<uint8_t> pending_;
};

/// Virtual outputs of the prefix requests.
struct PrefixStats {
  uint64_t submitted = 0, served = 0, goodput = 0;
  std::vector<double> latency_ms;
  Fnv hash;
};

class Drift {
 public:
  explicit Drift(uint64_t seed)
      : server_(sim_, Config()), rng_(seed), cfd_rng_(seed ^ 0x5e47ecafeULL) {
    server_.set_degraded_manager(&dm_);
    core::CfdResult r;
    r.interior_mean_speed_ms = 0.6;
    payload_ = core::SerializeResult(r);
    server_.set_launcher([this](const serve::ConditionKey& key,
                                const serve::FieldConditions&,
                                std::function<void(std::vector<uint8_t>,
                                                   int64_t)> done) {
      Span s(rec_, "bench.launch", Layer::kBench);
      max_launches_ = std::max(max_launches_, ++launches_[key]);
      const double runtime_s =
          std::clamp(cfd_rng_.Gaussian(kRefreshMeanS, kRefreshMeanS / 7.0),
                     kRefreshMeanS / 2.0, kRefreshMaxS);
      sim_.Schedule(sim::SimTime::Seconds(runtime_s),
                    [this, done = std::move(done)] {
                      Span d(rec_, "serve.done", Layer::kServe);
                      done(payload_, sim_.Now().micros());
                    });
      return true;
    });
    PrePublish();
    sim_.ScheduleAt(sim::SimTime::Micros(0), [this] {
      Fire();
      ScheduleNextArrival();
    });
    sim::Periodic(sim_, sim::SimTime::Micros(kPublishPeriodUs),
                  sim::SimTime::Micros(kPublishPeriodUs), [this] {
                    if (sim_.Now().micros() > stop_us_) return false;
                    Publish(Center(sim_.Now().seconds()));
                    return true;
                  });
  }
  Drift(const Drift&) = delete;
  Drift& operator=(const Drift&) = delete;

  /// With a recorder the simulation is traced: spans around every layer
  /// call, and per-call wall times for Submit and Publish.
  void set_recorder(SpanRecorder* rec) { rec_ = rec; }

  /// Runs the next slice; with a recorder, event by event with a span
  /// around each Step. Returns the slice's wall milliseconds.
  double RunSlice() {
    const int64_t end_us = ++slices_ * kSliceUs;
    const int64_t t0 = NowNs();
    if (rec_ == nullptr) {
      sim_.RunUntil(sim::SimTime::Micros(end_us));
    } else {
      Span slice(rec_, "bench.slice", Layer::kBench);
      while (sim_.Now().micros() < end_us) {
        const int64_t s0 = NowNs();
        bool more = false;
        {
          Span step(rec_, "sim.step", Layer::kSim);
          more = sim_.Step();
        }
        step_ns_ += NowNs() - s0;
        pending_peak_ = std::max(pending_peak_, sim_.pending());
        if (!more) break;
      }
    }
    return MsSince(t0);
  }

  /// Ends arrivals and publishes after the current slice, then runs every
  /// remaining event, untraced, so each request is answered.
  void StopAndDrain() {
    stop_us_ = slices_ * kSliceUs;
    set_recorder(nullptr);
    sim_.Run();
  }

  void MarkPrefix(int first_slice) {
    prefix_begin_us_ = first_slice * kSliceUs;
    prefix_end_us_ = (first_slice + kPrefixSlices) * kSliceUs;
    cutoff_us_ = prefix_end_us_ + kGraceSlices * kSliceUs;
  }

  int slices() const { return slices_; }
  uint64_t submitted() const { return ledger_.opened(); }
  bool all_answered() const { return ledger_.AllAnswered(); }
  uint64_t bad_responses() const { return bad_responses_; }
  const PrefixStats& prefix() const { return prefix_; }
  const serve::AdvisoryServer& server() const { return server_; }
  const resil::DegradedModeManager& degraded() const { return dm_; }
  uint64_t max_launches_per_key() const { return max_launches_; }
  uint64_t launch_bound_per_key() const {
    const double horizon_s = sim_.Now().seconds();
    const double validity_s =
        static_cast<double>(server_.config().cache.validity_us) / 1e6;
    return 1 + static_cast<uint64_t>(horizon_s / validity_s);
  }
  /// Requests refused by admission control (some still served stale).
  uint64_t shed() const {
    uint64_t n = 0;
    for (const auto& by_admit : responses_) n += by_admit[0];
    return n;
  }
  /// Responses with `status`, admitted or shed by admission control.
  uint64_t responses(serve::ServeStatus status, bool admitted) const {
    return responses_[static_cast<int>(status)][admitted ? 1 : 0];
  }
  uint64_t events() const { return sim_.executed(); }
  int64_t step_ns() const { return step_ns_; }
  size_t pending_peak() const { return pending_peak_; }
  const std::vector<double>& submit_ns() const { return submit_ns_; }
  const std::vector<double>& publish_ns() const { return publish_ns_; }

 private:
  static serve::ServeConfig Config() {
    serve::ServeConfig cfg;
    cfg.enabled = true;
    // Hot shards saturate at drift peaks (1667 req/s offered, a few
    // shards carry most of it), so admission sheds there.
    cfg.admission.service_us = 2'000;
    cfg.expected_refresh_us = static_cast<int64_t>(kRefreshMaxS * 1e6);
    cfg.max_concurrent_cfd = 32;
    cfg.max_pending_flights = 64;
    return cfg;
  }

  /// Drift centre at virtual time t (no jitter).
  static serve::FieldConditions Center(double t_s) {
    const double phase = 2.0 * M_PI * t_s / kDriftPeriodS;
    serve::FieldConditions c;
    c.wind_ms = 3.0 + 1.0 * std::sin(phase);
    c.dir_deg = 200.0;
    c.temp_c = 20.0 + 3.0 * std::sin(phase);
    c.humidity_pct = 55.0;
    return c;
  }

  /// Part of the working set is warm before the first request: a grid
  /// around the drift's resting point, narrower than the drift envelope.
  void PrePublish() {
    const serve::QuantizerConfig& q = server_.config().quantize;
    for (int dw = -2; dw <= 2; ++dw) {
      for (int dt = -3; dt <= 3; ++dt) {
        for (int dd = -1; dd <= 1; ++dd) {
          for (int dh = -1; dh <= 1; ++dh) {
            serve::FieldConditions c = Center(0.0);
            c.wind_ms += dw * q.wind_step_ms;
            c.temp_c += dt * q.temp_step_c;
            c.dir_deg += dd * q.dir_step_deg;
            c.humidity_pct += dh * q.humidity_step_pct;
            Publish(c);
          }
        }
      }
    }
  }

  void Publish(const serve::FieldConditions& c) {
    Span s(rec_, "serve.publish", Layer::kServe);
    const int64_t t0 = rec_ != nullptr ? NowNs() : 0;
    server_.Publish(c, payload_, sim_.Now().micros());
    if (rec_ != nullptr) {
      publish_ns_.push_back(static_cast<double>(NowNs() - t0));
    }
  }

  void ScheduleNextArrival() {
    const double gap_s = rng_.Exponential(kRequestPeriodS / kRequesters);
    const int64_t next_us =
        sim_.Now().micros() + std::max<int64_t>(1, std::llround(gap_s * 1e6));
    if (next_us > stop_us_) return;
    sim_.ScheduleAt(sim::SimTime::Micros(next_us), [this] {
      Fire();
      ScheduleNextArrival();
    });
  }

  void Fire() {
    const int64_t now = sim_.Now().micros();
    serve::AdvisoryServer::Request req;
    req.conditions = Center(sim_.Now().seconds());
    req.conditions.wind_ms =
        std::max(0.0, req.conditions.wind_ms + rng_.Gaussian(0.0, 0.2));
    req.conditions.dir_deg += rng_.Gaussian(0.0, 8.0);
    req.conditions.temp_c += rng_.Gaussian(0.0, 0.4);
    req.conditions.humidity_pct += rng_.Gaussian(0.0, 1.5);
    const bool with_deadline = rng_.Bernoulli(kDeadlineFraction);
    if (with_deadline) req.budget = obs::slo::DeadlineBudget(now, kDeadlineUs);
    const uint64_t id = ledger_.Open();
    const bool in_prefix = now >= prefix_begin_us_ && now < prefix_end_us_;
    if (in_prefix) ++prefix_.submitted;
    Span s(rec_, "serve.submit", Layer::kServe);
    const int64_t t0 = rec_ != nullptr ? NowNs() : 0;
    using Response = serve::AdvisoryServer::Response;
    server_.Submit(req, [this, id, in_prefix,
                         with_deadline](const Response& r) {
      Span cb(rec_, "bench.respond", Layer::kBench);
      if (!ledger_.Close(id)) ++bad_responses_;
      const bool admitted = r.admit == serve::AdmitDecision::kAdmit;
      ++responses_[static_cast<int>(r.status)][admitted ? 1 : 0];
      if (!in_prefix || sim_.Now().micros() > cutoff_us_) return;
      prefix_.hash.U64(id);
      prefix_.hash.U64(static_cast<uint64_t>(r.status));
      prefix_.hash.U64(static_cast<uint64_t>(r.latency_us));
      if (r.payload == nullptr) return;
      ++prefix_.served;
      prefix_.latency_ms.push_back(static_cast<double>(r.latency_us) / 1e3);
      // Good-put: served, and inside the deadline when there is one.
      if (!(with_deadline && r.late)) ++prefix_.goodput;
    });
    if (rec_ != nullptr) {
      submit_ns_.push_back(static_cast<double>(NowNs() - t0));
    }
  }

  sim::Simulation sim_;
  resil::DegradedModeManager dm_;
  serve::AdvisoryServer server_;
  Rng rng_, cfd_rng_;
  SpanRecorder* rec_ = nullptr;  ///< null: untraced
  std::vector<uint8_t> payload_;
  std::map<serve::ConditionKey, uint64_t> launches_;
  uint64_t max_launches_ = 0;
  ResponseLedger ledger_;
  uint64_t bad_responses_ = 0;
  uint64_t responses_[serve::kServeStatusCount][2] = {};
  int slices_ = 0;
  int64_t stop_us_ = INT64_MAX;
  int64_t prefix_begin_us_ = INT64_MAX, prefix_end_us_ = INT64_MAX;
  int64_t cutoff_us_ = INT64_MAX;
  PrefixStats prefix_;
  int64_t step_ns_ = 0;
  size_t pending_peak_ = 0;
  std::vector<double> submit_ns_, publish_ns_;
};

/// Set-up: simulation, server, pre-published working set, requesters and
/// the warm-up slices. Repeated; the last one is kept for the timed run.
std::unique_ptr<Drift> SetUp(uint64_t seed, double* setup_s) {
  std::vector<double> reps;
  std::unique_ptr<Drift> d;
  for (int r = 0; r < kSetupReps; ++r) {
    d.reset();
    const int64_t t0 = NowNs();
    d = std::make_unique<Drift>(seed);
    for (int i = 0; i < kWarmupSlices; ++i) d->RunSlice();
    reps.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  *setup_s = *Percentile(reps, 50.0);
  d->MarkPrefix(kWarmupSlices);
  return d;
}

void CheckDrained(Outcome& o, const Drift& d) {
  o.Check(d.all_answered(), "a submitted request got no response");
  o.Check(d.bad_responses() == 0, "a request got more than one response");
  o.Check(d.max_launches_per_key() <= d.launch_bound_per_key(),
          "per-key CFD launch bound broken: " +
              std::to_string(d.max_launches_per_key()) + " > " +
              std::to_string(d.launch_bound_per_key()));
  const PrefixStats& p = d.prefix();
  o.Check(p.submitted > 0, "no requests in the measured prefix");
  const double n = static_cast<double>(std::max<uint64_t>(p.submitted, 1));
  o.e2e.Set("goodput_frac", static_cast<double>(p.goodput) / n, "frac");
  o.report.Set("failed_frac",
               static_cast<double>(p.submitted - p.served) / n, "frac");
  ReportPct(o, o.report, "advisory_latency_ms_p50", p.latency_ms, 50.0, "ms");
  if (TailReportable(p.latency_ms.size(), 99.0)) {
    ReportPct(o, o.report, "advisory_latency_ms_p99", p.latency_ms, 99.0, "ms");
  }
}

/// Layer counts per request outcome, from the benchmark's own response
/// tally rather than the cache's lookup counters, which also count the
/// server's internal lookups (fallbacks, post-insert reads). An admitted
/// request is a hit (answered from the cache on its first lookup), a
/// follower parked on a flight (coalesced), or a miss: a flight leader or
/// one diverted to the stale fallback. Shed is refused by admission.
void ReportServeLayers(Outcome& o, const Drift& d) {
  using serve::ServeStatus;
  Metrics& l = o.layers;
  const serve::AdvisoryServer::Counters& c = d.server().counters();
  // The launcher never fails, so every flight ends in fresh answers for its
  // leader and followers; a flight is launched or absorbed by a Publish.
  o.Check(c.flights_failed == 0, "a serve-drift CFD flight failed");
  const uint64_t leaders = c.flights_launched + c.flights_absorbed;
  const uint64_t fresh = d.responses(ServeStatus::kServedFresh, true);
  o.Check(fresh >= leaders + c.coalesced,
          "fewer fresh answers than flight waiters");
  const uint64_t hit_fresh = fresh - std::min(fresh, leaders + c.coalesced);
  const uint64_t hit_stale = d.responses(ServeStatus::kServedStale, true);
  const uint64_t diverted = d.responses(ServeStatus::kServedStaleShed, true) +
                            d.responses(ServeStatus::kShed, true) +
                            d.responses(ServeStatus::kFailed, true);
  const uint64_t misses = leaders + diverted;
  const double requests =
      static_cast<double>(std::max<uint64_t>(c.requests, 1));
  auto count = [](uint64_t n) { return static_cast<double>(n); };
  l.Set("serve.hit_fresh", count(hit_fresh), "count");
  l.Set("serve.hit_stale", count(hit_stale), "count");
  l.Set("serve.coalesced", count(c.coalesced), "count");
  l.Set("serve.misses", count(misses), "count");
  l.Set("serve.useful_ratio",
        count(hit_fresh + hit_stale + c.coalesced) / requests, "frac");
  l.Set("serve.cfd_launched", count(c.flights_launched), "count");
  l.Set("serve.max_launches_per_key", count(d.max_launches_per_key()),
        "count");
  l.Set("serve.shed", count(d.shed()), "count");
  l.Set("serve.overload_entries",
        count(d.degraded().entries(resil::DegradedMode::kOverloadShed)),
        "count");
  o.report.Set("mix_hit_frac", count(hit_fresh + hit_stale) / requests,
               "frac");
  o.report.Set("mix_coalesced_frac", count(c.coalesced) / requests, "frac");
  o.report.Set("mix_miss_frac", count(misses) / requests, "frac");
  o.report.Set("mix_shed_frac", count(d.shed()) / requests, "frac");
  ReportPct(o, l, "serve.submit_ns_p50", d.submit_ns(), 50.0, "ns");
  ReportPct(o, l, "serve.submit_ns_p90", d.submit_ns(), 90.0, "ns");
  ReportPct(o, l, "serve.publish_ns_p50", d.publish_ns(), 50.0, "ns");
  l.Set("sim.pending_peak", static_cast<double>(d.pending_peak()), "count");
}

}  // namespace

Outcome RunServeDrift(const Options& opt) {
  Outcome o;
  double setup_s = 0.0;
  std::unique_ptr<Drift> d = SetUp(opt.seed, &setup_s);
  o.e2e.Set("setup_s", setup_s, "s");
  const int min_slices = kWarmupSlices + kPrefixSlices + kGraceSlices;

  if (!opt.trace) {
    std::vector<double> walls;
    double wall_ms = 0.0;
    const uint64_t first_request = d->submitted();
    const int64_t start = NowNs();
    while (d->slices() < min_slices || MsSince(start) < opt.seconds * 1e3) {
      walls.push_back(d->RunSlice());
      wall_ms += walls.back();
    }
    const double requests = static_cast<double>(d->submitted() - first_request);
    d->StopAndDrain();
    o.attempted = walls.size();
    CheckDrained(o, *d);
    const double wall_s = wall_ms / 1e3;
    o.e2e.Set("sim_h_per_wall_s",
              static_cast<double>(walls.size()) * kSliceUs / 3.6e9 / wall_s,
              "h/s");
    ReportPct(o, o.report, "unit_wall_ms_p50", walls, 50.0, "ms");
    if (TailReportable(walls.size(), 90.0)) {
      ReportPct(o, o.report, "unit_wall_ms_p90", walls, 90.0, "ms");
    }
    o.report.Set("requests_per_wall_s", requests / wall_s, "1/s");
    o.report.Set("units", static_cast<double>(walls.size()), "count");
    o.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
    return o;
  }

  // Traced run: an untraced and a traced simulation of the same seed, the
  // same fixed number of slices, advanced slice by slice in alternation so
  // the tracing overhead is a paired difference; their prefix outputs
  // must hash identically.
  SpanRecorder rec;
  Drift t(opt.seed);
  for (int i = 0; i < kWarmupSlices; ++i) t.RunSlice();
  t.MarkPrefix(kWarmupSlices);
  t.set_recorder(&rec);
  double untraced_ms = 0.0, traced_ms = 0.0;
  const uint64_t events_before = t.events();
  while (t.slices() < min_slices) {
    untraced_ms += d->RunSlice();
    traced_ms += t.RunSlice();
  }
  const uint64_t traced_events = t.events() - events_before;
  const int64_t step_ns = t.step_ns();
  d->StopAndDrain();
  t.StopAndDrain();
  CheckDrained(o, *d);
  CheckDrained(o, t);
  const bool same = t.prefix().hash.value() == d->prefix().hash.value();
  o.Check(same, "virtual outputs differ between the untraced and traced runs");
  o.attempted = 2 * (min_slices - kWarmupSlices);
  o.failed = same ? 0 : 1;

  // Not exercised: the fabric and the solver; the queue peak is exact here.
  o.bypassed = {"cfd.",     "obs.",    "core.", "cspot.",
                "laminar.", "pilot.",  "hpc.",  "sim.pending_max_at_store"};
  ReportServeLayers(o, t);
  o.layers.Set("sim.events", static_cast<double>(traced_events), "count");
  o.layers.Set("sim.wall_ns_per_event",
               static_cast<double>(step_ns) /
                   static_cast<double>(traced_events),
               "ns");
  o.AddSelfTimes(rec, untraced_ms, traced_ms);
  if (!opt.trace_out.empty()) {
    o.Check(rec.WriteChromeTrace(opt.trace_out),
            "cannot write " + opt.trace_out);
  }
  return o;
}

}  // namespace perfbench
