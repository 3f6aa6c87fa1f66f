// Advisory-serving-tier benchmark: open-loop load sweeps against the
// overload-robust server (quantized cache + single-flight coalescing +
// CoDel admission + overload shedding), all on the virtual clock.
//
// Each sweep models a requester population polling the advisory endpoint
// at `requesters / 60 s` aggregate Poisson rate while field conditions
// drift, with a synthetic CFD backend whose refresh latency matches the
// calibrated fabric (~7 minutes). Reported per sweep:
//
//   - p50/p99 served latency (obs::Histogram, virtual microseconds),
//   - good-put (served inside the deadline) and shed rate,
//   - CFD invocations vs the structural bound of one launch per distinct
//     quantized key per validity window — the number that proves a
//     thundering herd cannot amplify into the HPC tier,
//   - cache-hit + coalesce rate (the fraction that never cost a run),
//   - overload_shed degraded-mode entries and storm dumps.
//
// Emits BENCH_serve.json; exit status is nonzero if the artifact cannot
// be written or any sweep breaks the per-key invocation bound. Everything
// is seeded: same seed, same JSON, byte for byte.
//
// Usage:
//   bench_serve [--smoke] [--out PATH] [--seed N]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "common/rng.hpp"
#include "common/sim.hpp"
#include "common/table.hpp"
#include "resil/degraded.hpp"
#include "serve/cache.hpp"
#include "serve/loadgen.hpp"
#include "serve/overload.hpp"
#include "serve/quantize.hpp"
#include "serve/server.hpp"

namespace {

using namespace xg;

struct SweepSpec {
  double requesters = 0.0;
  double duration_s = 0.0;
  /// Synthetic CFD refresh latency: Gaussian around the mean, clamped to
  /// [mean/2, max]. The full sweeps use the calibrated-fabric ~420 s;
  /// smoke compresses it so the run covers full cache lifecycles.
  double refresh_mean_s = 420.0;
  double refresh_max_s = 600.0;
};

struct SweepResult {
  SweepSpec spec;
  uint64_t submitted = 0, completed = 0, served = 0, goodput = 0, late = 0;
  uint64_t responses[serve::kServeStatusCount] = {};
  uint64_t hits_fresh = 0, hits_stale = 0, coalesced = 0;
  uint64_t cfd_launched = 0, cfd_completed = 0;
  uint64_t distinct_keys = 0, max_launches_per_key = 0;
  uint64_t launch_bound_per_key = 0;
  double hit_coalesce_rate = 0.0, shed_rate = 0.0, served_rate = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0;
  uint64_t overload_entries = 0, storms = 0;
  bool overload_at_end = false;
  bool within_bound = true;
};

/// One sweep: fresh sim, fresh server, `spec.requesters` polling for
/// `spec.duration_s` of virtual time against a synthetic CFD backend.
SweepResult RunSweep(const SweepSpec& spec, uint64_t seed) {
  sim::Simulation sim;

  serve::ServeConfig cfg;
  cfg.enabled = true;
  // Serving capacity: 8 shards x 5 req/ms. The 10^6 sweep's ~16.7k req/s
  // concentrated on a few hot shards deliberately exceeds it so admission
  // control and shedding engage; the smaller sweeps stay inside.
  cfg.admission.service_us = 200;
  // The synthetic refresh below is clamped to refresh_max_s; advertise
  // that ceiling so deadline waiters only park when they can afford it.
  cfg.expected_refresh_us =
      static_cast<int64_t>(spec.refresh_max_s * 1e6);
  // Refresh-tier headroom: the drifting working set is a few dozen keys,
  // so this bounds concurrent HPC work without serializing cold starts.
  cfg.max_concurrent_cfd = 32;
  cfg.max_pending_flights = 64;
  // A herd during one refresh window can be the whole population.
  cfg.max_waiters_per_flight = 4'000'000;
  serve::AdvisoryServer server(sim, cfg);

  resil::DegradedModeManager dm;
  server.set_degraded_manager(&dm);

  // Synthetic CFD backend: calibrated-fabric refresh latency (~420 s),
  // seeded per sweep; one launch recorded per key for the bound check.
  Rng cfd_rng(seed ^ 0x5e47ecafeULL);
  std::map<serve::ConditionKey, uint64_t> launches_per_key;
  uint64_t cfd_completed = 0;
  server.set_launcher([&](const serve::ConditionKey& key,
                          const serve::FieldConditions&,
                          std::function<void(std::vector<uint8_t>, int64_t)>
                              done) {
    ++launches_per_key[key];
    const double runtime_s =
        std::clamp(cfd_rng.Gaussian(spec.refresh_mean_s,
                                    spec.refresh_mean_s / 7.0),
                   spec.refresh_mean_s / 2.0, spec.refresh_max_s);
    sim.Schedule(sim::SimTime::Seconds(runtime_s),
                 [&cfd_completed, &sim, done = std::move(done)] {
                   ++cfd_completed;
                   done(std::vector<uint8_t>{1}, sim.Now().micros());
                 });
    return true;
  });

  // Steady state, not cold start: in the deployed fabric every organic
  // CFD result is published into the server, so the working set is warm
  // before the first request. Pre-publish a bucket grid wide enough to
  // cover the drift envelope plus jitter tails; keys outside it still
  // exercise the miss -> single-flight path.
  serve::LoadGenConfig lg;
  for (int dw = -4; dw <= 4; ++dw) {
    for (int dd = -2; dd <= 2; ++dd) {
      for (int dt = -4; dt <= 4; ++dt) {
        for (int dh = -2; dh <= 2; ++dh) {
          serve::FieldConditions fc;
          fc.wind_ms = lg.base_wind_ms + dw * cfg.quantize.wind_step_ms;
          fc.dir_deg = lg.base_dir_deg + dd * cfg.quantize.dir_step_deg;
          fc.temp_c = lg.base_temp_c + dt * cfg.quantize.temp_step_c;
          fc.humidity_pct =
              lg.base_humidity_pct + dh * cfg.quantize.humidity_step_pct;
          server.Publish(fc, std::vector<uint8_t>{1}, 0);
        }
      }
    }
  }

  lg.seed = seed;
  lg.requesters = spec.requesters;
  lg.duration_s = spec.duration_s;
  // Deadline safely above the worst-case park (launch-queue wait plus the
  // refresh ceiling): parked waiters are a promise the server can keep,
  // so `late` measures accounting bugs, not impossible asks.
  lg.deadline_us = static_cast<int64_t>(4.0 * spec.refresh_max_s * 1e6);
  serve::LoadGenerator gen(sim, server, lg);
  gen.Start();
  sim.Run();

  const serve::LoadStats& ls = gen.stats();
  const serve::AdvisoryServer::Counters& c = server.counters();

  SweepResult r;
  r.spec = spec;
  r.submitted = ls.submitted;
  r.completed = ls.completed;
  r.served = ls.served;
  r.goodput = ls.goodput;
  r.late = ls.late;
  for (int i = 0; i < serve::kServeStatusCount; ++i) {
    r.responses[i] = ls.responses[i];
  }
  r.hits_fresh = server.cache().hits_fresh();
  r.hits_stale = server.cache().hits_stale();
  r.coalesced = c.coalesced;
  r.cfd_launched = c.flights_launched;
  r.cfd_completed = cfd_completed;
  r.distinct_keys = launches_per_key.size();
  for (const auto& [key, n] : launches_per_key) {
    r.max_launches_per_key = std::max(r.max_launches_per_key, n);
  }
  // The structural bound: a key's entry stays valid for `validity_us`
  // after each refresh, so launches per key cannot exceed one per window
  // across the run (+1 for the cold start).
  const double validity_s = static_cast<double>(cfg.cache.validity_us) / 1e6;
  r.launch_bound_per_key =
      1 + static_cast<uint64_t>(spec.duration_s / validity_s);
  r.within_bound = r.max_launches_per_key <= r.launch_bound_per_key;
  if (r.completed > 0) {
    const double n = static_cast<double>(r.completed);
    r.hit_coalesce_rate =
        static_cast<double>(r.hits_fresh + r.hits_stale + r.coalesced) / n;
    r.shed_rate = static_cast<double>(
                      r.responses[static_cast<int>(
                          serve::ServeStatus::kServedStaleShed)] +
                      r.responses[static_cast<int>(serve::ServeStatus::kShed)] +
                      r.responses[static_cast<int>(
                          serve::ServeStatus::kFailed)]) /
                  n;
    r.served_rate = ls.ServedRate();
  }
  r.p50_ms = ls.served_latency.Percentile(50.0) / 1e3;
  r.p99_ms = ls.served_latency.Percentile(99.0) / 1e3;
  r.overload_entries = dm.entries(resil::DegradedMode::kOverloadShed);
  r.overload_at_end = dm.active(resil::DegradedMode::kOverloadShed);
  r.storms = server.governor().storms();
  return r;
}

int Fail(const std::string& msg) {
  std::cerr << "bench_serve: " << msg << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  uint64_t seed = 42;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && a + 1 < argc) {
      out_path = argv[++a];
    } else if (arg == "--seed" && a + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++a]));
    } else {
      return Fail("unknown argument: " + arg +
                  " (usage: [--smoke] [--out PATH] [--seed N])");
    }
  }

  // Requester sweeps. The duration shrinks as the rate grows so each
  // sweep stays around a few million virtual events; the 10^6 point still
  // covers several governor windows and a full refresh latency.
  std::vector<SweepSpec> specs;
  if (smoke) {
    specs = {{1e3, 120.0, 20.0, 40.0}, {1e4, 60.0, 20.0, 40.0}};
  } else {
    specs = {{1e4, 1800.0}, {1e5, 900.0}, {1e6, 120.0}};
  }

  std::vector<SweepResult> results;
  for (const SweepSpec& s : specs) {
    results.push_back(RunSweep(s, seed));
  }

  Table t({"Requesters", "Req", "Served %", "Hit+coal %", "Shed %",
           "p50 (ms)", "p99 (ms)", "CFD runs", "Keys", "Overload"});
  for (const SweepResult& r : results) {
    t.AddRow({Table::Num(r.spec.requesters, 0),
              Table::Num(static_cast<double>(r.completed), 0),
              Table::Num(100.0 * r.served_rate, 2),
              Table::Num(100.0 * r.hit_coalesce_rate, 2),
              Table::Num(100.0 * r.shed_rate, 2), Table::Num(r.p50_ms, 2),
              Table::Num(r.p99_ms, 2),
              Table::Num(static_cast<double>(r.cfd_launched), 0),
              Table::Num(static_cast<double>(r.distinct_keys), 0),
              Table::Num(static_cast<double>(r.overload_entries), 0)});
  }
  t.Print(std::cout, "Advisory serving tier: open-loop load sweep");

  bool all_bounded = true;
  for (const SweepResult& r : results) {
    if (!r.within_bound) {
      all_bounded = false;
      std::cerr << "bench_serve: sweep " << r.spec.requesters
                << " broke the per-key invocation bound ("
                << r.max_launches_per_key << " > " << r.launch_bound_per_key
                << ")\n";
    }
  }

  std::ofstream out(out_path);
  if (!out) return Fail("cannot open " + out_path + " for writing");
  bench::JsonWriter jw(out);
  jw.BeginObject();
  jw.Field("schema", "xg-bench-serve-v1");
  jw.Field("smoke", smoke);
  jw.Field("seed", seed);
  jw.Key("sweeps");
  jw.BeginArray();
  for (const SweepResult& r : results) {
    jw.BeginObject();
    jw.Field("requesters", r.spec.requesters);
    jw.Field("duration_s", r.spec.duration_s);
    jw.Field("rate_per_s", r.spec.requesters / 60.0);
    jw.Field("submitted", r.submitted);
    jw.Field("completed", r.completed);
    jw.Field("served", r.served);
    jw.Field("goodput", r.goodput);
    jw.Field("late", r.late);
    jw.Key("responses");
    jw.BeginObject();
    for (int i = 0; i < serve::kServeStatusCount; ++i) {
      jw.Field(serve::ServeStatusName(static_cast<serve::ServeStatus>(i)),
               r.responses[i]);
    }
    jw.EndObject();
    jw.Field("hit_coalesce_rate", r.hit_coalesce_rate);
    jw.Field("shed_rate", r.shed_rate);
    jw.Field("served_rate", r.served_rate);
    jw.Field("p50_ms", r.p50_ms);
    jw.Field("p99_ms", r.p99_ms);
    jw.Field("cfd_launched", r.cfd_launched);
    jw.Field("cfd_completed", r.cfd_completed);
    jw.Field("distinct_keys", r.distinct_keys);
    jw.Field("max_launches_per_key", r.max_launches_per_key);
    jw.Field("launch_bound_per_key", r.launch_bound_per_key);
    jw.Field("within_bound", r.within_bound);
    jw.Field("overload_entries", r.overload_entries);
    jw.Field("overload_at_end", r.overload_at_end);
    jw.Field("storms", r.storms);
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();
  if (!jw.Complete()) return Fail("internal error: unbalanced JSON");
  out << "\n";
  out.close();
  if (!out) return Fail("write to " + out_path + " failed");
  std::cout << "Data written to " << out_path << "\n";
  return all_bounded ? 0 : 1;
}
