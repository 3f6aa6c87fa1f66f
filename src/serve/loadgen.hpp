// Seeded open-loop load generator for the advisory serving tier.
//
// Models a population of requesters (farm operators, spray rigs, twin
// dashboards) polling the advisory endpoint: the aggregate arrival
// process is open-loop Poisson at `requesters / request_period_s`
// requests per second — open-loop because real populations do not slow
// down when the service does, which is exactly the regime admission
// control exists for. Each request's field conditions are a Gaussian
// jitter around a slowly drifting base (so nearby requests quantize onto
// a small working set of keys, the cache-shaped workload the paper's
// >= 23-minute validity window implies), and a configurable fraction
// carries a DeadlineBudget.
//
// Everything draws from one forked xg::Rng stream, so a given (seed,
// config) produces a bit-identical request sequence — the bench and the
// chaos suite both depend on that.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/sim.hpp"
#include "obs/histogram.hpp"
#include "serve/server.hpp"

namespace xg::serve {

struct LoadGenConfig {
  uint64_t seed = 1;
  /// Simulated requester population; aggregate rate is
  /// requesters / request_period_s.
  double requesters = 1e5;
  /// Mean seconds between polls per requester.
  double request_period_s = 60.0;
  double start_s = 0.0;
  double duration_s = 1800.0;

  // Condition model: sinusoidal base drift + per-request Gaussian jitter.
  // Jitters are a fraction of one quantizer step so concurrent requests
  // land on a handful of adjacent buckets (requesters observe the same
  // field; they disagree by sensor noise, not by weather).
  double base_wind_ms = 3.0;
  double wind_jitter_ms = 0.2;
  double base_dir_deg = 200.0;
  double dir_jitter_deg = 8.0;
  double base_temp_c = 20.0;
  double temp_jitter_c = 0.4;
  double base_humidity_pct = 55.0;
  double humidity_jitter_pct = 1.5;
  double drift_period_s = 600.0;
  double drift_wind_ms = 1.0;
  double drift_temp_c = 3.0;

  /// Fraction of requests carrying a DeadlineBudget of `deadline_us`.
  double deadline_fraction = 1.0;
  int64_t deadline_us = 5'000'000;
};

/// Aggregated outcome of one load run.
struct LoadStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t responses[kServeStatusCount] = {};
  /// Responses that delivered a payload (fresh, stale, or shed-to-stale).
  uint64_t served = 0;
  /// Served with a deadline and inside it (the bench's good-put).
  uint64_t goodput = 0;
  uint64_t late = 0;  ///< served strictly past the deadline
  uint64_t with_deadline = 0;
  obs::Histogram served_latency;

  double ServedRate() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(served) /
                                static_cast<double>(completed);
  }
};

class XG_SIM_THREAD_CONFINED LoadGenerator {
 public:
  LoadGenerator(sim::Simulation& sim, AdvisoryServer& server,
                LoadGenConfig cfg);

  /// Schedule the arrival process; call before sim.Run(). Stats fill in
  /// as responses land.
  void Start();

  const LoadStats& stats() const { return stats_; }
  LoadGenConfig& config() { return cfg_; }

  /// The conditions the generator would draw at time `t_s` with jitter
  /// from `rng` — exposed so tests and the bench can reproduce the
  /// working set analytically.
  FieldConditions DrawConditions(double t_s, Rng& rng) const;

 private:
  void ScheduleNext();
  void Fire();

  sim::Simulation& sim_;
  AdvisoryServer& server_;
  LoadGenConfig cfg_;
  Rng rng_;
  double rate_per_s_ = 0.0;
  int64_t end_us_ = 0;
  LoadStats stats_;
};

}  // namespace xg::serve
