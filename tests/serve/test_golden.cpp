// Golden response stream for the advisory serving tier.
//
// A seeded 24 h day of open-loop requests, with conditions drawn from
// LoadGenerator's drifting condition model, drives every server path:
// fresh and stale hits, coalescing, the bounded launch queue, Publish
// absorption, failed and rejected flights, shard eviction and expiry, and
// the shed reasons. The (status, admit, latency_us, result_age_us)
// sequence of its responses is pinned by count and FNV-1a hash. The
// server's key indexes are hash tables, so an iteration-order leak from
// them into any response would change the hash.
//
// On a deliberate behaviour change the failure prints the new values;
// build this test against the previous tree to confirm the old ones
// before updating them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/sim.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"

namespace xg::serve {
namespace {

constexpr int64_t kDayUs = 86'400'000'000;
constexpr int64_t kPublishPeriodUs = 900'000'000;
/// The CFD backend fails every run before this, and nothing is published:
/// failed flights then have no valid result to fall back on.
constexpr int64_t kBackendUpUs = 7'200'000'000;

ServeConfig DayConfig() {
  ServeConfig cfg;
  cfg.enabled = true;
  // Small shards so the drifting working set evicts; a slow modeled
  // service so hot shards queue and shed; a narrow flight tier so misses
  // wait in, and overflow, the launch queue.
  cfg.cache.shard_capacity = 6;
  cfg.admission.service_us = 250'000;
  cfg.admission.queue_capacity = 6;
  cfg.admission.target_us = 750'000;
  cfg.admission.interval_us = 2'000'000;
  cfg.max_concurrent_cfd = 2;
  cfg.max_pending_flights = 3;
  cfg.max_waiters_per_flight = 40;
  cfg.expected_refresh_us = 400'000'000;
  return cfg;
}

LoadGenConfig DayLoad() {
  LoadGenConfig lg;
  lg.seed = 2024;
  lg.requesters = 240.0;  // 4 requests per second
  lg.duration_s = 86'400.0;
  lg.drift_period_s = 7'200.0;
  lg.drift_wind_ms = 2.0;
  lg.drift_temp_c = 6.0;
  return lg;
}

class Day {
 public:
  Day()
      : server_(sim_, DayConfig()),
        model_(sim_, server_, DayLoad()),
        arrivals_(DayLoad().seed),
        cfd_(DayLoad().seed ^ 0xcfdull) {
    server_.set_launcher([this](const ConditionKey&, const FieldConditions&,
                                std::function<void(std::vector<uint8_t>,
                                                   int64_t)>
                                    done) {
      ++launches_;
      if (launches_ % 11 == 0) return false;  // bounded pilot refuses
      const bool fails =
          sim_.Now().micros() < kBackendUpUs || launches_ % 7 == 0;
      const double runtime_s =
          std::clamp(cfd_.Gaussian(300.0, 60.0), 60.0, 600.0);
      sim_.Schedule(sim::SimTime::Seconds(runtime_s),
                    [this, fails, done = std::move(done)] {
                      done(fails ? std::vector<uint8_t>{}
                                 : std::vector<uint8_t>{7},
                           sim_.Now().micros());
                    });
      return true;
    });
    sim::Periodic(sim_, sim::SimTime::Micros(kBackendUpUs),
                  sim::SimTime::Micros(kPublishPeriodUs), [this] {
                    server_.Publish(
                        model_.DrawConditions(sim_.Now().seconds(), cfd_),
                        {9}, sim_.Now().micros());
                    return sim_.Now().micros() < kDayUs;
                  });
    sim_.ScheduleAt(sim::SimTime::Micros(0), [this] { Arrive(); });
  }

  void Run() { sim_.Run(); }

  const AdvisoryServer& server() const { return server_; }
  uint64_t responses() const { return responses_; }
  uint64_t hash() const { return hash_; }
  uint64_t by_status(ServeStatus s) const {
    return by_status_[static_cast<int>(s)];
  }
  uint64_t by_admit(AdmitDecision d) const {
    return by_admit_[static_cast<int>(d)];
  }

 private:
  void Arrive() {
    const int64_t now = sim_.Now().micros();
    AdvisoryServer::Request req;
    req.conditions = model_.DrawConditions(sim_.Now().seconds(), arrivals_);
    // A third carry no deadline, a third a short one (shed when the queue
    // is long), a third one long enough to park on a flight.
    const double u = arrivals_.Uniform();
    if (u >= 1.0 / 3.0) {
      req.budget = obs::slo::DeadlineBudget(
          now, u < 2.0 / 3.0 ? 1'000'000 : 1'800'000'000);
    }
    server_.Submit(req, [this](const AdvisoryServer::Response& r) {
      Record(r);
    });
    const double rate = DayLoad().requesters / DayLoad().request_period_s;
    const int64_t next =
        now + std::max<int64_t>(
                  1, std::llround(arrivals_.Exponential(1.0 / rate) * 1e6));
    if (next < kDayUs) {
      sim_.ScheduleAt(sim::SimTime::Micros(next), [this] { Arrive(); });
    }
  }

  void Record(const AdvisoryServer::Response& r) {
    ++responses_;
    ++by_status_[static_cast<int>(r.status)];
    ++by_admit_[static_cast<int>(r.admit)];
    Mix(static_cast<uint64_t>(r.status));
    Mix(static_cast<uint64_t>(r.admit));
    Mix(static_cast<uint64_t>(r.latency_us));
    Mix(static_cast<uint64_t>(r.result_age_us));
  }

  void Mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  sim::Simulation sim_;
  AdvisoryServer server_;
  LoadGenerator model_;  ///< condition model only; never started
  Rng arrivals_, cfd_;
  uint64_t launches_ = 0;
  uint64_t responses_ = 0;
  uint64_t by_status_[kServeStatusCount] = {};
  uint64_t by_admit_[4] = {};
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

TEST(ServeGolden, LoadGeneratorDay) {
  Day day;
  day.Run();
  const AdvisoryServer& srv = day.server();
  const AdvisoryServer::Counters& c = srv.counters();
  const AdvisoryCache& cache = srv.cache();

  // Every path the hash is meant to guard was taken.
  EXPECT_EQ(day.responses(), c.requests);
  EXPECT_GT(day.by_status(ServeStatus::kServedFresh), 0u);
  EXPECT_GT(day.by_status(ServeStatus::kServedStale), 0u);
  EXPECT_GT(day.by_status(ServeStatus::kServedStaleShed), 0u);
  EXPECT_GT(day.by_status(ServeStatus::kShed), 0u);
  EXPECT_GT(day.by_status(ServeStatus::kFailed), 0u);
  EXPECT_GT(day.by_admit(AdmitDecision::kShedQueueFull), 0u);
  EXPECT_GT(day.by_admit(AdmitDecision::kShedDeadline), 0u);
  EXPECT_GT(day.by_admit(AdmitDecision::kShedSojourn), 0u);
  EXPECT_GT(c.coalesced, 0u);
  EXPECT_GT(c.flights_absorbed, 0u);
  EXPECT_GT(c.flights_failed, 0u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(cache.expired(), 0u);

  EXPECT_EQ(day.responses(), 344'473u);
  EXPECT_EQ(day.hash(), 0x33c9517896495ccfull)
      << std::hex << "hash 0x" << day.hash();
}

}  // namespace
}  // namespace xg::serve
