#include "serve/server.hpp"

#include <cstdio>
#include <string>
#include <utility>

namespace xg::serve {

const char* ServeStatusName(ServeStatus s) {
  switch (s) {
    case ServeStatus::kServedFresh:
      return "served_fresh";
    case ServeStatus::kServedStale:
      return "served_stale";
    case ServeStatus::kServedStaleShed:
      return "served_stale_shed";
    case ServeStatus::kShed:
      return "shed";
    case ServeStatus::kFailed:
      return "failed";
  }
  return "?";
}

AdvisoryServer::AdvisoryServer(sim::Simulation& sim, ServeConfig cfg)
    : sim_(sim),
      cfg_(cfg),
      quantizer_(cfg.quantize),
      cache_(cfg.cache),
      admission_(cfg.cache.shards, cfg.admission),
      governor_(cfg.overload) {
  if (cfg_.max_concurrent_cfd == 0) cfg_.max_concurrent_cfd = 1;
  governor_.set_transition_hook(
      [this](bool overloaded, int64_t now_us, double rate) {
        OnOverloadTransition(overloaded, now_us, rate);
      });
  governor_.set_storm_hook(
      [this](int64_t now_us, double rate, uint64_t shed, uint64_t total) {
        OnStorm(now_us, rate, shed, total);
      });
}

void AdvisoryServer::set_flight_recorder(obs::slo::FlightRecorder* flight) {
  flight_ = flight;
}

void AdvisoryServer::AttachObservability(obs::MetricsRegistry* registry) {
  if (!registry) return;
  using Type = obs::MetricSample::Type;
  registry->RegisterCounter("xg_serve_requests_total", {},
                            "advisory requests submitted",
                            &counters_.requests);
  for (int i = 0; i < kServeStatusCount; ++i) {
    registry->RegisterCounter(
        "xg_serve_responses_total",
        {{"status", ServeStatusName(static_cast<ServeStatus>(i))}},
        "responses by status", &counters_.responses[i]);
  }
  registry->RegisterCounter("xg_serve_coalesced_total", {},
                            "followers parked on in-flight CFD runs",
                            &counters_.coalesced);
  registry->RegisterCounter("xg_serve_cfd_launched_total", {},
                            "CFD invocations requested",
                            &counters_.flights_launched);
  registry->RegisterCounter("xg_serve_cfd_failed_total", {},
                            "failed or rejected CFD flights",
                            &counters_.flights_failed);
  registry->RegisterCounter("xg_serve_late_responses_total", {},
                            "responses served strictly past their deadline",
                            &counters_.late_responses);
  registry->RegisterCallback(
      "xg_serve_cache_hits_fresh_total", {}, "fresh cache hits",
      [this] { return static_cast<double>(cache_.hits_fresh()); },
      Type::kCounter);
  registry->RegisterCallback(
      "xg_serve_cache_hits_stale_total", {}, "stale-but-valid cache hits",
      [this] { return static_cast<double>(cache_.hits_stale()); },
      Type::kCounter);
  registry->RegisterCallback(
      "xg_serve_cache_misses_total", {}, "cache misses",
      [this] { return static_cast<double>(cache_.misses()); }, Type::kCounter);
  registry->RegisterCallback(
      "xg_serve_shed_total", {}, "admission sheds (all reasons)",
      [this] { return static_cast<double>(admission_.shed_total()); },
      Type::kCounter);
  registry->RegisterCallback(
      "xg_serve_overload_storms_total", {}, "shed-storm flight dumps",
      [this] { return static_cast<double>(governor_.storms()); },
      Type::kCounter);
  registry->RegisterCallback(
      "xg_serve_overloaded", {}, "1 while the overload governor is tripped",
      [this] { return governor_.overloaded() ? 1.0 : 0.0; });
  registry->RegisterCallback(
      "xg_serve_flights_in_air", {}, "CFD flights currently running",
      [this] { return static_cast<double>(active_flights_); });
  registry->RegisterHistogram("xg_serve_latency_ms", {},
                              "advisory serve latency (submit to response)",
                              &latency_);
}

void AdvisoryServer::Respond(Waiter& w, ServeStatus status,
                             AdmitDecision admit,
                             const std::vector<uint8_t>* payload,
                             int64_t result_age_us) {
  const int64_t now = NowUs();
  Response r;
  r.status = status;
  r.admit = admit;
  r.payload = payload;
  r.latency_us = now - w.submit_us;
  r.result_age_us = result_age_us;
  r.late = now > w.deadline_us;
  ++counters_.responses[static_cast<int>(status)];
  if (r.late) ++counters_.late_responses;
  latency_.Record(r.latency_us);
  const bool shed_like =
      status == ServeStatus::kServedStaleShed || status == ServeStatus::kShed ||
      status == ServeStatus::kFailed;
  governor_.Record(now, shed_like);
  if (w.cb) w.cb(r);
}

void AdvisoryServer::RespondFallback(Waiter& w, const HashedKey& key,
                                     AdmitDecision admit) {
  const int64_t now = NowUs();
  // Per-key entry first (the nearest conditions), then the cache-wide
  // latest valid result — the overload analogue of Fabric's stale-serve.
  auto hit = cache_.Lookup(key, now);
  if (hit.payload != nullptr) {
    Respond(w, ServeStatus::kServedStaleShed, admit, hit.payload, hit.age_us);
    return;
  }
  if (const auto* latest = cache_.LatestValid(now)) {
    Respond(w, ServeStatus::kServedStaleShed, admit, latest,
            now - cache_.latest_complete_us());
    return;
  }
  Respond(w, ServeStatus::kShed, admit, nullptr, 0);
}

void AdvisoryServer::Submit(const Request& req, Callback cb) {
  const int64_t now = NowUs();
  ++counters_.requests;
  const HashedKey key = quantizer_.KeyFor(req.conditions);
  const size_t shard = key.ShardOf(cache_.config().shards);
  const bool has_deadline = req.budget.open();
  Waiter w{std::move(cb),
           has_deadline ? req.budget.opened_us() + req.budget.budget_us()
                        : kNoDeadline,
           now};
  const auto ticket =
      admission_.Admit(shard, now, has_deadline ? w.deadline_us - now : -1);
  if (ticket.decision != AdmitDecision::kAdmit) {
    // Shed fast path: no queueing, serve whatever valid result exists.
    RespondFallback(w, key, ticket.decision);
    return;
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(admitted_.size());
    admitted_.push_back(Admitted{std::move(w), key, req.conditions});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    admitted_[slot] = Admitted{std::move(w), key, req.conditions};
  }
  sim_.Schedule(sim::SimTime::Micros(ticket.sojourn_us),
                [this, slot] { ServeAdmitted(slot); });
}

void AdvisoryServer::ServeAdmitted(uint32_t slot) {
  // Move the request out first: answering it may submit another request,
  // which may reuse the slot or grow the slab.
  Admitted& a = admitted_[slot];
  Waiter w = std::move(a.waiter);
  const HashedKey key = a.key;
  const FieldConditions conditions = a.conditions;
  free_slots_.push_back(slot);
  auto hit = cache_.Lookup(key, NowUs());
  if (hit.outcome == AdvisoryCache::Outcome::kFresh) {
    Respond(w, ServeStatus::kServedFresh, AdmitDecision::kAdmit, hit.payload,
            hit.age_us);
  } else if (hit.outcome == AdvisoryCache::Outcome::kStale) {
    Respond(w, ServeStatus::kServedStale, AdmitDecision::kAdmit, hit.payload,
            hit.age_us);
  } else {
    JoinFlight(key, conditions, std::move(w));
  }
}

void AdvisoryServer::JoinFlight(const HashedKey& key,
                                const FieldConditions& conditions, Waiter w) {
  const int64_t now = NowUs();
  // A deadline-carrying waiter only parks when the refresh estimate fits
  // the remaining budget (inclusive, per the budget rule). Otherwise the
  // stale fast path beats a guaranteed-late fresh result.
  if (w.deadline_us - now < cfg_.expected_refresh_us) {
    RespondFallback(w, key, AdmitDecision::kAdmit);
    return;
  }
  Flight* fl = flights_.Find(key);
  if (fl == nullptr) {
    const bool can_fly = active_flights_ < cfg_.max_concurrent_cfd;
    if (!can_fly && launch_queue_.size() >= cfg_.max_pending_flights) {
      // Flight tier saturated — bounded by design; divert.
      RespondFallback(w, key, AdmitDecision::kAdmit);
      return;
    }
    flights_.Insert(key, Flight{conditions, false, {}})
        .waiters.push_back(std::move(w));
    if (can_fly) {
      LaunchFlight(key);
    } else {
      launch_queue_.push_back(key);
    }
    return;
  }
  if (fl->waiters.size() >= cfg_.max_waiters_per_flight) {
    RespondFallback(w, key, AdmitDecision::kAdmit);
    return;
  }
  ++counters_.coalesced;
  fl->waiters.push_back(std::move(w));
}

void AdvisoryServer::LaunchFlight(const HashedKey& key) {
  Flight* fl = flights_.Find(key);
  if (fl == nullptr) return;
  fl->launched = true;
  ++active_flights_;
  ++counters_.flights_launched;
  if (!launcher_) {
    FailFlight(key);
    return;
  }
  // A copy: the launcher may re-enter the server and move the flight.
  const FieldConditions conditions = fl->conditions;
  const bool accepted = launcher_(
      key.key, conditions,
      [this, key](std::vector<uint8_t> payload, int64_t complete_us) {
        OnFlightDone(key, std::move(payload), complete_us);
      });
  if (!accepted) FailFlight(key);
}

void AdvisoryServer::OnFlightDone(const HashedKey& key,
                                  std::vector<uint8_t> payload,
                                  int64_t complete_us) {
  Flight* found = flights_.Find(key);
  if (found == nullptr) return;  // absorbed by a Publish meanwhile
  if (payload.empty()) {
    FailFlight(key);
    return;
  }
  Flight fl = std::move(*found);
  flights_.Erase(key);
  if (active_flights_ > 0) --active_flights_;
  ++counters_.flights_completed;
  cache_.Insert(key, std::move(payload), complete_us);
  const int64_t now = NowUs();
  auto hit = cache_.Lookup(key, now);
  for (Waiter& w : fl.waiters) {
    Respond(w, ServeStatus::kServedFresh, AdmitDecision::kAdmit, hit.payload,
            hit.age_us);
  }
  PumpLaunchQueue();
}

void AdvisoryServer::FailFlight(const HashedKey& key) {
  Flight* found = flights_.Find(key);
  if (found == nullptr) return;
  Flight fl = std::move(*found);
  flights_.Erase(key);
  if (fl.launched && active_flights_ > 0) --active_flights_;
  ++counters_.flights_failed;
  if (flight_) {
    flight_->Note("serve", "cfd flight failed key=" + key.key.Describe() +
                               " (" + std::to_string(fl.waiters.size()) +
                               " waiters)");
  }
  for (Waiter& w : fl.waiters) {
    const int64_t now = NowUs();
    if (const auto* latest = cache_.LatestValid(now)) {
      Respond(w, ServeStatus::kServedStaleShed, AdmitDecision::kAdmit, latest,
              now - cache_.latest_complete_us());
    } else {
      Respond(w, ServeStatus::kFailed, AdmitDecision::kAdmit, nullptr, 0);
    }
  }
  PumpLaunchQueue();
}

void AdvisoryServer::PumpLaunchQueue() {
  while (active_flights_ < cfg_.max_concurrent_cfd && !launch_queue_.empty()) {
    const HashedKey key = launch_queue_.front();
    launch_queue_.pop_front();
    if (flights_.Find(key) == nullptr) continue;  // absorbed by a Publish
    LaunchFlight(key);
  }
}

void AdvisoryServer::Publish(const FieldConditions& conditions,
                             std::vector<uint8_t> payload,
                             int64_t complete_us) {
  const HashedKey key = quantizer_.KeyFor(conditions);
  cache_.Insert(key, std::move(payload), complete_us);
  // A pending (not yet launched) flight on this key is now redundant: the
  // fabric's own run was the single flight. Serve its waiters from the
  // fresh insert and drop it from the launch queue lazily (PumpLaunchQueue
  // skips erased keys).
  Flight* found = flights_.Find(key);
  if (found == nullptr || found->launched) return;
  Flight fl = std::move(*found);
  flights_.Erase(key);
  ++counters_.flights_absorbed;
  const int64_t now = NowUs();
  auto hit = cache_.Lookup(key, now);
  for (Waiter& w : fl.waiters) {
    Respond(w, ServeStatus::kServedFresh, AdmitDecision::kAdmit, hit.payload,
            hit.age_us);
  }
}

void AdvisoryServer::OnOverloadTransition(bool overloaded, int64_t now_us,
                                          double rate) {
  char detail[64];
  std::snprintf(detail, sizeof(detail), "shed rate %.3f", rate);
  if (degraded_) {
    if (overloaded) {
      degraded_->Enter(resil::DegradedMode::kOverloadShed, now_us, detail);
    } else {
      degraded_->Exit(resil::DegradedMode::kOverloadShed, now_us);
    }
  } else if (flight_) {
    // The manager notes transitions itself when wired; cover the bare case.
    flight_->Note("serve", std::string(overloaded ? "enter" : "exit") +
                               " overload_shed " + detail);
  }
}

void AdvisoryServer::OnStorm(int64_t now_us, double rate, uint64_t shed,
                             uint64_t total) {
  if (!flight_) return;
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "shed rate %.3f (%llu/%llu) at t=%.3fs", rate,
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(total),
                static_cast<double>(now_us) * 1e-6);
  flight_->Note("serve", std::string("shed storm: ") + detail);
  flight_->Dump("overload", detail);
}

}  // namespace xg::serve
