// Overload chaos for the advisory serving tier, at fabric level:
//
//   - cold-cache thundering herd: hundreds of requesters land on an empty
//     cache at once; single-flight coalescing must collapse them to
//     exactly one CFD run per quantized key, with zero deadline-
//     accounting violations;
//   - herd during a 5G access outage: the serving tier composes with
//     store-and-forward — telemetry parks in the buffer while advisory
//     requests keep being served through the pilot tier;
//   - overload entry/exit: a sustained shed storm enters the
//     overload_shed degraded mode (with hysteresis), dumps the flight
//     recorder, and exits once the storm passes.
//
// Every scenario is bit-reproducible from its seed — asserted by running
// it twice and comparing the full response transcript.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "resil/degraded.hpp"
#include "serve/server.hpp"

namespace xg::core {
namespace {

/// One line per response, in arrival order: the full transcript two
/// same-seed runs must agree on byte for byte.
using Transcript = std::vector<std::string>;

std::string Line(const serve::AdvisoryServer::Response& r) {
  return std::string(serve::ServeStatusName(r.status)) + " " +
         serve::AdmitDecisionName(r.admit) + " " +
         std::to_string(r.latency_us) + " " + std::to_string(r.result_age_us) +
         " " + (r.late ? "late" : "ontime");
}

serve::FieldConditions Herd(int key_index) {
  // Wind buckets far from the organic boundary conditions so the fabric's
  // own published results never collide with the herd's keys.
  return serve::FieldConditions{20.0 + 1.0 * key_index, 45.0, 8.0, 70.0};
}

// ---------------------------------------------------------------------------
// Cold-cache thundering herd: one CFD run per quantized key
// ---------------------------------------------------------------------------

struct HerdSummary {
  Transcript transcript;
  uint64_t cfd_runs = 0, cfd_rejected = 0;
  uint64_t coalesced = 0, requests = 0, late = 0;
  uint64_t served_fresh = 0;
};

HerdSummary RunColdHerd(uint64_t seed) {
  FabricConfig cfg;
  cfg.seed = seed;
  cfg.serve.enabled = true;
  Fabric fabric(cfg);
  serve::AdvisoryServer* srv = fabric.advisory_server();

  HerdSummary out;
  // 4 distinct condition buckets x 50 requesters each, all in one
  // reporting period; half the requesters carry a generous (30 min)
  // deadline so late-accounting is exercised, not just skipped.
  fabric.simulation().ScheduleAt(sim::SimTime::Seconds(1800.0), [&] {
    const int64_t now_us = fabric.simulation().Now().micros();
    for (int i = 0; i < 200; ++i) {
      serve::AdvisoryServer::Request req;
      req.conditions = Herd(i % 4);
      if (i % 2 == 0) {
        req.budget = obs::slo::DeadlineBudget(now_us, 30ll * 60 * 1'000'000);
      }
      srv->Submit(req, [&out](const serve::AdvisoryServer::Response& r) {
        out.transcript.push_back(Line(r));
      });
    }
  });
  fabric.Run(2.0);

  out.cfd_runs = fabric.metrics().serve_cfd_runs;
  out.cfd_rejected = fabric.metrics().serve_cfd_rejected;
  out.coalesced = srv->counters().coalesced;
  out.requests = srv->counters().requests;
  out.late = srv->counters().late_responses;
  out.served_fresh = srv->Served(serve::ServeStatus::kServedFresh);
  return out;
}

TEST(ChaosServe, ColdHerdCollapsesToOneCfdRunPerKey) {
  const HerdSummary out = RunColdHerd(42);
  // The invocation bound: 200 requesters over 4 quantized keys means
  // exactly 4 CFD refreshes, nothing rejected by the bounded pilot.
  EXPECT_EQ(out.cfd_runs, 4u);
  EXPECT_EQ(out.cfd_rejected, 0u);
  EXPECT_EQ(out.requests, 200u);
  EXPECT_EQ(out.coalesced, 196u);  // everyone but the 4 flight leaders
  // Everyone got a response, fresh from the shared run.
  ASSERT_EQ(out.transcript.size(), 200u);
  EXPECT_EQ(out.served_fresh, 200u);
  // Zero deadline-accounting violations: every budgeted response landed
  // inside its 30-minute window (the CFD refresh takes ~7 minutes).
  EXPECT_EQ(out.late, 0u);
  for (const auto& line : out.transcript) {
    EXPECT_NE(line.find("ontime"), std::string::npos) << line;
  }
}

TEST(ChaosServe, ColdHerdIsBitIdenticalPerSeed) {
  const HerdSummary a = RunColdHerd(7);
  const HerdSummary b = RunColdHerd(7);
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(a.cfd_runs, b.cfd_runs);
  EXPECT_EQ(a.coalesced, b.coalesced);
  EXPECT_EQ(a.late, b.late);
}

// ---------------------------------------------------------------------------
// Herd during a 5G access outage: serving composes with store-and-forward
// ---------------------------------------------------------------------------

struct OutageHerdSummary {
  Transcript transcript;
  uint64_t cfd_runs = 0;
  uint64_t buffered = 0, drained = 0;
  std::string timeline;
};

OutageHerdSummary RunOutageHerd(uint64_t seed) {
  FabricConfig cfg;
  cfg.seed = seed;
  cfg.serve.enabled = true;
  // The UE loses its gateway for 10 minutes; the herd arrives mid-outage.
  cfg.fault_plan = fault::FaultPlan(seed);
  cfg.fault_plan.Partition("unl", "unl-gw", 1000.0, 600.0);
  Fabric fabric(cfg);
  serve::AdvisoryServer* srv = fabric.advisory_server();

  OutageHerdSummary out;
  fabric.simulation().ScheduleAt(sim::SimTime::Seconds(1300.0), [&] {
    for (int i = 0; i < 120; ++i) {
      serve::AdvisoryServer::Request req;
      req.conditions = Herd(i % 3);
      srv->Submit(req, [&out](const serve::AdvisoryServer::Response& r) {
        out.transcript.push_back(Line(r));
      });
    }
  });
  fabric.Run(2.0);

  out.cfd_runs = fabric.metrics().serve_cfd_runs;
  out.buffered = fabric.metrics().telemetry_frames_buffered;
  out.drained = fabric.metrics().telemetry_frames_drained;
  out.timeline = fabric.degraded_modes().FormatTimeline();
  return out;
}

TEST(ChaosServe, HerdDuringAccessOutageComposesWithStoreForward) {
  const OutageHerdSummary out = RunOutageHerd(42);
  // Store-and-forward did its usual job on the telemetry path: both
  // outage-window frames parked and drained (same as the resilience
  // chaos suite without a herd).
  EXPECT_EQ(out.buffered, 2u);
  EXPECT_EQ(out.drained, 2u);
  EXPECT_NE(out.timeline.find("store_forward"), std::string::npos);
  // Meanwhile the serving tier kept working: the herd coalesced onto one
  // CFD refresh per key through the pilot tier, which does not cross the
  // partitioned access hop.
  EXPECT_EQ(out.cfd_runs, 3u);
  ASSERT_EQ(out.transcript.size(), 120u);
  for (const auto& line : out.transcript) {
    EXPECT_NE(line.find("served_fresh"), std::string::npos) << line;
  }
  // The overload mode never engaged: a herd is not an overload as long as
  // coalescing absorbs it.
  EXPECT_EQ(out.timeline.find("overload_shed"), std::string::npos)
      << out.timeline;
}

TEST(ChaosServe, OutageHerdIsBitIdenticalPerSeed) {
  const OutageHerdSummary a = RunOutageHerd(13);
  const OutageHerdSummary b = RunOutageHerd(13);
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(a.cfd_runs, b.cfd_runs);
  EXPECT_EQ(a.buffered, b.buffered);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.timeline, b.timeline);
}

// ---------------------------------------------------------------------------
// Overload entry/exit hysteresis + the flight-recorder storm dump
// ---------------------------------------------------------------------------

struct OverloadSummary {
  Transcript transcript;
  uint64_t entries = 0;
  bool active_at_end = true;
  std::string timeline;
  uint64_t storms = 0;
  uint64_t dumps = 0;
  bool dump_tagged_overload = false;
};

OverloadSummary RunOverloadStorm(uint64_t seed) {
  FabricConfig cfg;
  cfg.seed = seed;
  cfg.serve.enabled = true;
  // Tiny queues and fast windows so a scripted burst train is a genuine
  // overload: ~2 admits per 40-request burst, >90% shed per window.
  cfg.serve.admission.queue_capacity = 2;
  cfg.serve.admission.service_us = 1'000;
  cfg.serve.overload.window_us = 100'000;
  cfg.serve.overload.enter_shed_rate = 0.3;
  cfg.serve.overload.enter_windows = 2;
  cfg.serve.overload.exit_shed_rate = 0.05;
  cfg.serve.overload.exit_windows = 3;
  cfg.serve.overload.min_requests = 8;
  cfg.serve.overload.storm_shed_rate = 0.5;
  Fabric fabric(cfg);
  serve::AdvisoryServer* srv = fabric.advisory_server();

  OverloadSummary out;
  auto record = [&out](const serve::AdvisoryServer::Response& r) {
    out.transcript.push_back(Line(r));
  };
  // Storm: 8 bursts of 40 requests, one per 100 ms governor window.
  const double t0 = 600.0;
  for (int burst = 0; burst < 8; ++burst) {
    fabric.simulation().ScheduleAt(
        sim::SimTime::Seconds(t0 + 0.1 * burst), [&, burst] {
          for (int i = 0; i < 40; ++i) {
            serve::AdvisoryServer::Request req;
            req.conditions = Herd(0);
            srv->Submit(req, record);
          }
        });
  }
  // Calm: a trickle (2 per window, below min_requests) lets the governor
  // close calm windows and exit with hysteresis.
  for (int i = 0; i < 40; ++i) {
    fabric.simulation().ScheduleAt(
        sim::SimTime::Seconds(t0 + 2.0 + 0.05 * i), [&] {
          serve::AdvisoryServer::Request req;
          req.conditions = Herd(1);
          srv->Submit(req, record);
        });
  }
  fabric.Run(1.0);

  const resil::DegradedModeManager& dm = fabric.degraded_modes();
  out.entries = dm.entries(resil::DegradedMode::kOverloadShed);
  out.active_at_end = dm.active(resil::DegradedMode::kOverloadShed);
  out.timeline = dm.FormatTimeline();
  out.storms = srv->governor().storms();
  obs::slo::FlightRecorder* fr = fabric.flight_recorder();
  if (fr != nullptr) {
    out.dumps = fr->dumps_taken();
    out.dump_tagged_overload =
        fr->last_dump().find("overload") != std::string::npos;
  }
  return out;
}

TEST(ChaosServe, OverloadEntersShedsAndExitsWithHysteresis) {
  const OverloadSummary out = RunOverloadStorm(42);
  // Exactly one degraded episode: hysteresis holds the mode through the
  // storm instead of flapping per window, and the calm phase closes it.
  EXPECT_EQ(out.entries, 1u);
  EXPECT_FALSE(out.active_at_end);
  EXPECT_NE(out.timeline.find("overload_shed"), std::string::npos);
  EXPECT_EQ(out.timeline.find("open"), std::string::npos)
      << "the overload episode must have closed:\n"
      << out.timeline;
  // The storm crossed the dump threshold: the flight recorder holds an
  // overload-tagged dump (cooldown caps it at one per storm).
  EXPECT_EQ(out.storms, 1u);
  EXPECT_GE(out.dumps, 1u);
  EXPECT_TRUE(out.dump_tagged_overload);
  // Every one of the 360 requests got exactly one response.
  EXPECT_EQ(out.transcript.size(), 360u);
}

TEST(ChaosServe, OverloadStormIsBitIdenticalPerSeed) {
  const OverloadSummary a = RunOverloadStorm(99);
  const OverloadSummary b = RunOverloadStorm(99);
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.storms, b.storms);
  EXPECT_EQ(a.dumps, b.dumps);
}

// ---------------------------------------------------------------------------
// Golden transcripts: the scenarios' response streams, pinned by hash
// ---------------------------------------------------------------------------

uint64_t Fnv1a(const Transcript& transcript) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& line : transcript) {
    for (const char c : line + "\n") {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Same-seed reruns above prove each scenario deterministic; these pin the
// streams themselves, so a change in which request is served, shed or
// parked, or when, fails here. Build this test against the previous tree
// to confirm the old values before updating them.
TEST(ChaosServe, TranscriptsMatchGolden) {
  const uint64_t herd = Fnv1a(RunColdHerd(42).transcript);
  const uint64_t outage = Fnv1a(RunOutageHerd(42).transcript);
  const uint64_t storm = Fnv1a(RunOverloadStorm(42).transcript);
  EXPECT_EQ(herd, 0x263d87764799c1bbull) << std::hex << "cold herd 0x" << herd;
  EXPECT_EQ(outage, 0xf39eda56df6fa31dull) << std::hex << "outage herd 0x" << outage;
  EXPECT_EQ(storm, 0x69a896c832eb759full) << std::hex << "overload storm 0x" << storm;
}

}  // namespace
}  // namespace xg::core
