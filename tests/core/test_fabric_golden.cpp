// Golden pins on the fabric's public hooks: an FNV-1a hash over every
// advisory (kind, stale, reason), every stored-frame notification (time,
// drained), every result and every FabricMetrics field of three seeded
// runs. The cases between them reach both advisory paths (fresh results
// and stale re-serves) and both stored-frame paths (live appends and the
// store-and-forward drain); the test checks that they do. A refactor of
// the escalation workflow that is meant to keep behaviour keeps these
// hashes; a failure prints the new ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "serve/server.hpp"

namespace xg::core {
namespace {

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ull;
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Str(const std::string& s) {
    Pod(s.size());
    Bytes(s.data(), s.size());
  }
  void Samples(const SampleSet& s) {
    Pod(s.count());
    for (double x : s.samples()) Pod(x);
  }
  // Field by field: a serialized result carries its structs' padding.
  void Fields(const CfdResult& r) {
    for (double x : {r.trigger_time_s, r.complete_time_s, r.boundary_wind_ms,
                     r.boundary_dir_deg, r.boundary_temp_c,
                     r.interior_mean_speed_ms, r.interior_mean_temp_c}) {
      Pod(x);
    }
    Pod(r.spray_advisory_ok);
    for (const StationPrediction& p : r.predictions) {
      Pod(p.station_id);
      Pod(p.wind_speed_ms);
      Pod(p.temperature_c);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

struct HookCounts {
  uint64_t fresh_advisories = 0, stale_advisories = 0;
  uint64_t live_frames = 0, drained_frames = 0, results = 0;
};

struct Pinned {
  uint64_t hash = 0;
  HookCounts counts;
  uint64_t serve_cfd_runs = 0;
};

void HashMetrics(const FabricMetrics& m, Fnv& h) {
  h.Pod(m.telemetry_frames_sent);
  h.Pod(m.telemetry_frames_stored);
  h.Samples(m.telemetry_latency_ms);
  h.Pod(m.detection_cycles);
  h.Pod(m.alerts_raised);
  h.Pod(m.cfd_runs_completed);
  h.Samples(m.cfd_wait_s);
  h.Samples(m.cfd_runtime_s);
  h.Samples(m.alert_to_result_s);
  h.Samples(m.result_validity_s);
  h.Pod(m.breach_suspicions);
  h.Pod(m.robot_dispatches);
  h.Pod(m.patrol_legs);
  h.Pod(m.breaches_confirmed);
  h.Pod(m.breaches_found_on_patrol);
  h.Samples(m.breach_detection_delay_s);
  h.Pod(m.pilot_idle_node_seconds);
  h.Pod(m.spray_windows);
  h.Pod(m.frost_alerts);
  h.Pod(m.irrigation_advisories);
  h.Pod(m.qc_rejected_readings);
  h.Pod(m.readings_dropped);
  h.Pod(m.telemetry_frames_buffered);
  h.Pod(m.telemetry_frames_drained);
  h.Pod(m.stale_advisories_served);
  h.Pod(m.stale_advisories_expired);
  h.Pod(m.site_failovers);
  h.Pod(m.serve_cfd_runs);
  h.Pod(m.serve_cfd_rejected);
}

/// Runs `fabric` for `hours` with every hook recording into one hash.
/// `h` may already carry what the caller hashed during the run.
Pinned RunPinned(Fabric& fabric, double hours, Fnv& h) {
  Pinned out;
  fabric.on_advisory = [&](const Advisory& a) {
    h.Pod(static_cast<int>(a.kind));
    h.Pod(a.stale);
    h.Str(a.reason);
    ++(a.stale ? out.counts.stale_advisories : out.counts.fresh_advisories);
  };
  fabric.on_frame_stored = [&](double time_s, bool drained) {
    h.Pod(time_s);
    h.Pod(drained);
    ++(drained ? out.counts.drained_frames : out.counts.live_frames);
  };
  fabric.on_result = [&](const CfdResult& r) {
    h.Fields(r);
    ++out.counts.results;
  };
  fabric.Run(hours);
  HashMetrics(fabric.metrics(), h);
  out.hash = h.value();
  out.serve_cfd_runs = fabric.metrics().serve_cfd_runs;
  return out;
}

Pinned DefaultDay() {
  FabricConfig cfg;
  cfg.seed = 1;
  Fabric fabric(cfg);
  Fnv h;
  return RunPinned(fabric, 24.0, h);
}

// examples/chaos_demo.cpp's fabric scenario at seed 1: an access-link
// partition (store-and-forward and its drain), a primary-queue stall with
// site probes and a failover site (stale serves while suspected).
Pinned ChaosDemo() {
  FabricConfig cfg;
  cfg.seed = 1;
  cfg.site_probes = true;
  cfg.failover_site = hpc::PurdueAnvil();
  cfg.fault_plan = fault::FaultPlan(1);
  cfg.fault_plan.Partition("unl", "unl-gw", 1000.0, 600.0);
  cfg.fault_plan.QueueStall("ND-CRC", 2600.0, 6'400.0);
  Fabric fabric(cfg);
  fabric.ScheduleFront({.start_s = 2000.0, .ramp_s = 300.0, .d_wind_ms = 8.0});
  Fnv h;
  return RunPinned(fabric, 3.0, h);
}

// A day with the serving tier on: a 10-minute detection cycle and
// competing jobs keep alerts arriving while a CFD run is in flight, and a
// one-hour validity window lets the last result serve them stale.
// Requesters for conditions far from the organic ones make the server
// launch its own refreshes.
Pinned ServeDay() {
  FabricConfig cfg;
  cfg.seed = 1;
  cfg.serve.enabled = true;
  cfg.serve.cache.validity_us = 3'600'000'000;
  cfg.background_load = true;
  cfg.detect_period_s = 600.0;
  Fabric fabric(cfg);
  for (double t = 2.0; t < 24.0; t += 6.0) {
    fabric.ScheduleFront(
        {.start_s = t * 3600.0, .ramp_s = 600.0, .d_wind_ms = 5.0});
  }
  Fnv h;
  serve::AdvisoryServer* srv = fabric.advisory_server();
  for (int i = 0; i < 3; ++i) {
    const sim::SimTime at = sim::SimTime::Seconds(3000.0 + 28800.0 * i);
    fabric.simulation().ScheduleAt(at, [&h, srv, i] {
      serve::AdvisoryServer::Request req;
      req.conditions = serve::FieldConditions{15.0 + 2.0 * i, 90.0, 10.0, 60.0};
      srv->Submit(req, [&h](const serve::AdvisoryServer::Response& r) {
        h.Pod(static_cast<int>(r.status));
        h.Pod(r.latency_us);
        h.Pod(r.result_age_us);
        if (r.payload != nullptr) {
          h.Fields(DeserializeResult(*r.payload).value());
        }
      });
    });
  }
  return RunPinned(fabric, 24.0, h);
}

TEST(FabricGolden, HooksMatchParent) {
  const Pinned day = DefaultDay();
  const Pinned chaos = ChaosDemo();
  const Pinned serve = ServeDay();

  // Between them the cases reach every escalation path the hash pins.
  EXPECT_GT(day.counts.fresh_advisories, 0u);
  EXPECT_GT(day.counts.live_frames, 0u);
  EXPECT_GT(day.counts.results, 0u);
  EXPECT_GT(chaos.counts.stale_advisories, 0u);
  EXPECT_GT(chaos.counts.drained_frames, 0u);
  EXPECT_GT(serve.counts.stale_advisories, 0u);
  EXPECT_GT(serve.serve_cfd_runs, 0u);

  EXPECT_EQ(day.hash, 0x23e5e272af4f670dull)
      << std::hex << "default day: 0x" << day.hash;
  EXPECT_EQ(chaos.hash, 0x245cc53976b445c4ull)
      << std::hex << "chaos demo: 0x" << chaos.hash;
  EXPECT_EQ(serve.hash, 0xa2a9b28136ad98baull)
      << std::hex << "serve day: 0x" << serve.hash;
}

}  // namespace
}  // namespace xg::core
