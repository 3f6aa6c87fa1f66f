// Fabric-level chaos: the degraded modes working together end to end.
//
//   - store-and-forward: a scripted 10-minute 5G access outage parks
//     telemetry in the bounded buffer and drains it on recovery with
//     exactly-once delivery at the repository;
//   - stale-but-valid serving: a stalled interactive queue leaves alerts
//     without a fresh CFD run, so advisories are re-issued from the last
//     result inside its validity window and refused beyond it;
//   - acceptance scenario: outage + queue stall + failover site, asserting
//     the ISSUE's criteria (exactly-once after recovery, stale advisories
//     during the outage, interactive -> batch failover) plus the
//     xg_resil_* metrics and resil.* spans, bit-identically per seed.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "hpc/site.hpp"

namespace xg::core {
namespace {

constexpr const char* kPrimarySite = "ND-CRC";  // hpc::NotreDameCRC().name

/// First value of a metric series by name (labels ignored); NaN if absent.
double MetricValue(obs::MetricsRegistry& reg, const std::string& name) {
  for (const auto& s : reg.Snapshot()) {
    if (s.name == name) return s.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

bool HasSpan(obs::Tracer& tracer, const std::string& name) {
  for (const auto& span : tracer.Snapshot()) {
    if (span.name == name) return true;
  }
  return false;
}

/// Every frame durably at the repository, in log order.
std::vector<double> StoredFrameTimes(Fabric& fabric) {
  std::vector<double> times;
  cspot::Node* ucsb = fabric.cspot_runtime().GetNode("ucsb");
  if (ucsb == nullptr) return times;
  cspot::LogStorage* log = ucsb->GetLog("telemetry");
  if (log == nullptr) return times;
  for (const auto& bytes : log->Tail(log->Size())) {
    auto f = DeserializeFrame(bytes);
    if (f.ok()) times.push_back(f.value().time_s);
  }
  return times;
}

// ---------------------------------------------------------------------------
// Store-and-forward across a 10-minute 5G access outage
// ---------------------------------------------------------------------------

struct OutageSummary {
  uint64_t sent = 0, stored = 0, buffered = 0, drained = 0;
  std::vector<double> log_times;
  std::string timeline;
  uint64_t breaker_opens = 0;
  bool breaker_closed = false;
  double sf_drained_metric = 0.0;
  bool saw_sf_span = false;
  double recovery_s = -1.0;  ///< outage end -> first successful delivery
};

OutageSummary RunOutageScenario(uint64_t seed) {
  FabricConfig cfg;
  cfg.seed = seed;
  // Shipped defaults: the UE loses its gateway for 10 minutes mid-run.
  cfg.fault_plan = fault::FaultPlan(seed);
  cfg.fault_plan.Partition("unl", "unl-gw", 1000.0, 600.0);

  Fabric fabric(cfg);
  OutageSummary out;
  fabric.on_frame_stored = [&out](double store_time_s, bool drained) {
    if (drained && out.recovery_s < 0.0) {
      out.recovery_s = store_time_s - 1600.0;  // outage ended at 1600 s
    }
  };
  fabric.Run(2.0);

  const FabricMetrics& m = fabric.metrics();
  out.sent = m.telemetry_frames_sent;
  out.stored = m.telemetry_frames_stored;
  out.buffered = m.telemetry_frames_buffered;
  out.drained = m.telemetry_frames_drained;
  out.log_times = StoredFrameTimes(fabric);
  out.timeline = fabric.degraded_modes().FormatTimeline();
  out.sf_drained_metric =
      MetricValue(fabric.registry(), "xg_resil_sf_drained_total");
  out.saw_sf_span = HasSpan(fabric.tracer(), "resil.store_forward");
  resil::CircuitBreaker* brk =
      fabric.cspot_runtime().wan().breaker("unl", "ucsb");
  if (brk != nullptr) {
    out.breaker_opens = brk->transitions_to(resil::BreakerState::kOpen);
    out.breaker_closed =
        brk->StateAt(fabric.simulation().Now().micros()) ==
        resil::BreakerState::kClosed;
  }
  return out;
}

TEST(ChaosFabric, StoreForwardDrainsAfterAccessOutage) {
  const OutageSummary out = RunOutageScenario(42);

  // Two reporting periods fall inside the outage: both frames are parked
  // and both are delivered after recovery — nothing lost, nothing extra.
  // Every published frame is durable by the horizon.
  EXPECT_EQ(out.buffered, 2u);
  EXPECT_EQ(out.drained, 2u);
  EXPECT_EQ(out.stored, out.sent);
  EXPECT_DOUBLE_EQ(out.sf_drained_metric, 2.0);

  // Exactly-once at the repository: every published frame appears in the
  // telemetry log exactly once, in strictly increasing report order.
  ASSERT_EQ(out.log_times.size(), out.stored);
  for (size_t i = 1; i < out.log_times.size(); ++i) {
    EXPECT_LT(out.log_times[i - 1], out.log_times[i]);
  }

  // The degraded episode is auditable: the timeline shows a closed
  // store_forward window and the tracer holds its span.
  EXPECT_NE(out.timeline.find("store_forward"), std::string::npos);
  EXPECT_EQ(out.timeline.find("open"), std::string::npos)
      << "the store-forward episode must have closed:\n"
      << out.timeline;
  EXPECT_TRUE(out.saw_sf_span);

  // The access-path breaker tripped during the outage and ended closed.
  EXPECT_GE(out.breaker_opens, 1u);
  EXPECT_TRUE(out.breaker_closed);

  // Recovery time (outage end -> first drained delivery) is bounded by
  // one drain-probe period plus transport latency.
  const double probe_bound_s = kStoreForwardProbeS + 5.0;
  EXPECT_GE(out.recovery_s, 0.0);
  EXPECT_LE(out.recovery_s, probe_bound_s);
}

TEST(ChaosFabric, OutageRunIsBitIdenticalPerSeed) {
  const OutageSummary a = RunOutageScenario(7);
  const OutageSummary b = RunOutageScenario(7);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.stored, b.stored);
  EXPECT_EQ(a.buffered, b.buffered);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.log_times, b.log_times);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.breaker_opens, b.breaker_opens);
  EXPECT_DOUBLE_EQ(a.recovery_s, b.recovery_s);
}

// ---------------------------------------------------------------------------
// Stale-but-valid advisory serving while the interactive queue is stalled
// ---------------------------------------------------------------------------

TEST(ChaosFabric, StaleAdvisoriesWithinAndBeyondValidity) {
  FabricConfig cfg;
  cfg.seed = 42;
  // The canaries feed the site detector the suspicion gauge reads.
  cfg.site_probes = true;
  // Faster duty cycle so an alert can land both inside and beyond the
  // 23-minute validity window within one run: reports every 100 s,
  // detection every 20 min. The pilot's walltime is cut down so the warm
  // pilot from the bootstrap run has expired by the time the queue stalls
  // — otherwise tasks would keep running inside it, stall or not.
  cfg.telemetry_period_s = 100.0;
  cfg.detect_period_s = 1200.0;
  cfg.pilot.pilot_walltime_s = 900.0;
  // The interactive site stops admitting jobs shortly after the first CFD
  // result lands (~1600 s), and stays stalled for the rest of the run.
  cfg.fault_plan = fault::FaultPlan(42);
  cfg.fault_plan.QueueStall(kPrimarySite, 1650.0, 12'000.0);

  Fabric fabric(cfg);
  // Weather fronts force change detections (hence alerts) at the cycles
  // after the stall began: the first (~t=2405, result age ~860 s) lands
  // inside the validity window, the second (~t=3605, age ~2060 s) beyond.
  fabric.ScheduleFront({.start_s = 1700.0, .ramp_s = 100.0, .d_wind_ms = 8.0});
  fabric.ScheduleFront({.start_s = 2900.0, .ramp_s = 100.0, .d_temp_c = 8.0});

  std::vector<Advisory> stale_seen;
  fabric.on_advisory = [&stale_seen](const Advisory& a) {
    if (a.stale) stale_seen.push_back(a);
  };
  fabric.Run(2.0);

  const FabricMetrics& m = fabric.metrics();
  // Exactly one fresh result was produced (the bootstrap run) before the
  // stall; every later alert got decision support from it or was refused.
  EXPECT_EQ(m.cfd_runs_completed, 1u);
  EXPECT_GE(m.alerts_raised, 3u);
  EXPECT_GE(m.stale_advisories_served, 1u);
  EXPECT_GE(m.stale_advisories_expired, 1u);

  ASSERT_FALSE(stale_seen.empty());
  for (const Advisory& a : stale_seen) {
    EXPECT_TRUE(a.stale);
    EXPECT_NE(a.reason.find("stale result"), std::string::npos) << a.reason;
  }

  EXPECT_GE(fabric.degraded_modes().entries(resil::DegradedMode::kStaleServe),
            1u);
  EXPECT_GE(MetricValue(fabric.registry(), "xg_resil_stale_served_total"),
            1.0);
  EXPECT_GE(MetricValue(fabric.registry(), "xg_resil_stale_expired_total"),
            1.0);
  // The stalled site is visibly suspected in the exported gauge.
  EXPECT_GE(MetricValue(fabric.registry(), "xg_resil_suspicion"), 8.0);
}

// ---------------------------------------------------------------------------
// Acceptance scenario: outage + queue stall + interactive -> batch failover
// ---------------------------------------------------------------------------

struct AcceptanceSummary {
  uint64_t sent = 0, stored = 0, buffered = 0, drained = 0;
  uint64_t cfd_runs = 0, failovers = 0, stale_served = 0;
  std::vector<double> log_times;
  std::string timeline;
  bool failover_closed = false;
  bool saw_failover_span = false;
  double failovers_metric = 0.0;
};

AcceptanceSummary RunAcceptanceScenario(uint64_t seed) {
  FabricConfig cfg;
  cfg.seed = seed;
  // The canaries are the detector heartbeats that drive the failover.
  cfg.site_probes = true;
  // At the default 30-min detection cadence a result is ~23-25 minutes old
  // by the time the next alert polls, i.e. always just past the default
  // 23-minute validity window. Widen it so the bridge result from the
  // failover path is still valid when the poll serves it.
  cfg.serve.cache.validity_us = 1'600'000'000;
  cfg.failover_site = hpc::PurdueAnvil();
  cfg.fault_plan = fault::FaultPlan(seed);
  // The ISSUE's scripted scenario: a 10-minute 5G outage, then the
  // interactive site's queue stalls for ~1.8 virtual hours.
  cfg.fault_plan.Partition("unl", "unl-gw", 1000.0, 600.0);
  cfg.fault_plan.QueueStall(kPrimarySite, 2600.0, 6'400.0);

  Fabric fabric(cfg);
  fabric.ScheduleFront({.start_s = 2000.0, .ramp_s = 300.0, .d_wind_ms = 8.0});
  fabric.Run(3.0);

  AcceptanceSummary out;
  const FabricMetrics& m = fabric.metrics();
  out.sent = m.telemetry_frames_sent;
  out.stored = m.telemetry_frames_stored;
  out.buffered = m.telemetry_frames_buffered;
  out.drained = m.telemetry_frames_drained;
  out.cfd_runs = m.cfd_runs_completed;
  out.failovers = m.site_failovers;
  out.stale_served = m.stale_advisories_served;
  out.log_times = StoredFrameTimes(fabric);
  out.timeline = fabric.degraded_modes().FormatTimeline();
  out.failovers_metric =
      MetricValue(fabric.registry(), "xg_resil_failovers_total");
  out.saw_failover_span = HasSpan(fabric.tracer(), "resil.site_failover");
  for (const auto& ep : fabric.degraded_modes().timeline()) {
    if (ep.mode == resil::DegradedMode::kSiteFailover && ep.exit_us >= 0) {
      out.failover_closed = true;
    }
  }
  return out;
}

TEST(ChaosFabric, AcceptanceOutageStallAndFailover) {
  const AcceptanceSummary out = RunAcceptanceScenario(42);

  // Exactly-once telemetry after recovery: every published frame is stored.
  EXPECT_EQ(out.buffered, 2u);
  EXPECT_EQ(out.drained, 2u);
  EXPECT_EQ(out.stored, out.sent);
  ASSERT_EQ(out.log_times.size(), out.stored);
  for (size_t i = 1; i < out.log_times.size(); ++i) {
    EXPECT_LT(out.log_times[i - 1], out.log_times[i]);
  }

  // Stale-but-valid advisories bridged the gap while the fresh run was
  // pending on the failover path.
  EXPECT_GE(out.stale_served, 1u);

  // The suspected interactive site triggered an interactive -> batch
  // failover, the batch site produced a fresh result, and the canary
  // probes failed the fabric back once the queue moved again.
  EXPECT_GE(out.failovers, 1u);
  EXPECT_GE(out.cfd_runs, 2u);
  EXPECT_TRUE(out.failover_closed) << out.timeline;
  EXPECT_GE(out.failovers_metric, 1.0);
  EXPECT_TRUE(out.saw_failover_span);
  EXPECT_NE(out.timeline.find("site_failover"), std::string::npos);
  EXPECT_NE(out.timeline.find("store_forward"), std::string::npos);
}

TEST(ChaosFabric, AcceptanceRunIsBitIdenticalPerSeed) {
  const AcceptanceSummary a = RunAcceptanceScenario(42);
  const AcceptanceSummary b = RunAcceptanceScenario(42);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.stored, b.stored);
  EXPECT_EQ(a.cfd_runs, b.cfd_runs);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.stale_served, b.stale_served);
  EXPECT_EQ(a.log_times, b.log_times);
  EXPECT_EQ(a.timeline, b.timeline);
}

}  // namespace
}  // namespace xg::core
