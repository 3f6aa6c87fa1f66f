// Integration tests: the full xGFabric loop on the virtual clock.
#include "core/fabric.hpp"

#include <gtest/gtest.h>

namespace xg::core {
namespace {

TEST(Fabric, TelemetryFlowsToRepository) {
  FabricConfig cfg;
  cfg.seed = 1;
  Fabric fabric(cfg);
  fabric.Run(2.0);
  const FabricMetrics& m = fabric.metrics();
  // One frame per 5 minutes over 2 hours = 24, minus any still in flight.
  EXPECT_GE(m.telemetry_frames_sent, 23u);
  EXPECT_GE(m.telemetry_frames_stored, m.telemetry_frames_sent - 2);
}

TEST(Fabric, FiveGTelemetryLatencyMatchesTable1) {
  FabricConfig cfg;
  cfg.seed = 2;
  cfg.telemetry_over_5g = true;
  Fabric fabric(cfg);
  fabric.Run(6.0);
  EXPECT_NEAR(fabric.metrics().telemetry_latency_ms.mean(), 101.0, 15.0);
}

TEST(Fabric, WiredTelemetryLatencyMatchesTable1) {
  FabricConfig cfg;
  cfg.seed = 3;
  cfg.telemetry_over_5g = false;
  Fabric fabric(cfg);
  fabric.Run(6.0);
  EXPECT_NEAR(fabric.metrics().telemetry_latency_ms.mean(), 17.0, 2.0);
}

TEST(Fabric, BootstrapCfdRunsEvenWithoutWeatherChange) {
  FabricConfig cfg;
  cfg.seed = 4;
  Fabric fabric(cfg);
  fabric.Run(3.0);
  EXPECT_GE(fabric.metrics().cfd_runs_completed, 1u);
  ASSERT_TRUE(fabric.latest_result().has_value());
  EXPECT_GT(fabric.latest_result()->interior_mean_speed_ms, 0.0);
}

TEST(Fabric, FrontTriggersChangeDetectionAndCfd) {
  FabricConfig cfg;
  cfg.seed = 5;
  Fabric fabric(cfg);
  sensors::FrontEvent front;
  front.start_s = 2.0 * 3600;
  front.ramp_s = 900.0;
  front.d_wind_ms = 3.0;
  fabric.ScheduleFront(front);
  fabric.Run(5.0);
  const FabricMetrics& m = fabric.metrics();
  EXPECT_GE(m.alerts_raised, 2u);  // bootstrap + the front
  EXPECT_GE(m.cfd_runs_completed, 2u);
}

TEST(Fabric, ResponseTimeLeavesValidityWindow) {
  // Paper Section 4.4: with 64 cores the result is valid for >= ~23 of the
  // 30 minutes.
  FabricConfig cfg;
  cfg.seed = 6;
  Fabric fabric(cfg);
  fabric.Run(8.0);
  const FabricMetrics& m = fabric.metrics();
  ASSERT_GT(m.cfd_runs_completed, 0u);
  EXPECT_NEAR(m.cfd_runtime_s.mean(), 420.0, 90.0);
  EXPECT_GT(m.result_validity_s.mean(), 20.0 * 60.0);
  EXPECT_LT(m.alert_to_result_s.mean(), 10.0 * 60.0);
}

TEST(Fabric, BreachDetectedConfirmedAndRepaired) {
  FabricConfig cfg;
  cfg.seed = 7;
  Fabric fabric(cfg);
  sensors::BreachEvent breach;
  breach.time_s = 5.0 * 3600;
  breach.x_m = 30.0;
  breach.y_m = 90.0;
  breach.radius_m = 25.0;
  breach.severity = 1.0;
  fabric.ScheduleBreach(breach);
  int confirmed_calls = 0;
  fabric.on_breach = [&](const BreachSuspicion&, bool confirmed) {
    confirmed_calls += confirmed;
  };
  fabric.Run(10.0);
  const FabricMetrics& m = fabric.metrics();
  EXPECT_GE(m.breach_suspicions, 1u);
  EXPECT_GE(m.robot_dispatches, 1u);
  EXPECT_EQ(m.breaches_confirmed, 1u);
  EXPECT_EQ(confirmed_calls, 1);
  // Detection within a couple of hours: the twin needs persistent
  // deviations, a fresh (non-stale) prediction, and the robot drive.
  EXPECT_LT(m.breach_detection_delay_s.mean(), 2.5 * 3600.0);
  // Repaired: no further breach is active at the end.
  EXPECT_FALSE(fabric.cups().AnyActiveBreach(10.0 * 3600));
}

TEST(Fabric, NoBreachMeansNoConfirmations) {
  FabricConfig cfg;
  cfg.seed = 8;
  Fabric fabric(cfg);
  fabric.Run(10.0);
  EXPECT_EQ(fabric.metrics().breaches_confirmed, 0u);
  EXPECT_LE(fabric.metrics().breach_suspicions, 2u);  // false-alarm budget
}

TEST(Fabric, FullCfdModeProducesStationPredictions) {
  FabricConfig cfg;
  cfg.seed = 9;
  cfg.cfd_mode = CfdMode::kFull;
  cfg.cfd_mesh.nx = 24;
  cfg.cfd_mesh.ny = 20;
  cfg.cfd_mesh.nz = 8;
  cfg.cfd_steps = 40;
  Fabric fabric(cfg);
  fabric.Run(2.0);
  ASSERT_TRUE(fabric.latest_result().has_value());
  const CfdResult& r = *fabric.latest_result();
  EXPECT_EQ(r.predictions.size(),
            static_cast<size_t>(cfg.cups.interior_stations));
  for (const auto& p : r.predictions) {
    EXPECT_GE(p.wind_speed_ms, 0.0);
    EXPECT_LT(p.wind_speed_ms, r.boundary_wind_ms + 1.0);
  }
}

TEST(Fabric, ResultsReplicatedToRepository) {
  FabricConfig cfg;
  cfg.seed = 10;
  Fabric fabric(cfg);
  int results_seen = 0;
  fabric.on_result = [&](const CfdResult&) { ++results_seen; };
  fabric.Run(4.0);
  EXPECT_EQ(results_seen,
            static_cast<int>(fabric.metrics().cfd_runs_completed));
  // The results log at UCSB holds them durably.
  auto* ucsb = fabric.cspot_runtime().GetNode("ucsb");
  ASSERT_NE(ucsb, nullptr);
  auto* log = ucsb->GetLog("results");
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->Size(), fabric.metrics().cfd_runs_completed);
}

TEST(Fabric, DeterministicAcrossRuns) {
  FabricConfig cfg;
  cfg.seed = 11;
  Fabric a(cfg), b(cfg);
  a.Run(4.0);
  b.Run(4.0);
  EXPECT_EQ(a.metrics().telemetry_frames_stored,
            b.metrics().telemetry_frames_stored);
  EXPECT_EQ(a.metrics().alerts_raised, b.metrics().alerts_raised);
  EXPECT_EQ(a.metrics().cfd_runs_completed, b.metrics().cfd_runs_completed);
  EXPECT_DOUBLE_EQ(a.metrics().telemetry_latency_ms.mean(),
                   b.metrics().telemetry_latency_ms.mean());
}

TEST(Fabric, DefaultDaySendsNoSiteCanaries) {
  // The canary loop is the one opt-in resilience piece: a default day
  // feeds the site detector no heartbeats, so it never suspects the site.
  Fabric fabric(FabricConfig{});
  fabric.Run(24.0);
  EXPECT_EQ(fabric.site_detector().heartbeats(), 0u);
}

TEST(Fabric, RobotDispatchCanBeDisabled) {
  FabricConfig cfg;
  cfg.seed = 12;
  cfg.dispatch_robot = false;
  Fabric fabric(cfg);
  sensors::BreachEvent breach;
  breach.time_s = 4.0 * 3600;
  breach.x_m = 30.0;
  breach.y_m = 90.0;
  fabric.ScheduleBreach(breach);
  fabric.Run(8.0);
  EXPECT_EQ(fabric.metrics().robot_dispatches, 0u);
  EXPECT_GE(fabric.metrics().breach_suspicions, 1u);
}

}  // namespace
}  // namespace xg::core

// -- fault injection / QC integration ---------------------------------------

#include "sensors/quality.hpp"

namespace xg::core {
namespace {

TEST(FabricFaults, StuckSensorDoesNotTriggerFalseBreach) {
  // An interior anemometer freezes; without QC its constant reading would
  // eventually deviate from the twin's prediction and dispatch the robot.
  // The stuck-sensor QC check drops the readings instead.
  FabricConfig cfg;
  cfg.seed = 21;
  Fabric fabric(cfg);
  sensors::FaultWindow fault;
  fault.station_id = 0;  // interior station
  fault.kind = sensors::FaultKind::kStuck;
  fault.start_s = 2.0 * 3600.0;
  fabric.ScheduleStationFault(fault);
  fabric.Run(10.0);
  EXPECT_GT(fabric.metrics().qc_rejected_readings, 0u);
  EXPECT_EQ(fabric.metrics().breaches_confirmed, 0u);
  EXPECT_LE(fabric.metrics().breach_suspicions, 1u);
}

TEST(FabricFaults, DropoutReducesStoredReadingsNotOperation) {
  FabricConfig cfg;
  cfg.seed = 22;
  Fabric fabric(cfg);
  sensors::FaultWindow fault;
  fault.station_id = 1;
  fault.kind = sensors::FaultKind::kDropout;
  fault.start_s = 0.0;
  fabric.ScheduleStationFault(fault);
  fabric.Run(6.0);
  const FabricMetrics& m = fabric.metrics();
  EXPECT_GT(m.readings_dropped, 50u);  // ~every frame loses one station
  EXPECT_GE(m.telemetry_frames_stored, 60u);  // the stream itself survives
  EXPECT_GE(m.cfd_runs_completed, 1u);
}

TEST(FabricFaults, SpikesAreScreenedByQc) {
  FabricConfig cfg;
  cfg.seed = 23;
  Fabric fabric(cfg);
  sensors::FaultWindow fault;
  fault.station_id = 7;  // an exterior station feeding boundary conditions
  fault.kind = sensors::FaultKind::kSpike;
  fault.start_s = 3600.0;
  fault.end_s = 2 * 3600.0;
  fabric.ScheduleStationFault(fault);
  fabric.Run(4.0);
  EXPECT_GT(fabric.metrics().qc_rejected_readings, 5u);
  // The boundary wind used by CFD stays physical despite the spikes.
  ASSERT_TRUE(fabric.latest_result().has_value());
  EXPECT_LT(fabric.latest_result()->boundary_wind_ms, 20.0);
}

}  // namespace
}  // namespace xg::core

// -- robot patrol mode --------------------------------------------------------

namespace xg::core {
namespace {

TEST(FabricPatrol, PatrolFindsBreachTheTwinCannotSense) {
  // A small breach far from every interior anemometer: the twin's sparse
  // grid misses it, but the perimeter patrol drives past it.
  FabricConfig cfg;
  cfg.seed = 31;
  cfg.robot_patrol = true;
  cfg.patrol_period_s = 1800.0;
  Fabric fabric(cfg);
  sensors::BreachEvent breach;
  breach.time_s = 3.0 * 3600.0;
  breach.x_m = 60.0;   // mid-wall at y ~ 0: >40 m from any station
  breach.y_m = 2.0;
  breach.radius_m = 6.0;  // too small a zone to touch a station
  fabric.ScheduleBreach(breach);
  fabric.Run(24.0);
  const FabricMetrics& m = fabric.metrics();
  EXPECT_GT(m.patrol_legs, 10u);
  EXPECT_EQ(m.breaches_confirmed, 1u);
  EXPECT_EQ(m.breaches_found_on_patrol, 1u);
  EXPECT_FALSE(fabric.cups().AnyActiveBreach(24.0 * 3600));
}

TEST(FabricPatrol, PatrolOffMissesTheSameBreach) {
  FabricConfig cfg;
  cfg.seed = 31;
  cfg.robot_patrol = false;
  Fabric fabric(cfg);
  sensors::BreachEvent breach;
  breach.time_s = 3.0 * 3600.0;
  breach.x_m = 60.0;
  breach.y_m = 2.0;
  breach.radius_m = 6.0;
  fabric.ScheduleBreach(breach);
  fabric.Run(24.0);
  EXPECT_EQ(fabric.metrics().breaches_confirmed, 0u);
  EXPECT_TRUE(fabric.cups().AnyActiveBreach(24.0 * 3600));
}

TEST(FabricPatrol, PatrolDoesNotStarveTwinDispatches) {
  // With both mechanisms on, a station-adjacent breach is still confirmed.
  FabricConfig cfg;
  cfg.seed = 32;
  cfg.robot_patrol = true;
  Fabric fabric(cfg);
  sensors::BreachEvent breach;
  breach.time_s = 6.0 * 3600.0;
  breach.x_m = 30.0;
  breach.y_m = 90.0;
  breach.radius_m = 25.0;
  fabric.ScheduleBreach(breach);
  fabric.Run(16.0);
  EXPECT_EQ(fabric.metrics().breaches_confirmed, 1u);
}

}  // namespace
}  // namespace xg::core
