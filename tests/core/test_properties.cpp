// Cross-module property and stress tests: randomized workloads checked
// against invariants rather than point values.
#include <gtest/gtest.h>

#include <cmath>

#include "cfd/solver.hpp"
#include "common/rng.hpp"
#include "core/fabric.hpp"
#include "cspot/runtime.hpp"
#include "hpc/scheduler.hpp"

namespace xg {
namespace {

// -- end-to-end determinism and sanity across seeds --------------------------

class FabricSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FabricSeedSweep, InvariantsHoldForAnySeed) {
  core::FabricConfig cfg;
  cfg.seed = GetParam();
  core::Fabric fabric(cfg);
  sensors::FrontEvent front;
  front.start_s = 2.5 * 3600;
  front.d_wind_ms = 2.0;
  fabric.ScheduleFront(front);
  fabric.Run(6.0);
  const core::FabricMetrics& m = fabric.metrics();
  // A nominal run stores every frame it sends; runs <= alerts (one in
  // flight at a time).
  EXPECT_EQ(m.telemetry_frames_stored, m.telemetry_frames_sent);
  EXPECT_LE(m.cfd_runs_completed, m.alerts_raised);
  // Latency physically bounded below by the wire path (2 RTT ~ 84 ms 5G).
  if (m.telemetry_latency_ms.count() > 0) {
    EXPECT_GT(m.telemetry_latency_ms.min(), 45.0);  // 2 RTT with floored air legs
    EXPECT_LT(m.telemetry_latency_ms.max(), 400.0);
  }
  // Validity never exceeds the detection period.
  if (m.result_validity_s.count() > 0) {
    EXPECT_LE(m.result_validity_s.max(), cfg.detect_period_s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricSeedSweep,
                         ::testing::Values(101ull, 202ull, 303ull, 404ull,
                                           505ull));

// -- batch scheduler under randomized load ------------------------------------

TEST(SchedulerStress, RandomJobsAllTerminateAndNodesBalance) {
  sim::Simulation sim;
  hpc::SiteProfile site = hpc::NotreDameCRC();
  site.nodes = 12;
  hpc::BatchScheduler sched(sim, site, 31);
  Rng rng(32);

  int completed = 0, cancelled = 0;
  std::vector<hpc::JobId> ids;
  for (int i = 0; i < 200; ++i) {
    hpc::JobSpec spec;
    spec.name = "rand";
    spec.nodes = static_cast<int>(rng.UniformInt(1, 6));
    spec.runtime_s = rng.Uniform(60.0, 7200.0);
    spec.walltime_s = spec.runtime_s * rng.Uniform(0.8, 2.0);
    const hpc::JobId id = sched.Submit(
        spec, nullptr, [&](const hpc::JobInfo& info) {
          completed += info.state == hpc::JobState::kCompleted ||
                       info.state == hpc::JobState::kTimedOut;
          cancelled += info.state == hpc::JobState::kCancelled;
        });
    ids.push_back(id);
    // Randomly cancel a few queued jobs.
    if (rng.Bernoulli(0.05)) {
      // Cancellation may race completion; either outcome is legitimate.
      [[maybe_unused]] const Status cancel_status =
          sched.Cancel(ids[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))]);
    }
  }
  sim.Run();
  // Everything terminated one way or another and all nodes returned.
  int finished = 0;
  for (hpc::JobId id : ids) {
    const hpc::JobInfo* info = sched.Get(id);
    ASSERT_NE(info, nullptr);
    EXPECT_NE(info->state, hpc::JobState::kQueued);
    EXPECT_NE(info->state, hpc::JobState::kRunning);
    ++finished;
  }
  EXPECT_EQ(finished, 200);
  EXPECT_EQ(sched.free_nodes(), 12);
  EXPECT_EQ(sched.queue_length(), 0u);
}

TEST(SchedulerStress, NodeSecondsNeverExceedCapacity) {
  sim::Simulation sim;
  hpc::SiteProfile site = hpc::NotreDameCRC();
  site.nodes = 8;
  site.background_utilization = 0.95;
  hpc::BatchScheduler sched(sim, site, 33);
  sched.StartBackgroundLoad(sim::SimTime::Hours(24));
  sim.RunUntil(sim::SimTime::Hours(30));
  EXPECT_LE(sched.NodeSecondsUsed(), 8.0 * 30.0 * 3600.0 * 1.001);
}

// -- CSPOT exactly-once under randomized loss ---------------------------------

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, AppendsRemainExactlyOnce) {
  sim::Simulation sim;
  cspot::Runtime rt(sim, 41);
  rt.AddNode("a");
  rt.AddNode("b");
  cspot::LinkParams p;
  p.one_way_ms = 5.0;
  p.jitter_ms = 1.0;
  p.loss_prob = GetParam();
  ASSERT_TRUE((rt.wan().AddLink("a", "b", p)).ok());
  ASSERT_TRUE((rt.CreateLog("b", cspot::LogConfig{"log", 64, 512})).ok());

  cspot::AppendOptions opts;
  opts.retry.max_attempts = 200;
  opts.retry.attempt_timeout_ms = 30.0;
  const int n = 25;
  int acked = 0;
  for (int i = 0; i < n; ++i) {
    rt.RemoteAppend("a", "b", "log", std::vector<uint8_t>{uint8_t(i)}, opts,
                    [&acked](Result<cspot::SeqNo> r, const fault::FaultOutcome&) {
                      acked += r.ok();
                    });
    sim.Run();
  }
  EXPECT_EQ(acked, n);
  EXPECT_EQ(rt.GetNode("b")->GetLog("log")->Size(), static_cast<size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5));

// -- CFD stability across boundary conditions --------------------------------

class WindSweep : public ::testing::TestWithParam<double> {};

TEST_P(WindSweep, SolverStableAndBounded) {
  cfd::MeshParams mp;
  mp.nx = 20;
  mp.ny = 16;
  mp.nz = 10;
  cfd::Mesh mesh(mp);
  cfd::Solver solver(mesh, cfd::SolverParams{});
  cfd::Boundary bc;
  bc.wind_speed_ms = GetParam();
  bc.wind_dir_deg = 315.0;  // oblique: exercises both inflow faces
  solver.Initialize(bc);
  solver.Run(60);
  for (size_t c = 0; c < mesh.cell_count(); ++c) {
    ASSERT_TRUE(std::isfinite(solver.u()[c]));
    ASSERT_TRUE(std::isfinite(solver.v()[c]));
    ASSERT_TRUE(std::isfinite(solver.w()[c]));
    ASSERT_LT(std::abs(solver.u()[c]), 4.0 * GetParam() + 10.0);
  }
  EXPECT_LE(solver.InteriorMeanSpeed(), GetParam() + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Winds, WindSweep,
                         ::testing::Values(0.5, 2.0, 5.0, 8.0));

}  // namespace
}  // namespace xg
