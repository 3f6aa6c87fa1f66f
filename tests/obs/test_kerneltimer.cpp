#include "obs/kerneltimer.hpp"

#include <gtest/gtest.h>

#include <string>

#include "cfd/mesh.hpp"
#include "cfd/solver.hpp"
#include "obs/metrics.hpp"

namespace xg::obs {
namespace {

/// Deterministic injected clock: each NowUs() call advances by `step_us`.
struct FakeClock {
  int64_t now = 0;
  int64_t step_us = 0;
  int64_t operator()() {
    const int64_t t = now;
    now += step_us;
    return t;
  }
};

TEST(KernelTimer, ObserveAccumulatesExactTotals) {
  MetricsRegistry registry;
  KernelTimer timer(&registry, [] { return int64_t{0}; });
  timer.Observe("advect", 1500);   // 1.5 ms
  timer.Observe("advect", 2500);   // 2.5 ms
  timer.Observe("sor", 250);       // 0.25 ms
  EXPECT_DOUBLE_EQ(timer.TotalMs("advect"), 4.0);
  EXPECT_EQ(timer.Count("advect"), 2u);
  EXPECT_DOUBLE_EQ(timer.TotalMs("sor"), 0.25);
  EXPECT_EQ(timer.Count("sor"), 1u);
  EXPECT_EQ(timer.Count("never_observed"), 0u);
}

TEST(KernelTimer, ScopeMeasuresInjectedClockDelta) {
  MetricsRegistry registry;
  // Every clock read advances 700 us; a scope reads twice -> 700 us.
  KernelTimer timer(&registry, FakeClock{0, 700});
  { KernelScope scope(&timer, "project"); }
  EXPECT_DOUBLE_EQ(timer.TotalMs("project"), 0.7);
  EXPECT_EQ(timer.Count("project"), 1u);
}

TEST(KernelTimer, NullTimerScopeIsNoOp) {
  KernelScope scope(nullptr, "anything");  // must not crash
}

TEST(KernelTimer, ExportsLabeledHistogram) {
  MetricsRegistry registry;
  KernelTimer timer(&registry, [] { return int64_t{0}; });
  timer.Observe("sweep", 3000);
  bool found = false;
  for (const MetricSample& s : registry.Snapshot()) {
    if (s.name == "xg_cfd_kernel_ms") {
      found = true;
      ASSERT_EQ(s.labels.size(), 1u);
      EXPECT_EQ(s.labels.begin()->first, "kernel");
      EXPECT_EQ(s.labels.begin()->second, "sweep");
      EXPECT_EQ(s.hist.count, 1u);
      EXPECT_DOUBLE_EQ(s.hist.sum, 3.0);
    }
  }
  EXPECT_TRUE(found);
}

// End-to-end: a solver with an attached timer records every hot-path
// kernel, and detaching stops recording without touching the physics.
TEST(KernelTimer, SolverRecordsAllKernels) {
  cfd::MeshParams mp;
  mp.nx = 12;
  mp.ny = 10;
  mp.nz = 6;
  cfd::Mesh mesh(mp);
  cfd::Solver solver(mesh, cfd::SolverParams{});
  MetricsRegistry registry;
  KernelTimer timer(&registry, FakeClock{0, 1});
  solver.set_kernel_timer(&timer);
  solver.Initialize(cfd::Boundary{});
  solver.Step();
  for (const char* kernel : {"advect", "diffuse_force", "sor", "residual",
                             "project", "max_divergence"}) {
    EXPECT_EQ(timer.Count(kernel), 1u) << kernel;
  }
  solver.set_kernel_timer(nullptr);
  solver.Step();
  EXPECT_EQ(timer.Count("advect"), 1u);
}

}  // namespace
}  // namespace xg::obs
