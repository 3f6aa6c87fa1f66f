// Golden physics tests for the CFD solver.
//
// The golden scalars below are the converged answer: 50 steps on the
// standard 24x20x12 test mesh with the pressure equation solved to a
// residual <= 1e-11 on every step. They were captured from the red-black
// SOR solver at commit 602407c with one line of Solver::Step changed from
// `SolvePressure(stats);` to
// `do SolvePressure(stats); while (stats.poisson_residual > 1e-11);`
// (60 warm-started sweeps per call, about 4000 sweeps per step), then
// printing last.max_divergence, last.poisson_residual, InteriorMeanSpeed()
// and InteriorMeanTemperature() with %.17g after Run(50) on a serial
// solver. The direct pressure solve must reproduce them to 1e-9 — far
// tighter than any physical tolerance, loose enough for floating-point
// reassociation (observed agreement is ~2e-12).
//
// Two boundary configurations cover both ghost-cell regimes: oblique
// wind (inflow on two faces, outflow on two) and axis-aligned wind with
// equal interior/exterior temperature (no initial thermal contrast).
#include "cfd/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cfd/mesh.hpp"
#include "common/threadpool.hpp"

namespace xg::cfd {
namespace {

constexpr double kTol = 1e-9;
constexpr int kSteps = 50;

MeshParams GoldenMesh() {
  MeshParams p;
  p.nx = 24;
  p.ny = 20;
  p.nz = 12;
  return p;
}

struct Golden {
  Boundary bc;
  double max_divergence;
  double poisson_residual;
  double interior_mean_speed;
  double interior_mean_temperature;
};

/// Converged reference (see file comment). Config 1: oblique south-west wind, warm interior. Config 2:
/// east wind, no interior/exterior temperature contrast.
Golden GoldenCase(int which) {
  Golden g;
  if (which == 0) {
    g.bc.wind_speed_ms = 4.0;
    g.bc.wind_dir_deg = 225.0;
    g.bc.exterior_temp_c = 21.0;
    g.bc.interior_temp_c = 26.0;
    g.max_divergence = 0.033405713577769044;
    g.poisson_residual = 9.2680967067604314e-12;
    g.interior_mean_speed = 0.34283013662788214;
    g.interior_mean_temperature = 25.607744310005458;
  } else {
    g.bc.wind_speed_ms = 2.5;
    g.bc.wind_dir_deg = 90.0;
    g.bc.exterior_temp_c = 24.0;
    g.bc.interior_temp_c = 24.0;
    g.max_divergence = 0.012636722542307452;
    g.poisson_residual = 9.7445159580322738e-12;
    g.interior_mean_speed = 0.17285640929072141;
    g.interior_mean_temperature = 25.25340930524159;
  }
  return g;
}

void CheckAgainstGolden(const Solver& s, const StepStats& last,
                        const Golden& g) {
  EXPECT_NEAR(last.max_divergence, g.max_divergence, kTol);
  EXPECT_NEAR(last.poisson_residual, g.poisson_residual, kTol);
  EXPECT_NEAR(s.InteriorMeanSpeed(), g.interior_mean_speed, kTol);
  EXPECT_NEAR(s.InteriorMeanTemperature(), g.interior_mean_temperature, kTol);
}

TEST(SolverGolden, SerialMatchesPreOverhaulConfig1) {
  Mesh mesh(GoldenMesh());
  const Golden g = GoldenCase(0);
  Solver s(mesh, SolverParams{});
  s.Initialize(g.bc);
  const StepStats last = s.Run(kSteps);
  CheckAgainstGolden(s, last, g);
}

TEST(SolverGolden, SerialMatchesPreOverhaulConfig2) {
  Mesh mesh(GoldenMesh());
  const Golden g = GoldenCase(1);
  Solver s(mesh, SolverParams{});
  s.Initialize(g.bc);
  const StepStats last = s.Run(kSteps);
  CheckAgainstGolden(s, last, g);
}

TEST(SolverGolden, PooledMatchesPreOverhaulConfig1) {
  Mesh mesh(GoldenMesh());
  const Golden g = GoldenCase(0);
  ThreadPool pool(4);
  Solver s(mesh, SolverParams{}, &pool);
  s.Initialize(g.bc);
  const StepStats last = s.Run(kSteps);
  CheckAgainstGolden(s, last, g);
}

TEST(SolverGolden, PooledMatchesPreOverhaulConfig2) {
  Mesh mesh(GoldenMesh());
  const Golden g = GoldenCase(1);
  ThreadPool pool(4);
  Solver s(mesh, SolverParams{}, &pool);
  s.Initialize(g.bc);
  const StepStats last = s.Run(kSteps);
  CheckAgainstGolden(s, last, g);
}

// The slab decomposition must not perturb the result at all: serial and
// pooled runs go through identical per-cell arithmetic, so the full field
// state (not just summary scalars) is required to match bitwise.
TEST(SolverGolden, SerialAndPooledFieldsAgreeBitwise) {
  Mesh mesh(GoldenMesh());
  const Golden g = GoldenCase(0);
  Solver serial(mesh, SolverParams{});
  serial.Initialize(g.bc);
  serial.Run(kSteps);

  ThreadPool pool(3);
  Solver pooled(mesh, SolverParams{}, &pool);
  pooled.Initialize(g.bc);
  pooled.Run(kSteps);

  ASSERT_EQ(serial.u(), pooled.u());
  ASSERT_EQ(serial.v(), pooled.v());
  ASSERT_EQ(serial.w(), pooled.w());
  ASSERT_EQ(serial.temperature(), pooled.temperature());
  ASSERT_EQ(serial.pressure(), pooled.pressure());
}

}  // namespace
}  // namespace xg::cfd
