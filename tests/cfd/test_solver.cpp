#include "cfd/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace xg::cfd {
namespace {

MeshParams SmallMesh() {
  // nz = 12 keeps the canopy (z <= 4.5 m) out of the ground boundary layer
  // so heat/drag sources act on interior cells even at test resolution.
  MeshParams p;
  p.nx = 24;
  p.ny = 20;
  p.nz = 12;
  return p;
}

Boundary WestWind(double speed = 4.0) {
  Boundary bc;
  bc.wind_speed_ms = speed;
  bc.wind_dir_deg = 270.0;  // wind FROM the west -> blows +x
  bc.exterior_temp_c = 22.0;
  bc.interior_temp_c = 25.0;
  return bc;
}

TEST(Solver, InitializeSetsBoundaryWind) {
  Mesh mesh(SmallMesh());
  Solver s(mesh, SolverParams{});
  s.Initialize(WestWind());
  // Upstream free-stream cell moves roughly east at the profile speed.
  const size_t c = mesh.Index(1, mesh.ny() / 2, mesh.nz() / 2);
  EXPECT_GT(s.u()[c], 1.0);
  EXPECT_NEAR(s.v()[c], 0.0, 1e-9);
}

TEST(Solver, DivergenceShrinksAfterProjection) {
  Mesh mesh(SmallMesh());
  Solver s(mesh, SolverParams{});
  s.Initialize(WestWind());
  StepStats st = s.Step();
  const double first = st.max_divergence;
  for (int i = 0; i < 30; ++i) st = s.Step();
  EXPECT_LE(st.max_divergence, first * 1.5);
  EXPECT_LT(st.max_divergence, 0.5);  // 1/s, coarse-grid tolerance
}

TEST(Solver, PoissonResidualConverges) {
  // The direct solve converges on every step, the cold start included, for
  // every face pattern: oblique, axis-aligned, and a north wind, whose x
  // component is exactly -0.0 (both x faces Dirichlet).
  Mesh mesh(SmallMesh());
  for (double dir : {0.0, 45.0, 90.0, 180.0, 225.0, 270.0, 333.0}) {
    Boundary bc = WestWind();
    bc.wind_dir_deg = dir;
    Solver s(mesh, SolverParams{});
    s.Initialize(bc);
    for (int step = 0; step < 20; ++step) {
      const StepStats st = s.Step();
      ASSERT_GT(st.poisson_rhs, 0.0);
      ASSERT_LE(st.poisson_residual, 1e-10 * st.poisson_rhs)
          << "dir " << dir << " step " << step;
    }
  }
}

TEST(Solver, DefectCorrectionPassKeepsTheTolerance) {
  Mesh mesh(SmallMesh());
  SolverParams two;
  two.poisson_iters = 2;
  Solver once(mesh, SolverParams{}), twice(mesh, two);
  once.Initialize(WestWind());
  twice.Initialize(WestWind());
  for (int step = 0; step < 10; ++step) {
    once.Step();
    const StepStats st = twice.Step();
    ASSERT_LE(st.poisson_residual, 1e-10 * st.poisson_rhs);
  }
  // A correction on top of an exact solve moves the result only at
  // rounding level.
  EXPECT_NEAR(twice.InteriorMeanSpeed(), once.InteriorMeanSpeed(), 1e-12);
}

TEST(Solver, StaysStableOverManySteps) {
  Mesh mesh(SmallMesh());
  Solver s(mesh, SolverParams{});
  s.Initialize(WestWind(6.0));
  s.Run(150);
  for (size_t c = 0; c < mesh.cell_count(); ++c) {
    ASSERT_TRUE(std::isfinite(s.u()[c]));
    ASSERT_TRUE(std::isfinite(s.w()[c]));
    ASSERT_TRUE(std::isfinite(s.temperature()[c]));
    ASSERT_LT(std::abs(s.u()[c]), 50.0);
  }
}

TEST(Solver, ScreenAttenuatesInteriorFlow) {
  Mesh mesh(SmallMesh());
  Solver s(mesh, SolverParams{});
  s.Initialize(WestWind(4.0));
  s.Run(100);
  const double interior = s.InteriorMeanSpeed();
  EXPECT_LT(interior, 4.0 * 0.5);  // well below free stream
  EXPECT_GT(interior, 0.0);
}

TEST(Solver, NoScreenDragMeansFasterInterior) {
  Mesh mesh(SmallMesh());
  SolverParams with;
  SolverParams without;
  without.screen_drag = 0.0;
  without.canopy_drag = 0.0;
  Solver a(mesh, with), b(mesh, without);
  a.Initialize(WestWind());
  b.Initialize(WestWind());
  a.Run(80);
  b.Run(80);
  EXPECT_GT(b.InteriorMeanSpeed(), a.InteriorMeanSpeed() * 1.5);
}

TEST(Solver, InteriorSpeedScalesWithWind) {
  Mesh mesh(SmallMesh());
  Solver slow(mesh, SolverParams{}), fast(mesh, SolverParams{});
  slow.Initialize(WestWind(2.0));
  fast.Initialize(WestWind(6.0));
  slow.Run(80);
  fast.Run(80);
  EXPECT_GT(fast.InteriorMeanSpeed(), slow.InteriorMeanSpeed() * 1.5);
}

TEST(Solver, CanopyHeatsInterior) {
  Mesh mesh(SmallMesh());
  Solver s(mesh, SolverParams{});
  Boundary bc = WestWind(1.0);
  bc.interior_temp_c = bc.exterior_temp_c;  // start equal
  s.Initialize(bc);
  s.Run(100);
  EXPECT_GT(s.InteriorMeanTemperature(), bc.exterior_temp_c + 0.05);
}

TEST(Solver, BuoyancyLiftsWarmAir) {
  // A calm domain with a warm interior: vertical velocity above the canopy
  // should be positive (upward) on average.
  Mesh mesh(SmallMesh());
  SolverParams p;
  Solver s(mesh, p);
  Boundary bc;
  bc.wind_speed_ms = 0.3;
  bc.wind_dir_deg = 270.0;
  bc.exterior_temp_c = 20.0;
  bc.interior_temp_c = 28.0;
  s.Initialize(bc);
  s.Run(60);
  double w_sum = 0.0;
  size_t n = 0;
  for (int k = 2; k < mesh.nz() - 2; ++k) {
    for (int j = 2; j < mesh.ny() - 2; ++j) {
      for (int i = 2; i < mesh.nx() - 2; ++i) {
        if (!mesh.InsideHouse(i, j, k)) continue;
        w_sum += s.w()[mesh.Index(i, j, k)];
        ++n;
      }
    }
  }
  ASSERT_GT(n, 0u);
  EXPECT_GT(w_sum / static_cast<double>(n), 0.0);
}

TEST(Solver, EastAndWestWindsAreMirrorSymmetric) {
  Mesh mesh(SmallMesh());
  Solver west(mesh, SolverParams{}), east(mesh, SolverParams{});
  Boundary w = WestWind(4.0);
  Boundary e = w;
  e.wind_dir_deg = 90.0;  // from the east -> blows -x
  west.Initialize(w);
  east.Initialize(e);
  west.Run(50);
  east.Run(50);
  // Interior statistics should match closely by symmetry (house centered
  // within the x-extent up to the buffer asymmetry).
  EXPECT_NEAR(west.InteriorMeanSpeed(), east.InteriorMeanSpeed(),
              0.25 * west.InteriorMeanSpeed() + 0.05);
}

TEST(Solver, ReinitializeMatchesAFreshSolverBitwise) {
  // Initialize writes the faces fixed for a solve into both field buffers
  // and the stages never rewrite them, so a solver reused for a new
  // boundary must not carry anything over: neither from a wind entering
  // through other faces nor from a different speed through the same ones.
  Mesh mesh(SmallMesh());
  Boundary next = WestWind(3.0);
  next.wind_dir_deg = 225.0;
  for (double first_dir : {45.0, 225.0}) {
    Boundary first = WestWind(5.0);
    first.wind_dir_deg = first_dir;
    Solver reused(mesh, SolverParams{}), fresh(mesh, SolverParams{});
    reused.Initialize(first);
    reused.Run(7);
    reused.Initialize(next);
    fresh.Initialize(next);
    reused.Run(12);
    fresh.Run(12);
    ASSERT_TRUE(std::ranges::equal(reused.u(), fresh.u()))
        << "first wind " << first_dir;
    ASSERT_TRUE(std::ranges::equal(reused.v(), fresh.v()));
    ASSERT_TRUE(std::ranges::equal(reused.w(), fresh.w()));
    ASSERT_TRUE(
        std::ranges::equal(reused.temperature(), fresh.temperature()));
    ASSERT_TRUE(std::ranges::equal(reused.pressure(), fresh.pressure()));
  }
}

TEST(Solver, CellUpdatesAccumulate) {
  Mesh mesh(SmallMesh());
  SolverParams params;
  Solver s(mesh, params);
  s.Initialize(WestWind());
  s.Step();
  const uint64_t one = s.total_cell_updates();
  // Exact interior-cell accounting: Advect + DiffuseAndForce + Project each
  // update every interior cell once, and so does each Poisson pass (one by
  // default).
  const uint64_t interior = static_cast<uint64_t>(mesh.nx() - 2) *
                            static_cast<uint64_t>(mesh.ny() - 2) *
                            static_cast<uint64_t>(mesh.nz() - 2);
  EXPECT_EQ(s.interior_cell_count(), interior);
  EXPECT_EQ(params.poisson_iters, 1);
  EXPECT_EQ(one, 4 * interior);
  s.Step();
  EXPECT_EQ(s.total_cell_updates(), 2 * one);

  SolverParams corrected;
  corrected.poisson_iters = 3;
  Solver c(mesh, corrected);
  c.Initialize(WestWind());
  c.Step();
  EXPECT_EQ(c.total_cell_updates(), 6 * interior);
}

TEST(Solver, PointSampling) {
  Mesh mesh(SmallMesh());
  Solver s(mesh, SolverParams{});
  s.Initialize(WestWind());
  s.Run(30);
  const MeshParams& p = mesh.params();
  const double inside =
      s.SpeedAtPoint((p.house_x0 + p.house_x1) / 2,
                     (p.house_y0 + p.house_y1) / 2, 2.0);
  const double outside = s.SpeedAtPoint(10.0, p.domain_y / 2, 8.0);
  EXPECT_LT(inside, outside);
  EXPECT_GT(s.TemperatureAtPoint(p.house_x0 + 20, p.house_y0 + 20, 2.0),
            s.boundary().exterior_temp_c - 1.0);
}

}  // namespace
}  // namespace xg::cfd
