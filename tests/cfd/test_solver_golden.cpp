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

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "cfd/lanes.hpp"
#include "cfd/mesh.hpp"

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

/// FNV-1a over the bit patterns of a field, so -0.0 and 0.0 differ.
uint64_t FieldHash(std::span<const double> field) {
  uint64_t h = 14695981039346656037ull;
  for (double x : field) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Bitwise pin of the full field state after 120 steps (the fabric's
// cfd_steps) on the default 48x40x12 mesh, so a kernel rewrite that
// reorders one operation anywhere is caught, not only one that moves a
// summary scalar past kTol. The three south-west winds leave x-max and
// y-max as outflow faces; the fourth case, a north-east wind on a mesh 47
// cells wide, makes x-min and y-min the outflow faces and gives every row
// an odd interior width, so the one-lane tail of the two-lane kernels
// runs. All hashes were captured
// from the scalar kernels as they stood before the two-lane rewrite (the
// parent commit's solver, built unmodified), and any change to the
// stepping arithmetic that is meant to keep results must reproduce them.
// They assume IEEE double arithmetic without contraction into FMA, which
// the kernel files guard in source (see cfd/packs.hpp), so they hold under
// -march=x86-64-v3 too. Every case runs at every lane width this CPU
// offers (SSE2, AVX2, AVX-512) against the same hashes.
TEST(SolverGolden, FieldHashesMatchParent) {
  struct Case {
    double dir_deg, speed_ms;
    int nx;
    std::array<uint64_t, 5> want;  ///< u, v, w, T, p
  };
  const Case cases[] = {
      {270.0, 3.0, 48,
       {0x387132b36dce28a6, 0x5ba3cbc70cce76b4, 0xbf7444dae92ad45c,
        0xa52d8013e923eca3, 0x078e8c5df5b6bfff}},
      {225.0, 4.5, 48,
       {0xccdbd50b77b2fe19, 0x5cb80682fbde016c, 0xe9661e89440d066f,
        0xc08a41bed7bfb315, 0xe8d7e2e02497f99a}},
      {200.0, 1.5, 48,
       {0xee147f4d99653768, 0xcd1c930e17345138, 0xdad73e86762ca131,
        0x8cbfb115f92b1dcf, 0x16db4e7989fb0bce}},
      {45.0, 2.0, 47,
       {0xefeb623a92f2dc2a, 0xeaec2304a4760781, 0x85c6330645ac3695,
        0x8aeecbbbd4d97f80, 0x6078d23ca900a72b}},
  };
  for (const LaneWidth width : HostLaneWidths()) {
    for (const Case& c : cases) {
      MeshParams mp;
      mp.nx = c.nx;
      const Mesh mesh(mp);
      Boundary bc;
      bc.wind_dir_deg = c.dir_deg;
      bc.wind_speed_ms = c.speed_ms;
      Solver s(mesh, SolverParams{});
      s.set_lane_width(width);
      ASSERT_EQ(s.lane_width(), width);
      s.Initialize(bc);
      s.Run(120);
      const std::array<uint64_t, 5> got = {
          FieldHash(s.u()), FieldHash(s.v()), FieldHash(s.w()),
          FieldHash(s.temperature()), FieldHash(s.pressure())};
      EXPECT_EQ(got, c.want)
          << std::hex << LaneWidthName(width) << " dir " << c.dir_deg
          << " speed " << c.speed_ms << ": {0x" << got[0] << ", 0x" << got[1]
          << ", 0x" << got[2] << ", 0x" << got[3] << ", 0x" << got[4] << "}";
    }
  }
}

// The same pin on a 9x16x12 mesh, whose 7-cell interior rows are shorter
// than an AVX-512 pack, so every row runs on the narrower packs only. The
// hashes were captured from the solver as it stood before its rows were
// aligned to cache lines and ended on a shifted full pack. The two winds
// make x-max/y-max and then x-min/y-min the outflow faces.
TEST(SolverGolden, ShortRowFieldHashesMatchParent) {
  struct Case {
    double dir_deg, speed_ms;
    std::array<uint64_t, 5> want;  ///< u, v, w, T, p
  };
  const Case cases[] = {
      {225.0, 4.5,
       {0x12d4f889f0ac5206, 0x0ae6608a80d02aea, 0xc3c0c1d4231c0810,
        0x8f3e88b8dab7b7df, 0x855bb37db3766e7f}},
      {45.0, 2.0,
       {0x05fb78c2e68bf30f, 0x2f137c4fd7eeb1df, 0x373c48d9af959dd8,
        0x2916f1a94fdc0da8, 0x6c95fd9101ef4788}},
  };
  MeshParams mp;
  mp.nx = 9;
  mp.ny = 16;
  const Mesh mesh(mp);
  for (const LaneWidth width : HostLaneWidths()) {
    for (const Case& c : cases) {
      Boundary bc;
      bc.wind_dir_deg = c.dir_deg;
      bc.wind_speed_ms = c.speed_ms;
      Solver s(mesh, SolverParams{});
      s.set_lane_width(width);
      s.Initialize(bc);
      s.Run(120);
      const std::array<uint64_t, 5> got = {
          FieldHash(s.u()), FieldHash(s.v()), FieldHash(s.w()),
          FieldHash(s.temperature()), FieldHash(s.pressure())};
      EXPECT_EQ(got, c.want)
          << std::hex << LaneWidthName(width) << " dir " << c.dir_deg
          << ": {0x" << got[0] << ", 0x" << got[1] << ", 0x" << got[2]
          << ", 0x" << got[3] << ", 0x" << got[4] << "}";
    }
  }
}

// Every width must give the SSE2 width's fields bit for bit on rows that
// end in every way a row can: shorter than an AVX-512 pack (7 interior
// cells: the narrower packs only), exactly two packs (16: no shifted
// last pack), and one cell longer (17: a last pack shifted back by seven
// cells at AVX-512, by three at AVX2, by one at SSE2). The winds make
// x-max/y-max and then x-min/y-min the outflow faces.
TEST(SolverGolden, EveryLaneWidthGivesTheSameFields) {
  for (const int nx : {9, 18, 19}) {
    MeshParams mp;
    mp.nx = nx;
    mp.ny = 14;
    mp.nz = 10;
    const Mesh mesh(mp);
    for (const double dir : {225.0, 45.0}) {
      Boundary bc;
      bc.wind_dir_deg = dir;
      bc.wind_speed_ms = 4.0;
      std::array<uint64_t, 5> want{};
      for (const LaneWidth width : HostLaneWidths()) {
        Solver s(mesh, SolverParams{});
        s.set_lane_width(width);
        s.Initialize(bc);
        s.Run(40);
        const std::array<uint64_t, 5> got = {
            FieldHash(s.u()), FieldHash(s.v()), FieldHash(s.w()),
            FieldHash(s.temperature()), FieldHash(s.pressure())};
        if (width == LaneWidth::kSse2) {
          want = got;
          continue;
        }
        EXPECT_EQ(got, want) << LaneWidthName(width) << " nx " << nx
                             << " dir " << dir;
      }
    }
  }
}

// Interior cell (1, j, k) of every field the solver exposes starts a
// 64-byte cache line on the default mesh (nx = 48: every row pitch is six
// lines), before and after the steps swap the field buffers.
TEST(SolverGolden, InteriorRowsStartACacheLine) {
  const Mesh mesh(MeshParams{});
  ASSERT_EQ(mesh.nx() % 8, 0);
  Solver s(mesh, SolverParams{});
  s.Initialize(Boundary{});
  for (int step = 0; step < 2; ++step) {
    const std::span<const double> fields[] = {s.u(), s.v(), s.w(),
                                              s.temperature(), s.pressure()};
    for (const std::span<const double> f : fields) {
      ASSERT_EQ(f.size(), mesh.cell_count());
      for (int k = 0; k < mesh.nz(); ++k) {
        for (int j = 0; j < mesh.ny(); ++j) {
          const auto at = reinterpret_cast<std::uintptr_t>(
              f.data() + mesh.Index(1, j, k));
          ASSERT_EQ(at % 64, 0u) << "step " << step << " j " << j << " k " << k;
        }
      }
    }
    s.Step();
  }
}

// The solver starts at the host's widest width; the seam narrows it, and
// a width the CPU does not run falls back to the widest one it does.
TEST(SolverGolden, LaneWidthComesFromTheCpu) {
  const std::span<const LaneWidth> widths = HostLaneWidths();
  ASSERT_FALSE(widths.empty());
  EXPECT_EQ(widths.front(), LaneWidth::kSse2);
  EXPECT_EQ(widths.back(), HostLaneWidth());
  EXPECT_TRUE(std::is_sorted(widths.begin(), widths.end()));
  const Mesh mesh(GoldenMesh());
  Solver s(mesh, SolverParams{});
  EXPECT_EQ(s.lane_width(), HostLaneWidth());
  s.set_lane_width(LaneWidth::kSse2);
  EXPECT_EQ(s.lane_width(), LaneWidth::kSse2);
  s.set_lane_width(LaneWidth::kAvx512);
  EXPECT_EQ(s.lane_width(), HostLaneWidth());
  EXPECT_EQ(LaneWidthName(LaneWidth::kSse2), "sse2");
  EXPECT_EQ(LaneWidthName(LaneWidth::kAvx2), "avx2");
  EXPECT_EQ(LaneWidthName(LaneWidth::kAvx512), "avx512");
}

// Run(n) computes the diagnostics only on its last step; what it returns
// must be exactly what the n-th Step() returns.
TEST(SolverGolden, RunReturnsTheLastStepsStats) {
  Mesh mesh(GoldenMesh());
  const Golden g = GoldenCase(0);
  Solver stepped(mesh, SolverParams{}), run(mesh, SolverParams{});
  stepped.Initialize(g.bc);
  run.Initialize(g.bc);
  StepStats want;
  for (int s = 0; s < 7; ++s) want = stepped.Step();
  const StepStats got = run.Run(7);
  EXPECT_EQ(got.max_divergence, want.max_divergence);
  EXPECT_EQ(got.poisson_residual, want.poisson_residual);
  EXPECT_EQ(got.poisson_rhs, want.poisson_rhs);
  EXPECT_EQ(got.cell_updates, want.cell_updates);
  EXPECT_GT(got.poisson_rhs, 0.0);
  EXPECT_GT(got.max_divergence, 0.0);
  EXPECT_TRUE(std::ranges::equal(run.u(), stepped.u()));
  EXPECT_TRUE(std::ranges::equal(run.temperature(), stepped.temperature()));
  EXPECT_TRUE(std::ranges::equal(run.pressure(), stepped.pressure()));
  EXPECT_EQ(run.Run(0).cell_updates, 0u);
}

}  // namespace
}  // namespace xg::cfd
