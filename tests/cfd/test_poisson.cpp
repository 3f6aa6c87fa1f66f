#include "cfd/poisson.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "cfd/lanes.hpp"
#include "cfd/mesh.hpp"

namespace xg::cfd {
namespace {

MeshParams MeshOf(int nx, int ny, int nz) {
  MeshParams p;
  p.nx = nx;
  p.ny = ny;
  p.nz = nz;
  return p;
}

/// Dense 1-D Laplacian c * (p[i-1] - 2 p[i] + p[i+1]) with the given ends.
std::vector<double> Dense1D(int m, double c, bool dirichlet_lo,
                            bool dirichlet_hi) {
  std::vector<double> a(static_cast<size_t>(m) * m, 0.0);
  for (int i = 0; i < m; ++i) {
    double diag = -2.0 * c;
    if (i == 0 && !dirichlet_lo) diag += c;
    if (i == m - 1 && !dirichlet_hi) diag += c;
    a[i * m + i] = diag;
    if (i > 0) a[i * m + i - 1] = c;
    if (i < m - 1) a[i * m + i + 1] = c;
  }
  return a;
}

TEST(Poisson, EigenbasesDiagonalizeTheOneDimensionalLaplacian) {
  for (int m : {1, 2, 5, 10, 38, 47}) {
    for (double c : {0.04, 0.16, 1.0}) {
      for (int ends = 0; ends < 4; ++ends) {
        const bool lo = (ends & 1) != 0, hi = (ends & 2) != 0;
        const LaplacianModes modes = LaplacianModes1D(m, c, lo, hi);
        const std::vector<double> a = Dense1D(m, c, lo, hi);
        ASSERT_EQ(modes.q.size(), static_cast<size_t>(m) * m);
        ASSERT_EQ(modes.mu.size(), static_cast<size_t>(m));
        double worst_diag = 0.0, worst_orth = 0.0;
        for (int r = 0; r < m; ++r) {
          for (int s = 0; s < m; ++s) {
            // (Q^T A Q)[r][s] and (Q^T Q)[r][s].
            double qaq = 0.0, qq = 0.0;
            for (int i = 0; i < m; ++i) {
              double aq = 0.0;
              for (int j = 0; j < m; ++j) aq += a[i * m + j] * modes.q[j * m + s];
              qaq += modes.q[i * m + r] * aq;
              qq += modes.q[i * m + r] * modes.q[i * m + s];
            }
            worst_diag = std::max(
                worst_diag, std::abs(qaq - (r == s ? modes.mu[r] : 0.0)));
            worst_orth = std::max(worst_orth, std::abs(qq - (r == s ? 1.0 : 0.0)));
          }
        }
        EXPECT_LE(worst_diag, 1e-12) << "m=" << m << " c=" << c << " ends=" << ends;
        EXPECT_LE(worst_orth, 1e-12) << "m=" << m << " c=" << c << " ends=" << ends;
        for (double mu : modes.mu) {
          EXPECT_LE(mu, 0.0);
          EXPECT_GT(mu, -4.0 * c);
        }
      }
    }
  }
}

/// A p at every interior cell, written from the stated face rule and not
/// from PoissonSolver::FillGhosts: a lateral face is a Neumann mirror where
/// the wind enters the domain and a Dirichlet ghost (p = 0) otherwise;
/// ground and top are Neumann.
double MaxResidual(const Mesh& mesh, double wx, double wy,
                   const std::vector<double>& p, const std::vector<double>& b) {
  const int nx = mesh.nx(), ny = mesh.ny(), nz = mesh.nz();
  const double cx = 1.0 / (mesh.dx() * mesh.dx());
  const double cy = 1.0 / (mesh.dy() * mesh.dy());
  const double cz = 1.0 / (mesh.dz() * mesh.dz());
  const bool neumann_x_lo = wx > 0, neumann_x_hi = wx < 0;
  const bool neumann_y_lo = wy > 0, neumann_y_hi = wy < 0;
  double worst = 0.0;
  for (int k = 1; k < nz - 1; ++k) {
    for (int j = 1; j < ny - 1; ++j) {
      for (int i = 1; i < nx - 1; ++i) {
        const double pc = p[mesh.Index(i, j, k)];
        const auto nb = [&](int ii, int jj, int kk, bool neumann) {
          const bool ghost = ii == 0 || ii == nx - 1 || jj == 0 ||
                             jj == ny - 1 || kk == 0 || kk == nz - 1;
          if (!ghost) return p[mesh.Index(ii, jj, kk)];
          return neumann ? pc : 0.0;
        };
        const double lap =
            cx * (nb(i - 1, j, k, neumann_x_lo) + nb(i + 1, j, k, neumann_x_hi) - 2 * pc) +
            cy * (nb(i, j - 1, k, neumann_y_lo) + nb(i, j + 1, k, neumann_y_hi) - 2 * pc) +
            cz * (nb(i, j, k - 1, true) + nb(i, j, k + 1, true) - 2 * pc);
        worst = std::max(worst, std::abs(lap - b[mesh.Index(i, j, k)]));
      }
    }
  }
  return worst;
}

TEST(Poisson, DirectSolveMeetsToleranceForEveryWindSignPattern) {
  // Standard test mesh, odd extents, and a single interior layer (mz = 1).
  const MeshParams meshes[] = {MeshOf(24, 20, 12), MeshOf(13, 9, 7),
                               MeshOf(11, 8, 3), MeshOf(3, 3, 3)};
  // +0.0 and -0.0 both make the two faces of that axis Dirichlet.
  const double signs[] = {1.5, -2.0, 0.0, -0.0};
  std::mt19937_64 rng(20251017);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  for (const MeshParams& mp : meshes) {
    const Mesh mesh(mp);
    for (double wx : signs) {
      for (double wy : signs) {
        PoissonSolver solver(mesh);
        solver.Configure(wx, wy);
        std::vector<double> b(mesh.cell_count(), 0.0);
        double b_max = 0.0;
        for (int k = 1; k < mesh.nz() - 1; ++k) {
          for (int j = 1; j < mesh.ny() - 1; ++j) {
            for (int i = 1; i < mesh.nx() - 1; ++i) {
              const double v = uni(rng);
              b[mesh.Index(i, j, k)] = v;
              b_max = std::max(b_max, std::abs(v));
            }
          }
        }
        std::vector<double> p = b;
        solver.Solve(p.data());
        EXPECT_LE(MaxResidual(mesh, wx, wy, p, b), 1e-10 * b_max)
            << mp.nx << "x" << mp.ny << "x" << mp.nz << " wx=" << wx
            << (std::signbit(wx) ? " (-)" : "") << " wy=" << wy
            << (std::signbit(wy) ? " (-)" : "");
      }
    }
  }
}

TEST(Poisson, BoundaryCellsAreLeftAlone) {
  const Mesh mesh(MeshOf(13, 9, 7));
  PoissonSolver solver(mesh);
  solver.Configure(1.0, -1.0);
  std::vector<double> x(mesh.cell_count(), 7.0);
  solver.Solve(x.data());
  for (int k = 0; k < mesh.nz(); ++k) {
    for (int j = 0; j < mesh.ny(); ++j) {
      for (int i = 0; i < mesh.nx(); ++i) {
        const bool boundary = i == 0 || i == mesh.nx() - 1 || j == 0 ||
                              j == mesh.ny() - 1 || k == 0 || k == mesh.nz() - 1;
        if (boundary) {
          ASSERT_EQ(x[mesh.Index(i, j, k)], 7.0);
        }
      }
    }
  }
}

TEST(Poisson, FillGhostsMatchesTheFaceRule) {
  const Mesh mesh(MeshOf(13, 9, 7));
  PoissonSolver solver(mesh);
  solver.Configure(2.0, -0.0);  // x-min inflow; both y faces Dirichlet
  std::vector<double> p(mesh.cell_count());
  for (size_t c = 0; c < p.size(); ++c) p[c] = 1.0 + static_cast<double>(c);
  solver.FillGhosts(p.data());
  const int j = 4, k = 3;
  EXPECT_EQ(p[mesh.Index(0, j, k)], p[mesh.Index(1, j, k)]);
  EXPECT_EQ(p[mesh.Index(mesh.nx() - 1, j, k)], 0.0);
  EXPECT_EQ(p[mesh.Index(5, 0, k)], 0.0);
  EXPECT_EQ(p[mesh.Index(5, mesh.ny() - 1, k)], 0.0);
  EXPECT_EQ(p[mesh.Index(5, j, 0)], p[mesh.Index(5, j, 1)]);
  EXPECT_EQ(p[mesh.Index(5, j, mesh.nz() - 1)], p[mesh.Index(5, j, mesh.nz() - 2)]);
}

// The transforms run in row blocks of several packs, one pack, or one lane
// when a row is shorter than a pack. On these meshes mx (11, 5, 1) is
// shorter than every width's block, 5 is shorter than an AVX-512 pack, and
// 46 takes the default mesh's full blocks with a shifted last one. Every
// width must give the SSE2 width's solution bit for bit.
TEST(Poisson, SolveIsBitwiseTheSameAtEveryLaneWidth) {
  const MeshParams meshes[] = {MeshOf(13, 9, 7), MeshOf(7, 6, 5),
                               MeshOf(3, 3, 3), MeshOf(48, 40, 12)};
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  for (const MeshParams& mp : meshes) {
    const Mesh mesh(mp);
    for (const double wx : {1.5, -2.0}) {
      for (const double wy : {1.0, -0.0}) {
        std::vector<double> b(mesh.cell_count(), 0.0);
        for (double& v : b) v = uni(rng);
        std::vector<double> want;
        for (const LaneWidth width : HostLaneWidths()) {
          PoissonSolver solver(mesh);
          solver.set_lane_width(width);
          solver.Configure(wx, wy);
          std::vector<double> x = b;
          solver.Solve(x.data());
          if (width == LaneWidth::kSse2) {
            want = x;
            continue;
          }
          ASSERT_EQ(x.size(), want.size());
          EXPECT_EQ(
              std::memcmp(x.data(), want.data(), x.size() * sizeof(double)), 0)
              << LaneWidthName(width) << " " << mp.nx << "x" << mp.ny << "x"
              << mp.nz << " wx=" << wx << " wy=" << wy;
        }
      }
    }
  }
}

/// FNV-1a over the bit patterns of every value, so -0.0 and 0.0 differ.
uint64_t BitsHash(const std::vector<double>& values) {
  uint64_t h = 14695981039346656037ull;
  for (const double x : values) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// A right-hand side in [-1, 1) from splitmix64, the same on every
/// standard library (unlike the <random> distributions).
std::vector<double> PortableRhs(size_t n, uint64_t seed) {
  std::vector<double> b(n);
  for (double& v : b) {
    uint64_t z = (seed += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    v = static_cast<double>(z >> 11) * 0x1.0p-52 - 1.0;
  }
  return b;
}

// Bitwise pin of the direct solve itself, so a rewrite of the transforms
// or the sweeps that changed the bits at every width alike is caught (the
// test above only compares widths with each other). The hashes were
// captured from the solver as it stood before its mode-major rewrite. The
// meshes cover rows shorter than an AVX-512 pack (13x9x7: mx 11, my 7),
// a y extent of more than one pack but not a multiple of it (20x19x6:
// my 17), and the default mesh; each with an inflow pattern that has a
// Neumann x-min and y-min face and one with a Neumann x-max face and
// both y faces Dirichlet. Every case runs at every host width.
TEST(Poisson, SolveMatchesParentBitwise) {
  struct Case {
    MeshParams mesh;
    double wx, wy;
    uint64_t want;
  };
  const Case cases[] = {
      {MeshOf(13, 9, 7), 1.5, 1.0, 0xb956e6331060ce61},
      {MeshOf(13, 9, 7), -2.0, -0.0, 0x2a551f67db466a42},
      {MeshOf(20, 19, 6), 1.5, 1.0, 0xd819b5ab72aaeeb8},
      {MeshOf(20, 19, 6), -2.0, -0.0, 0xfa8f98d17aab3d6c},
      {MeshOf(48, 40, 12), 1.5, 1.0, 0x581342adb3606f13},
      {MeshOf(48, 40, 12), -2.0, -0.0, 0xad37aba60f25144f},
  };
  for (const LaneWidth width : HostLaneWidths()) {
    for (const Case& c : cases) {
      const Mesh mesh(c.mesh);
      PoissonSolver solver(mesh);
      solver.set_lane_width(width);
      solver.Configure(c.wx, c.wy);
      std::vector<double> x = PortableRhs(mesh.cell_count(), 20261020);
      solver.Solve(x.data());
      const uint64_t got = BitsHash(x);
      EXPECT_EQ(got, c.want)
          << LaneWidthName(width) << " " << c.mesh.nx << "x" << c.mesh.ny
          << "x" << c.mesh.nz << " wx=" << c.wx << " wy=" << c.wy << ": 0x"
          << std::hex << got;
    }
  }
}

}  // namespace
}  // namespace xg::cfd
