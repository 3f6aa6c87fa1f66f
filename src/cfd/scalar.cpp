#include "cfd/fp_contract.hpp"  // first: no FMA contraction below
#include "cfd/scalar.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace xg::cfd {

ScalarField::ScalarField(const Solver& solver, double diffusivity)
    : solver_(solver), diffusivity_(diffusivity) {
  c_.assign(solver.mesh().cell_count(), 0.0);
  c0_.assign(solver.mesh().cell_count(), 0.0);
}

double ScalarField::At(int i, int j, int k) const {
  return c_[solver_.mesh().Index(i, j, k)];
}

void ScalarField::Transport() {
  const Mesh& mesh = solver_.mesh();
  const int nx = mesh.nx(), ny = mesh.ny(), nz = mesh.nz();
  const int sx = 1, sy = nx, sz = nx * ny;
  const double dt = 0.2;  // matches the default solver step
  const double idx = 1.0 / mesh.dx(), idy = 1.0 / mesh.dy(),
               idz = 1.0 / mesh.dz();
  const double cx = idx * idx, cy = idy * idy, cz = idz * idz;
  c0_ = c_;
  const std::span<const double> u = solver_.u();
  const std::span<const double> v = solver_.v();
  const std::span<const double> w = solver_.w();

  for (int k = 1; k < nz - 1; ++k) {
    for (int j = 1; j < ny - 1; ++j) {
      for (int i = 1; i < nx - 1; ++i) {
        const size_t c = mesh.Index(i, j, k);
        const double uu = u[c], vv = v[c], ww = w[c];
        const double dfx = uu >= 0 ? (c0_[c] - c0_[c - sx]) * idx
                                   : (c0_[c + sx] - c0_[c]) * idx;
        const double dfy = vv >= 0 ? (c0_[c] - c0_[c - sy]) * idy
                                   : (c0_[c + sy] - c0_[c]) * idy;
        const double dfz = ww >= 0 ? (c0_[c] - c0_[c - sz]) * idz
                                   : (c0_[c + sz] - c0_[c]) * idz;
        const double adv = uu * dfx + vv * dfy + ww * dfz;
        const double lap = cx * (c0_[c + sx] - 2 * c0_[c] + c0_[c - sx]) +
                           cy * (c0_[c + sy] - 2 * c0_[c] + c0_[c - sy]) +
                           cz * (c0_[c + sz] - 2 * c0_[c] + c0_[c - sz]);
        double val = c0_[c] + dt * (-adv + diffusivity_ * lap);
        // Canopy deposition: foliage captures a fraction per step — that
        // is the dose the application is trying to deliver.
        c_[c] = std::max(0.0, val);
      }
    }
  }
  // Open boundaries: scalar leaves the domain (concentration 0 ghosts).
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      c_[mesh.Index(0, j, k)] = 0.0;
      c_[mesh.Index(nx - 1, j, k)] = 0.0;
    }
    for (int i = 0; i < nx; ++i) {
      c_[mesh.Index(i, 0, k)] = 0.0;
      c_[mesh.Index(i, ny - 1, k)] = 0.0;
    }
  }
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      c_[mesh.Index(i, j, 0)] = c_[mesh.Index(i, j, 1)];  // ground: no flux
      c_[mesh.Index(i, j, nz - 1)] = 0.0;                 // top: open
    }
  }
}

void ScalarField::Step(const SprayRelease& release, double elapsed_s) {
  Transport();
  if (elapsed_s <= release.duration_s) {
    const Mesh& mesh = solver_.mesh();
    int ci, cj, ck;
    mesh.Locate(release.x_m, release.y_m, release.z_m, ci, cj, ck);
    // Release into interior cells: the ground boundary layer (k = 0) is a
    // no-flux mirror, not a transported cell.
    ck = std::clamp(ck, 1, mesh.nz() - 2);
    ci = std::clamp(ci, 1, mesh.nx() - 2);
    cj = std::clamp(cj, 1, mesh.ny() - 2);
    const int span_x =
        std::max(1, static_cast<int>(release.radius_m / mesh.dx()));
    const int span_y =
        std::max(1, static_cast<int>(release.radius_m / mesh.dy()));
    for (int j = std::max(1, cj - span_y);
         j <= std::min(mesh.ny() - 2, cj + span_y); ++j) {
      for (int i = std::max(1, ci - span_x);
           i <= std::min(mesh.nx() - 2, ci + span_x); ++i) {
        const double d = std::hypot((i - ci) * mesh.dx(), (j - cj) * mesh.dy());
        if (d <= release.radius_m) {
          c_[mesh.Index(i, j, ck)] += release.rate * 0.2;  // rate * dt
          released_ += release.rate * 0.2;
        }
      }
    }
  }
}

void ScalarField::Step() { Transport(); }

SprayStats ScalarField::Stats(double dose_threshold) const {
  SprayStats s;
  const Mesh& mesh = solver_.mesh();
  size_t canopy_cells = 0, covered = 0;
  for (int k = 0; k < mesh.nz(); ++k) {
    for (int j = 0; j < mesh.ny(); ++j) {
      for (int i = 0; i < mesh.nx(); ++i) {
        const size_t c = mesh.Index(i, j, k);
        s.total_mass += c_[c];
        if (mesh.InsideHouse(i, j, k)) s.in_house_mass += c_[c];
        if (mesh.Type(i, j, k) == CellType::kCanopy) {
          ++canopy_cells;
          s.canopy_dose += c_[c];
          if (c_[c] >= dose_threshold) ++covered;
        }
      }
    }
  }
  s.released_mass = released_;
  s.escaped_fraction =
      released_ > 1e-12
          ? std::clamp(1.0 - s.in_house_mass / released_, 0.0, 1.0)
          : 0.0;
  s.coverage_fraction =
      canopy_cells > 0 ? static_cast<double>(covered) / canopy_cells : 0.0;
  return s;
}

SprayStats SimulateSpray(const Solver& solver, const SprayRelease& release,
                         double total_s, double dose_threshold) {
  ScalarField field(solver);
  double t = 0.0;
  while (t < total_s) {
    field.Step(release, t);
    t += 0.2;
  }
  return field.Stats(dose_threshold);
}

}  // namespace xg::cfd
