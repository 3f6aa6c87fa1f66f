#include "cfd/solver.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/kerneltimer.hpp"

// Kernels read through restrict-qualified pointers: the write buffer never
// aliases the read buffer (they are distinct Fields), which lets the
// compiler keep stencil neighborhoods in registers across the row.
#if defined(__GNUC__) || defined(__clang__)
#define XG_RESTRICT __restrict__
#else
#define XG_RESTRICT
#endif

namespace xg::cfd {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// Atmospheric boundary-layer power-law profile, normalized to 1 at 10 m.
double WindProfile(double z_m) {
  const double z = std::max(0.5, z_m);
  return std::max(0.3, std::pow(z / 10.0, 0.14));
}

/// Partial accumulator for interior-mean reductions.
struct SumCount {
  double sum = 0.0;
  uint64_t n = 0;
};

SumCount CombineSumCount(SumCount a, SumCount b) {
  return {a.sum + b.sum, a.n + b.n};
}

/// Partial accumulator for the Poisson residual check: max |A p - b| and
/// max |b| in one pass.
struct ResidualMax {
  double residual = 0.0, rhs = 0.0;
};

ResidualMax CombineResidualMax(ResidualMax a, ResidualMax b) {
  return {std::max(a.residual, b.residual), std::max(a.rhs, b.rhs)};
}
}  // namespace

Solver::Solver(const Mesh& mesh, SolverParams params, ThreadPool* pool)
    : mesh_(mesh), params_(params), pool_(pool), poisson_(mesh) {
  const size_t n = mesh_.cell_count();
  cur_.Assign(n);
  prev_.Assign(n);
  p_.assign(n, 0.0);
  div_.assign(n, 0.0);

  // Bake the porous-media terms into per-cell arrays so the diffusion
  // kernel never consults geometry: drag coefficient per cell and the
  // per-step canopy heat increment (K per step scaling).
  cell_drag_.assign(n, 0.0);
  cell_heat_.assign(n, 0.0);
  const std::vector<CellType>& types = mesh_.types();
  for (size_t c = 0; c < n; ++c) {
    if (types[c] == CellType::kScreen) {
      cell_drag_[c] = params_.screen_drag;
    } else if (types[c] == CellType::kCanopy) {
      cell_drag_[c] = params_.canopy_drag;
      cell_heat_[c] = params_.dt_s * params_.canopy_heat_w * 100.0;
    }
  }
  const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  interior_cells_ = (nx > 2 && ny > 2 && nz > 2)
                        ? static_cast<uint64_t>(nx - 2) *
                              static_cast<uint64_t>(ny - 2) *
                              static_cast<uint64_t>(nz - 2)
                        : 0;
  double wx, wy;
  WindVector(wx, wy);
  poisson_.Configure(wx, wy);
}

void Solver::WindVector(double& wx, double& wy) const {
  const double theta = bc_.wind_dir_deg * kPi / 180.0;
  // Meteorological convention: direction the wind comes FROM, clockwise
  // from north; +x east, +y north.
  wx = -bc_.wind_speed_ms * std::sin(theta);
  wy = -bc_.wind_speed_ms * std::cos(theta);
}

void Solver::Initialize(const Boundary& bc) {
  bc_ = bc;
  double wx, wy;
  WindVector(wx, wy);
  poisson_.Configure(wx, wy);
  const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  for (int k = 0; k < nz; ++k) {
    const double prof = WindProfile(mesh_.Z(k));
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const size_t c = mesh_.Index(i, j, k);
        const bool inside = mesh_.InsideHouse(i, j, k);
        cur_.u[c] = inside ? 0.0 : wx * prof;
        cur_.v[c] = inside ? 0.0 : wy * prof;
        cur_.w[c] = 0.0;
        p_[c] = 0.0;
        cur_.t[c] = inside ? bc.interior_temp_c : bc.exterior_temp_c;
      }
    }
  }
  ApplyBounds(cur_, true);
}

template <typename Body>
void Solver::ForSlabs(Body&& body) const {
  const int nz = mesh_.nz();
  if (nz <= 2) return;
  if (pool_ != nullptr && nz > 3) {
    // Slab decomposition over k in [1, nz-1).
    pool_->ParallelFor(static_cast<size_t>(nz - 2), [&](size_t b, size_t e) {
      body(static_cast<int>(b) + 1, static_cast<int>(e) + 1);
    });
  } else {
    body(1, nz - 1);
  }
}

template <typename T, typename Map, typename Combine>
T Solver::ReduceSlabs(T identity, Map&& map, Combine&& combine) const {
  // One partial per slab, so the fold order never depends on how the
  // slabs were spread over workers.
  const int nz = mesh_.nz();
  std::vector<T> part(static_cast<size_t>(std::max(0, nz - 2)), identity);
  ForSlabs([&](int kb, int ke) {
    for (int k = kb; k < ke; ++k) part[static_cast<size_t>(k - 1)] = map(k, k + 1);
  });
  T acc = identity;
  for (const T& x : part) acc = combine(acc, x);
  return acc;
}

void Solver::ApplyBounds(Fields& f, bool with_scalar) const {
  const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  double wx, wy;
  WindVector(wx, wy);
  const double t_in = bc_.exterior_temp_c;
  double* XG_RESTRICT u = f.u.data();
  double* XG_RESTRICT v = f.v.data();
  double* XG_RESTRICT w = f.w.data();
  double* XG_RESTRICT t = f.t.data();

  // Lateral faces: Dirichlet inflow where the wind enters, zero-gradient
  // outflow elsewhere — one fused sweep over all transported fields.
  for (int k = 0; k < nz; ++k) {
    const double prof = WindProfile(mesh_.Z(k));
    for (int j = 0; j < ny; ++j) {
      {  // x-min face (inward normal +x)
        const size_t c = mesh_.Index(0, j, k), n = mesh_.Index(1, j, k);
        if (wx > 0) {
          u[c] = wx * prof;
          v[c] = wy * prof;
          w[c] = 0.0;
          if (with_scalar) t[c] = t_in;
        } else {
          u[c] = u[n];
          v[c] = v[n];
          w[c] = w[n];
          if (with_scalar) t[c] = t[n];
        }
      }
      {  // x-max face (inward normal -x)
        const size_t c = mesh_.Index(nx - 1, j, k), n = mesh_.Index(nx - 2, j, k);
        if (wx < 0) {
          u[c] = wx * prof;
          v[c] = wy * prof;
          w[c] = 0.0;
          if (with_scalar) t[c] = t_in;
        } else {
          u[c] = u[n];
          v[c] = v[n];
          w[c] = w[n];
          if (with_scalar) t[c] = t[n];
        }
      }
    }
    for (int i = 0; i < nx; ++i) {
      {  // y-min face (inward normal +y)
        const size_t c = mesh_.Index(i, 0, k), n = mesh_.Index(i, 1, k);
        if (wy > 0) {
          u[c] = wx * prof;
          v[c] = wy * prof;
          w[c] = 0.0;
          if (with_scalar) t[c] = t_in;
        } else {
          u[c] = u[n];
          v[c] = v[n];
          w[c] = w[n];
          if (with_scalar) t[c] = t[n];
        }
      }
      {  // y-max face (inward normal -y)
        const size_t c = mesh_.Index(i, ny - 1, k), n = mesh_.Index(i, ny - 2, k);
        if (wy < 0) {
          u[c] = wx * prof;
          v[c] = wy * prof;
          w[c] = 0.0;
          if (with_scalar) t[c] = t_in;
        } else {
          u[c] = u[n];
          v[c] = v[n];
          w[c] = w[n];
          if (with_scalar) t[c] = t[n];
        }
      }
    }
  }
  // Ground: no-slip, zero-gradient scalar. Top: free-slip (zero normal
  // velocity), zero-gradient scalar.
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const size_t g = mesh_.Index(i, j, 0);
      const size_t above = mesh_.Index(i, j, 1);
      u[g] = v[g] = w[g] = 0.0;
      const size_t top = mesh_.Index(i, j, nz - 1);
      const size_t below = mesh_.Index(i, j, nz - 2);
      u[top] = u[below];
      v[top] = v[below];
      w[top] = 0.0;
      if (with_scalar) {
        t[g] = t[above];
        t[top] = t[below];
      }
    }
  }
}

void Solver::Advect() {
  std::swap(cur_, prev_);
  const double dt = params_.dt_s;
  const double idx = 1.0 / mesh_.dx(), idy = 1.0 / mesh_.dy(),
               idz = 1.0 / mesh_.dz();
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const size_t sx = 1, sy = static_cast<size_t>(nx),
               sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const double* XG_RESTRICT u0 = prev_.u.data();
  const double* XG_RESTRICT v0 = prev_.v.data();
  const double* XG_RESTRICT w0 = prev_.w.data();
  const double* XG_RESTRICT t0 = prev_.t.data();
  double* XG_RESTRICT u = cur_.u.data();
  double* XG_RESTRICT v = cur_.v.data();
  double* XG_RESTRICT w = cur_.w.data();
  double* XG_RESTRICT t = cur_.t.data();

  ForSlabs([&](int kb, int ke) {
    for (int k = kb; k < ke; ++k) {
      for (int j = 1; j < ny - 1; ++j) {
        size_t c = mesh_.Index(1, j, k);
        for (int i = 1; i < nx - 1; ++i, ++c) {
          const double uu = u0[c], vv = v0[c], ww = w0[c];
          const auto upwind = [&](const double* XG_RESTRICT fld) {
            // First-order upwind derivative along each axis.
            const double dfx = uu >= 0 ? (fld[c] - fld[c - sx]) * idx
                                       : (fld[c + sx] - fld[c]) * idx;
            const double dfy = vv >= 0 ? (fld[c] - fld[c - sy]) * idy
                                       : (fld[c + sy] - fld[c]) * idy;
            const double dfz = ww >= 0 ? (fld[c] - fld[c - sz]) * idz
                                       : (fld[c + sz] - fld[c]) * idz;
            return uu * dfx + vv * dfy + ww * dfz;
          };
          u[c] = u0[c] - dt * upwind(u0);
          v[c] = v0[c] - dt * upwind(v0);
          w[c] = w0[c] - dt * upwind(w0);
          t[c] = t0[c] - dt * upwind(t0);
        }
      }
    }
  });
  ApplyBounds(cur_, true);
  total_updates_ += interior_cells_;
}

void Solver::DiffuseAndForce() {
  std::swap(cur_, prev_);
  const double dt = params_.dt_s;
  const double cx = 1.0 / (mesh_.dx() * mesh_.dx());
  const double cy = 1.0 / (mesh_.dy() * mesh_.dy());
  const double cz = 1.0 / (mesh_.dz() * mesh_.dz());
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const size_t sx = 1, sy = static_cast<size_t>(nx),
               sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const double dtnu = dt * params_.eddy_viscosity;
  const double dtkappa = dt * params_.thermal_diffusivity;
  const double gbeta = dt * params_.gravity * params_.buoyancy_beta;
  const double t_ext = bc_.exterior_temp_c;
  const double* XG_RESTRICT u0 = prev_.u.data();
  const double* XG_RESTRICT v0 = prev_.v.data();
  const double* XG_RESTRICT w0 = prev_.w.data();
  const double* XG_RESTRICT t0 = prev_.t.data();
  double* XG_RESTRICT u = cur_.u.data();
  double* XG_RESTRICT v = cur_.v.data();
  double* XG_RESTRICT w = cur_.w.data();
  double* XG_RESTRICT t = cur_.t.data();
  const double* XG_RESTRICT drag = cell_drag_.data();
  const double* XG_RESTRICT heat = cell_heat_.data();
  const CellType* XG_RESTRICT type = mesh_.types().data();

  ForSlabs([&](int kb, int ke) {
    for (int k = kb; k < ke; ++k) {
      for (int j = 1; j < ny - 1; ++j) {
        size_t c = mesh_.Index(1, j, k);
        for (int i = 1; i < nx - 1; ++i, ++c) {
          const auto lap = [&](const double* XG_RESTRICT fld) {
            return cx * (fld[c + sx] - 2.0 * fld[c] + fld[c - sx]) +
                   cy * (fld[c + sy] - 2.0 * fld[c] + fld[c - sy]) +
                   cz * (fld[c + sz] - 2.0 * fld[c] + fld[c - sz]);
          };
          double un = u0[c] + dtnu * lap(u0);
          double vn = v0[c] + dtnu * lap(v0);
          double wn = w0[c] + dtnu * lap(w0);
          double tn = t0[c] + dtkappa * lap(t0);

          // Boussinesq buoyancy relative to the exterior air temperature.
          wn += gbeta * (t0[c] - t_ext);

          // Porous drag (implicit per cell: unconditionally stable) and
          // canopy heat, both from the precomputed per-cell arrays.
          if (type[c] != CellType::kFluid) {
            const double cd = drag[c];
            const double speed = std::sqrt(un * un + vn * vn + wn * wn);
            const double damp = 1.0 / (1.0 + dt * cd * speed);
            un *= damp;
            vn *= damp;
            wn *= damp;
            tn += heat[c];
          }
          u[c] = un;
          v[c] = vn;
          w[c] = wn;
          t[c] = tn;
        }
      }
    }
  });
  ApplyBounds(cur_, true);
  total_updates_ += interior_cells_;
}

void Solver::SolvePressure(StepStats& stats) {
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const double dt = params_.dt_s;
  const double idx2 = 1.0 / (2.0 * mesh_.dx()), idy2 = 1.0 / (2.0 * mesh_.dy()),
               idz2 = 1.0 / (2.0 * mesh_.dz());
  const size_t sx = 1, sy = static_cast<size_t>(nx),
               sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const double cx = 1.0 / (mesh_.dx() * mesh_.dx());
  const double cy = 1.0 / (mesh_.dy() * mesh_.dy());
  const double cz = 1.0 / (mesh_.dz() * mesh_.dz());
  double* XG_RESTRICT p = p_.data();
  double* XG_RESTRICT div = div_.data();
  // A p at an interior cell once FillGhosts has set the boundary cells.
  const auto lap = [&](size_t c) {
    return cx * (p[c + sx] - 2 * p[c] + p[c - sx]) +
           cy * (p[c + sy] - 2 * p[c] + p[c - sy]) +
           cz * (p[c + sz] - 2 * p[c] + p[c - sz]);
  };
  // Runs cell(c) over every interior cell.
  const auto for_interior = [&](auto&& cell) {
    ForSlabs([&](int kb, int ke) {
      for (int k = kb; k < ke; ++k) {
        for (int j = 1; j < ny - 1; ++j) {
          size_t c = mesh_.Index(1, j, k);
          for (int i = 1; i < nx - 1; ++i, ++c) cell(c);
        }
      }
    });
  };

  {
    // Covers the whole pressure solve; the "sor" label is kept so kernel
    // timings stay comparable with earlier recordings.
    obs::KernelScope ks(timer_, "sor");

    // RHS b: divergence of the provisional velocity / dt.
    const double* XG_RESTRICT u = cur_.u.data();
    const double* XG_RESTRICT v = cur_.v.data();
    const double* XG_RESTRICT w = cur_.w.data();
    for_interior([&](size_t c) {
      div[c] = ((u[c + sx] - u[c - sx]) * idx2 +
                (v[c + sy] - v[c - sy]) * idy2 +
                (w[c + sz] - w[c - sz]) * idz2) /
               dt;
    });

    // The first pass solves A p = b directly. Each further pass is one
    // defect correction p += A^-1 (b - A p); the correction lives in
    // prev_.u, which is dead between DiffuseAndForce and the next Advect
    // (that one rewrites every cell).
    for (int pass = 0; pass < params_.poisson_iters; ++pass) {
      if (pass == 0) {
        for_interior([&](size_t c) { p[c] = div[c]; });
        poisson_.Solve(p, pool_);
      } else {
        double* XG_RESTRICT d = prev_.u.data();
        for_interior([&](size_t c) { d[c] = div[c] - lap(c); });
        poisson_.Solve(d, pool_);
        for_interior([&](size_t c) { p[c] += d[c]; });
      }
      poisson_.FillGhosts(p);
      total_updates_ += interior_cells_;
    }
  }

  // Residual max |A p - b| against the scale max |b|: the per-step proof
  // that the solve converged.
  obs::KernelScope ks(timer_, "residual");
  const ResidualMax r = ReduceSlabs(
      ResidualMax{},
      [&](int kb, int ke) {
        ResidualMax local;
        for (int k = kb; k < ke; ++k) {
          for (int j = 1; j < ny - 1; ++j) {
            size_t c = mesh_.Index(1, j, k);
            for (int i = 1; i < nx - 1; ++i, ++c) {
              local.residual =
                  std::max(local.residual, std::abs(lap(c) - div[c]));
              local.rhs = std::max(local.rhs, std::abs(div[c]));
            }
          }
        }
        return local;
      },
      &CombineResidualMax);
  stats.poisson_residual = r.residual;
  stats.poisson_rhs = r.rhs;
}

void Solver::Project() {
  const double dt = params_.dt_s;
  const double idx2 = 1.0 / (2.0 * mesh_.dx()), idy2 = 1.0 / (2.0 * mesh_.dy()),
               idz2 = 1.0 / (2.0 * mesh_.dz());
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const size_t sx = 1, sy = static_cast<size_t>(nx),
               sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const double* XG_RESTRICT p = p_.data();
  double* XG_RESTRICT u = cur_.u.data();
  double* XG_RESTRICT v = cur_.v.data();
  double* XG_RESTRICT w = cur_.w.data();
  ForSlabs([&](int kb, int ke) {
    for (int k = kb; k < ke; ++k) {
      for (int j = 1; j < ny - 1; ++j) {
        size_t c = mesh_.Index(1, j, k);
        for (int i = 1; i < nx - 1; ++i, ++c) {
          u[c] -= dt * (p[c + sx] - p[c - sx]) * idx2;
          v[c] -= dt * (p[c + sy] - p[c - sy]) * idy2;
          w[c] -= dt * (p[c + sz] - p[c - sz]) * idz2;
        }
      }
    }
  });
  ApplyBounds(cur_, false);
  total_updates_ += interior_cells_;
}

StepStats Solver::Step() {
  StepStats stats;
  {
    obs::KernelScope ks(timer_, "advect");
    Advect();
  }
  {
    obs::KernelScope ks(timer_, "diffuse_force");
    DiffuseAndForce();
  }
  SolvePressure(stats);
  {
    obs::KernelScope ks(timer_, "project");
    Project();
  }
  {
    obs::KernelScope ks(timer_, "max_divergence");
    stats.max_divergence = MaxDivergence();
  }
  stats.cell_updates = total_updates_;
  return stats;
}

StepStats Solver::Run(int steps) {
  StepStats last;
  for (int s = 0; s < steps; ++s) last = Step();
  return last;
}

double Solver::SpeedAt(int i, int j, int k) const {
  const size_t c = mesh_.Index(i, j, k);
  return std::sqrt(cur_.u[c] * cur_.u[c] + cur_.v[c] * cur_.v[c] +
                   cur_.w[c] * cur_.w[c]);
}

double Solver::SpeedAtPoint(double x, double y, double z) const {
  int i, j, k;
  mesh_.Locate(x, y, z, i, j, k);
  return SpeedAt(i, j, k);
}

double Solver::TemperatureAtPoint(double x, double y, double z) const {
  int i, j, k;
  mesh_.Locate(x, y, z, i, j, k);
  return cur_.t[mesh_.Index(i, j, k)];
}

double Solver::InteriorMeanSpeed() const {
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const unsigned char* XG_RESTRICT inside = mesh_.inside_house().data();
  const double* XG_RESTRICT u = cur_.u.data();
  const double* XG_RESTRICT v = cur_.v.data();
  const double* XG_RESTRICT w = cur_.w.data();
  const SumCount total = ReduceSlabs(
      SumCount{},
      [&](int kb, int ke) {
        SumCount part;
        for (int k = kb; k < ke; ++k) {
          for (int j = 1; j < ny - 1; ++j) {
            size_t c = mesh_.Index(1, j, k);
            for (int i = 1; i < nx - 1; ++i, ++c) {
              if (inside[c] == 0) continue;
              part.sum += std::sqrt(u[c] * u[c] + v[c] * v[c] + w[c] * w[c]);
              ++part.n;
            }
          }
        }
        return part;
      },
      &CombineSumCount);
  return total.n == 0 ? 0.0 : total.sum / static_cast<double>(total.n);
}

double Solver::InteriorMeanTemperature() const {
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const unsigned char* XG_RESTRICT inside = mesh_.inside_house().data();
  const double* XG_RESTRICT t = cur_.t.data();
  const SumCount total = ReduceSlabs(
      SumCount{},
      [&](int kb, int ke) {
        SumCount part;
        for (int k = kb; k < ke; ++k) {
          for (int j = 1; j < ny - 1; ++j) {
            size_t c = mesh_.Index(1, j, k);
            for (int i = 1; i < nx - 1; ++i, ++c) {
              if (inside[c] == 0) continue;
              part.sum += t[c];
              ++part.n;
            }
          }
        }
        return part;
      },
      &CombineSumCount);
  return total.n == 0 ? 0.0 : total.sum / static_cast<double>(total.n);
}

double Solver::MaxDivergence() const {
  const double idx2 = 1.0 / (2.0 * mesh_.dx()), idy2 = 1.0 / (2.0 * mesh_.dy()),
               idz2 = 1.0 / (2.0 * mesh_.dz());
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const size_t sx = 1, sy = static_cast<size_t>(nx),
               sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const double* XG_RESTRICT u = cur_.u.data();
  const double* XG_RESTRICT v = cur_.v.data();
  const double* XG_RESTRICT w = cur_.w.data();
  return ReduceSlabs(
      0.0,
      [&](int kb, int ke) {
        double local = 0.0;
        for (int k = kb; k < ke; ++k) {
          for (int j = 1; j < ny - 1; ++j) {
            size_t c = mesh_.Index(1, j, k);
            for (int i = 1; i < nx - 1; ++i, ++c) {
              const double d = (u[c + sx] - u[c - sx]) * idx2 +
                               (v[c + sy] - v[c - sy]) * idy2 +
                               (w[c + sz] - w[c - sz]) * idz2;
              local = std::max(local, std::abs(d));
            }
          }
        }
        return local;
      },
      [](double a, double b) { return std::max(a, b); });
}

}  // namespace xg::cfd
