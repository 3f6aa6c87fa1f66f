#include "cfd/fp_contract.hpp"  // first: no FMA contraction below
#include "cfd/solver.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "cfd/packs.hpp"
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

/// Running max over packs of every width, from 0 like the scalar fold
/// std::max(acc, x). Max is exact and, NaN aside, does not depend on
/// order, so folding per lane gives the scalar fold's value.
struct MaxFold {
  V8 eight{};
  V4 four{};
  V2 two{};
  V1 one{};
  template <typename V>
  void Add(const V& x) {
    V& slot = Slot<V>();
    slot = Max(slot, x);
  }
  double Value() const {
    double m = one[0];
    for (int l = 0; l < 2; ++l) m = std::max(m, two[l]);
    for (int l = 0; l < 4; ++l) m = std::max(m, four[l]);
    for (int l = 0; l < 8; ++l) m = std::max(m, eight[l]);
    return m;
  }

 private:
  template <typename V>
  V& Slot() {
    if constexpr (kLanes<V> == 8) {
      return eight;
    } else if constexpr (kLanes<V> == 4) {
      return four;
    } else if constexpr (kLanes<V> == 2) {
      return two;
    } else {
      return one;
    }
  }
};

/// How a kernel ends a row that is not a whole number of packs.
enum class RowEnd {
  /// One full pack shifted back to the row's last cell (ForRowShifted):
  /// for kernels whose outputs are not among their inputs, and max folds.
  kShifted,
  /// Narrower packs, then one lane (ForRow): each cell visited once, for
  /// kernels that update in place.
  kExact,
};

/// Runs cell(c, Lanes<V>{}) over every interior cell of the horizontal
/// slabs [kb, ke), row by row, at `width`.
template <RowEnd kEnd, typename Cell>
inline void ForInterior(LaneWidth width, const Mesh& mesh, int kb, int ke,
                        const Cell& cell) {
  AtLaneWidth(width, [&](auto lanes) {
    using W = PackOf<decltype(lanes)>;
    // A copy local to the dispatched function, so its captures stay in
    // registers instead of being reloaded through the caller's frame.
    const Cell local = cell;
    const int nx = mesh.nx(), ny = mesh.ny();
    for (int k = kb; k < ke; ++k) {
      for (int j = 1; j < ny - 1; ++j) {
        if constexpr (kEnd == RowEnd::kShifted) {
          ForRowShifted<W>(mesh.Index(1, j, k), nx - 2, local);
        } else {
          ForRow<W>(mesh.Index(1, j, k), nx - 2, local);
        }
      }
    }
  });
}

/// ForInterior over every interior slab.
template <RowEnd kEnd, typename Cell>
inline void ForInterior(LaneWidth width, const Mesh& mesh, const Cell& cell) {
  ForInterior<kEnd>(width, mesh, 1, mesh.nz() - 1, cell);
}

/// Folds one partial map(k) -> T per interior slab k, in ascending k.
template <typename T, typename Map, typename Combine>
T ReduceSlabs(const Mesh& mesh, T identity, Map&& map, Combine&& combine) {
  T acc = identity;
  for (int k = 1; k < mesh.nz() - 1; ++k) acc = combine(acc, map(k));
  return acc;
}

/// Strides and coefficients of the uniform-mesh stencils (x stride 1).
struct Stencil {
  explicit Stencil(const Mesh& m)
      : sy(static_cast<size_t>(m.nx())),
        sz(static_cast<size_t>(m.nx()) * static_cast<size_t>(m.ny())),
        cx(1.0 / (m.dx() * m.dx())),
        cy(1.0 / (m.dy() * m.dy())),
        cz(1.0 / (m.dz() * m.dz())),
        idx2(1.0 / (2.0 * m.dx())),
        idy2(1.0 / (2.0 * m.dy())),
        idz2(1.0 / (2.0 * m.dz())) {}

  /// 7-point Laplacian of f at c.
  template <typename V>
  V Laplacian(const double* f, size_t c) const {
    const V fc = Load<V>(f + c);
    return cx * (Load<V>(f + c + 1) - 2.0 * fc + Load<V>(f + c - 1)) +
           cy * (Load<V>(f + c + sy) - 2.0 * fc + Load<V>(f + c - sy)) +
           cz * (Load<V>(f + c + sz) - 2.0 * fc + Load<V>(f + c - sz));
  }

  /// Central-difference divergence of (u, v, w) at c.
  template <typename V>
  V Divergence(const double* u, const double* v, const double* w,
               size_t c) const {
    return (Load<V>(u + c + 1) - Load<V>(u + c - 1)) * idx2 +
           (Load<V>(v + c + sy) - Load<V>(v + c - sy)) * idy2 +
           (Load<V>(w + c + sz) - Load<V>(w + c - sz)) * idz2;
  }

  size_t sy, sz;
  double cx, cy, cz;
  double idx2, idy2, idz2;
};

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

Solver::Solver(const Mesh& mesh, SolverParams params)
    : mesh_(mesh), params_(params), poisson_(mesh) {
  const size_t n = mesh_.cell_count();
  cur_.Assign(n);
  prev_.Assign(n);
  p_.assign(n, 0.0);
  div_.assign(n, 0.0);

  const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  interior_cells_ = (nx > 2 && ny > 2 && nz > 2)
                        ? static_cast<uint64_t>(nx - 2) *
                              static_cast<uint64_t>(ny - 2) *
                              static_cast<uint64_t>(nz - 2)
                        : 0;
}

void Solver::set_lane_width(LaneWidth width) {
  lane_width_ = std::min(width, HostLaneWidth());
  poisson_.set_lane_width(lane_width_);
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
  inflow_x_lo_ = wx > 0;
  inflow_x_hi_ = wx < 0;
  inflow_y_lo_ = wy > 0;
  inflow_y_hi_ = wy < 0;
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
  // The stages only ever rewrite interior cells and the zero-gradient
  // faces, so both buffers must carry the fixed faces from here on. The
  // rest of prev_ is written by the first stage before anything reads it.
  WriteFixedBounds(cur_, wx, wy);
  WriteFixedBounds(prev_, wx, wy);
  ApplyBounds(cur_, true);
}

void Solver::WriteFixedBounds(Fields& f, double wx, double wy) const {
  const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  const double t_in = bc_.exterior_temp_c;
  // Lateral inflow faces on levels 1..nz-2 (the ground and top planes
  // are their own faces). x faces stop short of the y rows, which own the
  // corners.
  for (int k = 1; k < nz - 1; ++k) {
    const double prof = WindProfile(mesh_.Z(k));
    const auto inflow = [&](size_t c) {
      f.u[c] = wx * prof;
      f.v[c] = wy * prof;
      f.w[c] = 0.0;
      f.t[c] = t_in;
    };
    for (int j = 1; j < ny - 1; ++j) {
      if (inflow_x_lo_) inflow(mesh_.Index(0, j, k));
      if (inflow_x_hi_) inflow(mesh_.Index(nx - 1, j, k));
    }
    for (int i = 0; i < nx; ++i) {
      if (inflow_y_lo_) inflow(mesh_.Index(i, 0, k));
      if (inflow_y_hi_) inflow(mesh_.Index(i, ny - 1, k));
    }
  }
  // Ground: no-slip. Top: free-slip, zero normal velocity.
  const size_t plane = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  std::fill_n(f.u.begin(), plane, 0.0);
  std::fill_n(f.v.begin(), plane, 0.0);
  std::fill_n(f.w.begin(), plane, 0.0);
  std::fill_n(f.w.begin() + mesh_.Index(0, 0, nz - 1), plane, 0.0);
}

void Solver::ApplyBounds(Fields& f, bool with_scalar) const {
  const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  const size_t row = static_cast<size_t>(nx);
  const size_t plane = row * static_cast<size_t>(ny);
  double* const all[] = {f.u.data(), f.v.data(), f.w.data(), f.t.data()};
  const std::span<double* const> fields(all, with_scalar ? 4 : 3);

  // Zero-gradient lateral outflow faces: x faces of rows 1..ny-2 first,
  // then whole y rows, whose end cells copy the x faces just written.
  for (int k = 1; k < nz - 1; ++k) {
    for (double* XG_RESTRICT x : fields) {
      for (int j = 1; j < ny - 1; ++j) {
        double* r = x + mesh_.Index(0, j, k);
        if (!inflow_x_lo_) r[0] = r[1];
        if (!inflow_x_hi_) r[nx - 1] = r[nx - 2];
      }
      if (!inflow_y_lo_) {
        std::copy_n(x + mesh_.Index(0, 1, k), row, x + mesh_.Index(0, 0, k));
      }
      if (!inflow_y_hi_) {
        std::copy_n(x + mesh_.Index(0, ny - 2, k), row,
                    x + mesh_.Index(0, ny - 1, k));
      }
    }
  }
  // Ground: zero-gradient scalar. Top: zero-gradient tangential velocity
  // and scalar.
  const size_t top = mesh_.Index(0, 0, nz - 1);
  for (double* XG_RESTRICT x : fields.first(2)) {
    std::copy_n(x + top - plane, plane, x + top);
  }
  if (with_scalar) {
    double* XG_RESTRICT t = f.t.data();
    std::copy_n(t + plane, plane, t);
    std::copy_n(t + top - plane, plane, t + top);
  }
}

void Solver::Advect() {
  std::swap(cur_, prev_);
  const double dt = params_.dt_s;
  const double idx = 1.0 / mesh_.dx(), idy = 1.0 / mesh_.dy(),
               idz = 1.0 / mesh_.dz();
  const Stencil st(mesh_);
  const size_t sy = st.sy, sz = st.sz;
  const double* XG_RESTRICT u0 = prev_.u.data();
  const double* XG_RESTRICT v0 = prev_.v.data();
  const double* XG_RESTRICT w0 = prev_.w.data();
  const double* XG_RESTRICT t0 = prev_.t.data();
  double* XG_RESTRICT u = cur_.u.data();
  double* XG_RESTRICT v = cur_.v.data();
  double* XG_RESTRICT w = cur_.w.data();
  double* XG_RESTRICT t = cur_.t.data();

  ForInterior<RowEnd::kShifted>(lane_width_, mesh_, [=](size_t c, auto lanes) {
    using V = PackOf<decltype(lanes)>;
    const V uu = Load<V>(u0 + c), vv = Load<V>(v0 + c), ww = Load<V>(w0 + c);
    // First-order upwind: per axis, the one-sided difference on the
    // side the flow comes from. Both differences are formed, the upwind
    // one is selected, and only it is scaled.
    const Mask<V> back_x = uu >= V{}, back_y = vv >= V{}, back_z = ww >= V{};
    const auto upwind = [&](const double* XG_RESTRICT fld) {
      const V f = Load<V>(fld + c);
      const V dfx = Select<V>(back_x, f - Load<V>(fld + c - 1),
                              Load<V>(fld + c + 1) - f) *
                    idx;
      const V dfy = Select<V>(back_y, f - Load<V>(fld + c - sy),
                              Load<V>(fld + c + sy) - f) *
                    idy;
      const V dfz = Select<V>(back_z, f - Load<V>(fld + c - sz),
                              Load<V>(fld + c + sz) - f) *
                    idz;
      return uu * dfx + vv * dfy + ww * dfz;
    };
    Store(u + c, uu - dt * upwind(u0));
    Store(v + c, vv - dt * upwind(v0));
    Store(w + c, ww - dt * upwind(w0));
    Store(t + c, Load<V>(t0 + c) - dt * upwind(t0));
  });
  ApplyBounds(cur_, true);
  total_updates_ += interior_cells_;
}

void Solver::DiffuseAndForce() {
  std::swap(cur_, prev_);
  const double dt = params_.dt_s;
  const Stencil st(mesh_);
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
  const double screen_drag = params_.screen_drag;
  const double canopy_drag = params_.canopy_drag;
  const double canopy_heat = dt * params_.canopy_heat_w * 100.0;
  const CellType* XG_RESTRICT type = mesh_.types().data();

  ForInterior<RowEnd::kShifted>(lane_width_, mesh_, [=](size_t c, auto lanes) {
    using V = PackOf<decltype(lanes)>;
    V un = Load<V>(u0 + c) + dtnu * st.Laplacian<V>(u0, c);
    V vn = Load<V>(v0 + c) + dtnu * st.Laplacian<V>(v0, c);
    V wn = Load<V>(w0 + c) + dtnu * st.Laplacian<V>(w0, c);
    V tn = Load<V>(t0 + c) + dtkappa * st.Laplacian<V>(t0, c);

    // Boussinesq buoyancy relative to the exterior air temperature.
    wn += gbeta * (Load<V>(t0 + c) - t_ext);

    // Porous drag (implicit per cell: unconditionally stable) and canopy
    // heat (zero in screen cells), applied to the non-fluid lanes only.
    // Most packs hold no porous cell and skip it.
    const Mask<V> porous = ~TypeMask<V>(type + c, CellType::kFluid);
    if (Any<V>(porous)) {
      const Mask<V> canopy = TypeMask<V>(type + c, CellType::kCanopy);
      const V drag = Select<V>(canopy, V{} + canopy_drag, V{} + screen_drag);
      const V heat = Select<V>(canopy, V{} + canopy_heat, V{});
      const V speed = Sqrt(un * un + vn * vn + wn * wn);
      const V damp = 1.0 / (1.0 + dt * drag * speed);
      un = Select<V>(porous, un * damp, un);
      vn = Select<V>(porous, vn * damp, vn);
      wn = Select<V>(porous, wn * damp, wn);
      tn = Select<V>(porous, tn + heat, tn);
    }
    Store(u + c, un);
    Store(v + c, vn);
    Store(w + c, wn);
    Store(t + c, tn);
  });
  ApplyBounds(cur_, true);
  total_updates_ += interior_cells_;
}

void Solver::SolvePressure(StepStats& stats, bool diagnostics) {
  const double dt = params_.dt_s;
  const Stencil st(mesh_);
  double* XG_RESTRICT p = p_.data();
  double* XG_RESTRICT div = div_.data();

  {
    // Covers the whole pressure solve; the "sor" label is kept so kernel
    // timings stay comparable with earlier recordings.
    obs::KernelScope ks(timer_, "sor");

    // RHS b: divergence of the provisional velocity / dt.
    const double* XG_RESTRICT u = cur_.u.data();
    const double* XG_RESTRICT v = cur_.v.data();
    const double* XG_RESTRICT w = cur_.w.data();
    // The first pass solves A p = b in place, so p starts as b. b itself
    // is kept only for a defect correction or the residual.
    const bool solves = params_.poisson_iters > 0;
    const bool keep_b = diagnostics || params_.poisson_iters > 1;
    ForInterior<RowEnd::kShifted>(lane_width_, mesh_, [=](size_t c,
                                                          auto lanes) {
      using V = PackOf<decltype(lanes)>;
      const V b = st.Divergence<V>(u, v, w, c) / dt;
      if (keep_b) Store(div + c, b);
      if (solves) Store(p + c, b);
    });

    // The first pass solves A p = b directly. Each further pass is one
    // defect correction p += A^-1 (b - A p); the correction lives in
    // prev_.u, which is dead between DiffuseAndForce and the next Advect
    // (that one rewrites every cell).
    for (int pass = 0; pass < params_.poisson_iters; ++pass) {
      if (pass == 0) {
        poisson_.Solve(p);
      } else {
        double* XG_RESTRICT d = prev_.u.data();
        ForInterior<RowEnd::kShifted>(lane_width_, mesh_, [=](size_t c,
                                                              auto lanes) {
          using V = PackOf<decltype(lanes)>;
          Store(d + c, Load<V>(div + c) - st.Laplacian<V>(p, c));
        });
        poisson_.Solve(d);
        ForInterior<RowEnd::kExact>(lane_width_, mesh_, [=](size_t c,
                                                            auto lanes) {
          using V = PackOf<decltype(lanes)>;
          Store(p + c, Load<V>(p + c) + Load<V>(d + c));
        });
      }
      poisson_.FillGhosts(p);
      total_updates_ += interior_cells_;
    }
  }
  if (!diagnostics) return;

  // Residual max |A p - b| against the scale max |b|: the proof that the
  // solve converged.
  obs::KernelScope ks(timer_, "residual");
  const ResidualMax r = ReduceSlabs(
      mesh_, ResidualMax{},
      [&](int k) {
        MaxFold residual, rhs;
        const auto cell = [=, &residual, &rhs](size_t c, auto lanes) {
          using V = PackOf<decltype(lanes)>;
          const V b = Load<V>(div + c);
          residual.Add(Abs(st.Laplacian<V>(p, c) - b));
          rhs.Add(Abs(b));
        };
        ForInterior<RowEnd::kShifted>(lane_width_, mesh_, k, k + 1, cell);
        return ResidualMax{residual.Value(), rhs.Value()};
      },
      &CombineResidualMax);
  stats.poisson_residual = r.residual;
  stats.poisson_rhs = r.rhs;
}

void Solver::Project() {
  const double dt = params_.dt_s;
  const Stencil st(mesh_);
  const size_t sy = st.sy, sz = st.sz;
  const double idx2 = st.idx2, idy2 = st.idy2, idz2 = st.idz2;
  const double* XG_RESTRICT p = p_.data();
  double* XG_RESTRICT u = cur_.u.data();
  double* XG_RESTRICT v = cur_.v.data();
  double* XG_RESTRICT w = cur_.w.data();
  ForInterior<RowEnd::kExact>(lane_width_, mesh_, [=](size_t c, auto lanes) {
    using V = PackOf<decltype(lanes)>;
    Store(u + c, Load<V>(u + c) -
                     dt * (Load<V>(p + c + 1) - Load<V>(p + c - 1)) * idx2);
    Store(v + c, Load<V>(v + c) -
                     dt * (Load<V>(p + c + sy) - Load<V>(p + c - sy)) * idy2);
    Store(w + c, Load<V>(w + c) -
                     dt * (Load<V>(p + c + sz) - Load<V>(p + c - sz)) * idz2);
  });
  ApplyBounds(cur_, false);
  total_updates_ += interior_cells_;
}

StepStats Solver::StepOnce(bool diagnostics) {
  StepStats stats;
  {
    obs::KernelScope ks(timer_, "advect");
    Advect();
  }
  {
    obs::KernelScope ks(timer_, "diffuse_force");
    DiffuseAndForce();
  }
  SolvePressure(stats, diagnostics);
  {
    obs::KernelScope ks(timer_, "project");
    Project();
  }
  if (diagnostics) {
    obs::KernelScope ks(timer_, "max_divergence");
    stats.max_divergence = MaxDivergence();
  }
  stats.cell_updates = total_updates_;
  return stats;
}

StepStats Solver::Step() { return StepOnce(true); }

StepStats Solver::Run(int steps) {
  StepStats last;
  for (int s = 0; s < steps; ++s) last = StepOnce(s + 1 == steps);
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
      mesh_, SumCount{},
      [&](int k) {
        SumCount part;
        for (int j = 1; j < ny - 1; ++j) {
          size_t c = mesh_.Index(1, j, k);
          for (int i = 1; i < nx - 1; ++i, ++c) {
            if (inside[c] == 0) continue;
            part.sum += std::sqrt(u[c] * u[c] + v[c] * v[c] + w[c] * w[c]);
            ++part.n;
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
      mesh_, SumCount{},
      [&](int k) {
        SumCount part;
        for (int j = 1; j < ny - 1; ++j) {
          size_t c = mesh_.Index(1, j, k);
          for (int i = 1; i < nx - 1; ++i, ++c) {
            if (inside[c] == 0) continue;
            part.sum += t[c];
            ++part.n;
          }
        }
        return part;
      },
      &CombineSumCount);
  return total.n == 0 ? 0.0 : total.sum / static_cast<double>(total.n);
}

double Solver::MaxDivergence() const {
  const Stencil st(mesh_);
  const double* XG_RESTRICT u = cur_.u.data();
  const double* XG_RESTRICT v = cur_.v.data();
  const double* XG_RESTRICT w = cur_.w.data();
  return ReduceSlabs(
      mesh_, 0.0,
      [&](int k) {
        MaxFold local;
        const auto cell = [=, &local](size_t c, auto lanes) {
          using V = PackOf<decltype(lanes)>;
          local.Add(Abs(st.Divergence<V>(u, v, w, c)));
        };
        ForInterior<RowEnd::kShifted>(lane_width_, mesh_, k, k + 1, cell);
        return local.Value();
      },
      [](double a, double b) { return std::max(a, b); });
}

}  // namespace xg::cfd
