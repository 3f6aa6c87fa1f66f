// Incompressible airflow + heat-transfer solver for the screen house.
//
// Substitutes the paper's OpenFOAM case with the same physics class:
// incompressible Navier-Stokes with a Boussinesq buoyancy term, a scalar
// temperature transport equation, and Darcy-Forchheimer drag in the porous
// screen and canopy cells. Time integration is Chorin projection:
//
//   1. explicit first-order-upwind advection of (u, v, w, T);
//   2. explicit diffusion with an eddy viscosity;
//   3. buoyancy source on w, porous drag (implicit per-cell), canopy heat;
//   4. pressure Poisson solve (direct separable solve, see poisson.hpp)
//      so the projected field is discretely divergence-free;
//   5. velocity correction.
//
// Boundary conditions come from the telemetry: exterior wind vector and
// temperature define inflow Dirichlet faces (any lateral face whose inward
// normal opposes the wind), with zero-gradient outflow elsewhere, no-slip
// ground, and free-slip top.
//
// Hot-path layout (see DESIGN.md "CFD hot path"): the transported fields
// live in a double-buffered SoA set — Advect and DiffuseAndForce swap the
// current/previous buffers instead of copying five full vectors per step.
// Every field array is placed so that interior cell (1, j, k) starts a
// 64-byte cache line (every row's, when nx is a multiple of 8, as on the
// default mesh). Every stencil kernel is written once over a lane pack and
// runs each row at the widest width the CPU offers (8, 4 or 2 cells at a
// time, see cfd/lanes.hpp), each lane doing the scalar expression in the
// scalar order, so fields are bitwise what one cell at a time would give
// at every width. A kernel that writes a buffer it does not read ends each
// row with one full pack shifted back to the row's last cell (recomputing
// a few cells from the same inputs); one that updates in place ends with
// narrower packs and then one lane. The porous drag and
// canopy heat come from the cell-type bytes as lane masks. Boundary
// faces whose value is fixed for a solve (inflow faces, no-slip ground,
// the top's normal velocity) are written into both buffers by Initialize;
// each stage then ends with one sweep that only copies the zero-gradient
// faces. Reductions (Poisson residual, max divergence, interior means)
// take one partial per horizontal slab and combine them in ascending k.
// The two diagnostics are computed by Step() and by the last step of
// Run(), the only ones returned.
//
// The solver runs on the caller's thread: the paper's 64-core OpenFOAM
// run is modelled by hpc::CfdPerfModel, not reproduced in process.
// Cell-update counts are exposed so that model can be calibrated against
// real measured per-cell cost. A KernelTimer can be attached to record
// per-kernel times into a metrics registry (clock injected by the caller;
// detached timing costs one pointer test).
#pragma once

#include <cstdint>
#include <span>

#include "cfd/aligned.hpp"
#include "cfd/lanes.hpp"
#include "cfd/mesh.hpp"
#include "cfd/poisson.hpp"

namespace xg::obs {
class KernelTimer;
}  // namespace xg::obs

namespace xg::cfd {

struct Boundary {
  double wind_speed_ms = 3.0;
  double wind_dir_deg = 270.0;  ///< meteorological: direction wind comes FROM
  double exterior_temp_c = 22.0;
  double interior_temp_c = 24.0;  ///< initial interior temperature
};

struct SolverParams {
  double dt_s = 0.20;
  double eddy_viscosity = 0.75;     ///< m^2/s, turbulent closure stand-in
  double thermal_diffusivity = 0.9;
  double screen_drag = 2.2;         ///< Forchheimer coefficient, 1/m
  double canopy_drag = 0.35;
  double canopy_heat_w = 0.004;     ///< K/s volumetric solar heating
  double buoyancy_beta = 1.0 / 300.0;  ///< 1/K (Boussinesq)
  double gravity = 9.81;
  /// Poisson passes per step: the first is the exact direct solve, each
  /// further one a defect correction p += A^-1 (b - A p).
  int poisson_iters = 1;
};

struct StepStats {
  double max_divergence = 0.0;    ///< post-projection residual divergence
  double poisson_residual = 0.0;  ///< max |A p - b| after the solve
  double poisson_rhs = 0.0;       ///< max |b|, the residual's scale
  uint64_t cell_updates = 0;
};

/// One mesh-sized field of the solver: interior cell (1, 0, 0) starts a
/// cache line, and so does interior cell (1, j, k) of every row when nx
/// is a multiple of 8.
using FieldArray = LineArray<1>;

/// SoA buffer set for the transported fields (u, v, w, T). The solver
/// holds two: swapping them is the zero-copy replacement for the old
/// "copy current into scratch, then overwrite current" stepping.
struct Fields {
  FieldArray u, v, w, t;

  void Assign(size_t n, double value = 0.0) {
    u.assign(n, value);
    v.assign(n, value);
    w.assign(n, value);
    t.assign(n, value);
  }
};

class Solver {
 public:
  Solver(const Mesh& mesh, SolverParams params);

  /// Sets the initial field and the boundary state for a solve; Step and
  /// Run require it. The mesh must be at least 3 cells along each axis.
  void Initialize(const Boundary& bc);
  /// One time step with its diagnostics (residual, max divergence).
  StepStats Step();
  /// `steps` time steps; returns what the last Step() would (zero stats
  /// for steps <= 0). Earlier steps skip the diagnostics nobody reads.
  StepStats Run(int steps);

  const Mesh& mesh() const { return mesh_; }
  const Boundary& boundary() const { return bc_; }

  /// Attach (or detach with nullptr) a per-kernel timer; see
  /// obs::KernelTimer. The timer must outlive the solver or be detached.
  /// The pressure solve records its phases under "sor.*" on it too.
  void set_kernel_timer(obs::KernelTimer* timer) {
    timer_ = timer;
    poisson_.set_kernel_timer(timer);
  }

  /// Runs this solver's kernels and pressure solve at `width` instead of
  /// the host's widest; a width the CPU does not run falls back to the
  /// widest it does. The fields are bitwise the same at every width; tests
  /// and bench_cfd_kernels use this to show it.
  void set_lane_width(LaneWidth width);
  LaneWidth lane_width() const { return lane_width_; }

  // Field access (cell-centered, size = mesh.cell_count()). A view stays
  // valid for the solver's lifetime; Advect and DiffuseAndForce swap the
  // buffers behind u, v, w and T, so re-read those after a step.
  std::span<const double> u() const { return cur_.u; }
  std::span<const double> v() const { return cur_.v; }
  std::span<const double> w() const { return cur_.w; }
  std::span<const double> temperature() const { return cur_.t; }
  std::span<const double> pressure() const { return p_; }

  /// |velocity| at a cell.
  double SpeedAt(int i, int j, int k) const;
  /// |velocity| at a physical location (nearest cell).
  double SpeedAtPoint(double x, double y, double z) const;
  double TemperatureAtPoint(double x, double y, double z) const;

  /// Mean air speed over house-interior cells — the scalar the digital
  /// twin compares against interior anemometer readings.
  double InteriorMeanSpeed() const;
  double InteriorMeanTemperature() const;

  /// Max |div u| over interior cells (invariant checked by tests).
  double MaxDivergence() const;

  /// Interior-cell updates performed so far: each Advect / DiffuseAndForce
  /// / Project pass and each Poisson pass counts every interior cell once
  /// (boundary cells are applied, not solved, and are excluded — this is
  /// the honest work figure the HPC performance model calibrates against).
  uint64_t total_cell_updates() const { return total_updates_; }

  /// Interior cells updated by one kernel pass: (nx-2)(ny-2)(nz-2).
  uint64_t interior_cell_count() const { return interior_cells_; }

 private:
  /// Writes the faces whose value is fixed for the solve into `f`:
  /// inflow faces, the no-slip ground, the top's zero normal velocity.
  void WriteFixedBounds(Fields& f, double wx, double wy) const;
  /// The per-stage boundary sweep: copies the zero-gradient faces
  /// (outflow laterals, top velocity, and when `with_scalar` the ground
  /// and top temperature). Together with WriteFixedBounds it leaves every
  /// boundary cell, corners included, as one sweep writing every face
  /// would: x faces, then y faces, level by level, then ground and top.
  void ApplyBounds(Fields& f, bool with_scalar) const;
  void Advect();
  void DiffuseAndForce();
  void SolvePressure(StepStats& stats, bool diagnostics);
  void Project();
  StepStats StepOnce(bool diagnostics);
  /// Inward wind components (+x east-to-west etc.) from the boundary.
  void WindVector(double& wx, double& wy) const;

  const Mesh& mesh_;
  SolverParams params_;
  obs::KernelTimer* timer_ = nullptr;
  LaneWidth lane_width_ = HostLaneWidth();
  Boundary bc_;
  /// Lateral faces the wind enters through (fixed Dirichlet inflow); the
  /// others are zero-gradient outflow. Set by Initialize.
  bool inflow_x_lo_ = false, inflow_x_hi_ = false;
  bool inflow_y_lo_ = false, inflow_y_hi_ = false;
  Fields cur_, prev_;
  FieldArray p_, div_;
  PoissonSolver poisson_;
  uint64_t interior_cells_ = 0;
  uint64_t total_updates_ = 0;
};

}  // namespace xg::cfd
