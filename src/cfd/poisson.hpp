// Direct solver for the pressure Poisson equation of cfd::Solver.
//
// The projection step solves A p = b on the interior cells, where A is the
// 7-point cell-centred Laplacian with the solver's ghost rules: a lateral
// face carries a Dirichlet ghost (p = 0) unless the wind enters through it,
// where it is a Neumann mirror; ground and top are Neumann. The mesh is
// uniform and every face type is fixed per face, so the operator separates:
//
//   A = Lx ⊗ I ⊗ I + I ⊗ Ly ⊗ I + I ⊗ I ⊗ Lz
//
// with Lx, Ly, Lz the tridiagonal 1-D Laplacians. Ly and Lz have
// closed-form orthonormal eigenbases (sampled cosines and sines), so
// transforming b along y and z decouples the system into one tridiagonal
// solve (Lx + (mu_y + mu_z) I) x = b^ per (y-mode, z-mode) line, done by one
// Thomas sweep along x; transforming back gives p exact to rounding. There
// is no iteration count, relaxation factor or warm start.
//
// Lx always has at least one Dirichlet end (the wind cannot enter through
// both x faces), so every shifted line system is nonsingular and the
// all-Neumann null space never arises.
//
// Everything runs in place in the caller's mesh-sized array; the only
// temporary is one x-y plane, or one x-z slab, held in scratch the solver
// allocates once and reuses. The Thomas pivots of every line depend only
// on the operator, so Configure computes their reciprocals once. The
// dense transforms run at the host's lane width (cfd/lanes.hpp).
#pragma once

#include <vector>

#include "cfd/lanes.hpp"
#include "cfd/mesh.hpp"

namespace xg::cfd {

/// Orthonormal eigenbasis of the 1-D cell-centred Laplacian
/// c * (p[i-1] - 2 p[i] + p[i+1]) on m cells, each end closed either by a
/// Dirichlet ghost (p = 0) or by a Neumann mirror (ghost = edge cell).
struct LaplacianModes {
  std::vector<double> q;   ///< q[i * m + k]: mode k at cell i
  std::vector<double> mu;  ///< eigenvalue of mode k, in (-4c, 0]
};
LaplacianModes LaplacianModes1D(int m, double c, bool dirichlet_lo,
                                bool dirichlet_hi);

class PoissonSolver {
 public:
  explicit PoissonSolver(const Mesh& mesh);

  /// Fixes the lateral face types from the inward wind components: a face
  /// is Neumann where the wind enters (x-min when wx > 0, x-max when
  /// wx < 0, likewise y) and Dirichlet otherwise, so wx == 0 makes both x
  /// faces Dirichlet. Builds the y and z eigenbases.
  void Configure(double wx, double wy);

  /// Solves A x = b in place: on entry the interior cells of the
  /// mesh-sized array `x` hold b, on return the solution. Boundary cells
  /// are neither read nor written. Not reentrant: the solver owns the
  /// scratch.
  void Solve(double* x);

  /// Runs the transforms at `width` instead of the host's widest (a width
  /// the CPU does not run falls back to the widest it does); the solution
  /// is bitwise the same at every width.
  void set_lane_width(LaneWidth width);

  /// Writes the ghost values A assumes into the boundary cells of `p`
  /// (0 on Dirichlet faces, the adjacent interior cell on Neumann faces),
  /// so the plain 7-point stencil over interior cells applies A.
  void FillGhosts(double* p) const;

 private:
  /// Interior x line of `x` for interior (y, z) indices (j, k).
  double* Line(double* x, int j, int k) const {
    return x + mesh_.Index(1, j + 1, k + 1);
  }
  /// Transforms every k-plane of `x` along y into the Ly eigenbasis, or
  /// back when `inverse`.
  void TransformY(double* x, bool inverse);
  /// Per y-mode: transforms along z, solves each line along x, and
  /// transforms back.
  void SolveModes(double* x);
  /// Computes inv_pivot_ for the current operator.
  void FactorLines();
  /// Solves (Lx + (mu_y[a] + mu_z[c]) I) x = x in place for each of the mz
  /// x lines of y-mode a's x-z slab (line c at slab + c * mx), given that
  /// slab's mx * mz pivot reciprocals.
  void SweepX(double* slab, const double* inv) const;

  const Mesh& mesh_;
  int mx_, my_, mz_;  ///< interior extents
  double cx_;         ///< 1 / dx^2, the off-diagonal of Lx
  LaneWidth lane_width_ = HostLaneWidth();
  bool dirichlet_x_lo_ = true, dirichlet_x_hi_ = true;
  bool dirichlet_y_lo_ = true, dirichlet_y_hi_ = true;
  std::vector<double> diag_x_;  ///< diagonal of Lx
  LaplacianModes y_, z_;
  /// Reciprocal Thomas pivots of every (y-mode, z-mode) line along x:
  /// inv_pivot_[(a * mz + c) * mx + i].
  std::vector<double> inv_pivot_;
  /// Scratch: an x-y plane for the y transforms, or an x-z slab for the x
  /// sweeps.
  std::vector<double> scratch_;
};

}  // namespace xg::cfd
