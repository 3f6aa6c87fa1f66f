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
// The transformed right-hand side is held mode-major, y-mode fastest
// (rows padded to a whole number of AVX-512 packs), in two scratch arrays
// of about the interior's size that the solver allocates once: the y
// transform reads the mesh rows of b, broadcasting each value, and writes
// b^[k][i][a]; the z transform and its inverse combine whole k-planes;
// the x sweeps run with every (y-mode, z-mode) line in its own lane; the
// inverse y transform keeps the layout (cells j in lanes) and one block
// transpose writes the result into the mesh rows. The Thomas pivots of
// every line depend only on the operator, so Configure computes their
// reciprocals once, laid out like the lines. Everything runs at the
// host's lane width (cfd/lanes.hpp), each lane doing the scalar
// expression in the scalar order and every transform output summed from 0
// in ascending term order, so the solution is bitwise the same at every
// width, and as it was before this layout.
#pragma once

#include <cstddef>
#include <vector>

#include "cfd/aligned.hpp"
#include "cfd/lanes.hpp"
#include "cfd/mesh.hpp"

namespace xg::obs {
class KernelTimer;
}  // namespace xg::obs

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
  /// Allocates the scratch; Configure must run before the first Solve.
  explicit PoissonSolver(const Mesh& mesh);

  /// Fixes the lateral face types from the inward wind components: a face
  /// is Neumann where the wind enters (x-min when wx > 0, x-max when
  /// wx < 0, likewise y) and Dirichlet otherwise, so wx == 0 makes both x
  /// faces Dirichlet. Builds the y and z eigenbases and the pivots.
  void Configure(double wx, double wy);

  /// Solves A x = b in place: on entry the interior cells of the
  /// mesh-sized array `x` hold b, on return the solution. Boundary cells
  /// are neither read nor written. Not reentrant: the solver owns the
  /// scratch.
  void Solve(double* x);

  /// Attach (or detach with nullptr) a timer that records the solve's
  /// phases as kernels "sor.forward_y", "sor.forward_z", "sor.sweep_x",
  /// "sor.inverse_z", "sor.transpose" and "sor.inverse_y".
  void set_kernel_timer(obs::KernelTimer* timer) { timer_ = timer; }

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
  template <typename T>
  T* Line(T* x, int j, int k) const {
    return x + mesh_.Index(1, j + 1, k + 1);
  }
  /// Offset of mode-major element [plane][i][a] (plane a k or a z-mode c).
  size_t ModeAt(int plane, int i) const {
    return (static_cast<size_t>(plane) * static_cast<size_t>(mx_) +
            static_cast<size_t>(i)) *
           pitch_;
  }
  /// b^[k][i][a] = sum over b of Qy[b][a] * x[k][b][i], into ymode_.
  void ForwardY(const double* x);
  /// Transforms ymode_ along z into zmode_, or zmode_ back into ymode_
  /// when `inverse`.
  void TransformZ(bool inverse);
  /// Solves (Lx + (mu_y[a] + mu_z[c]) I) x = x in place in zmode_ for
  /// every (y-mode a, z-mode c) line.
  void SweepX();
  /// zmode_[k][i][j] = sum over a of Qy[j][a] * ymode_[k][i][a].
  void InverseY();
  /// zmode_[k][i][j] into the interior cells x[k][j][i].
  void TransposeToMesh(double* x) const;
  /// Computes inv_pivot_ for the current operator.
  void FactorLines();

  const Mesh& mesh_;
  int mx_, my_, mz_;  ///< interior extents
  /// Doubles per mode-major row: my rounded up to a whole number of the
  /// widest packs, so every pack of the y transforms and the sweeps is
  /// full. The padding lanes hold 0 (or what a NaN right-hand side spreads
  /// to them) and never feed a real lane.
  size_t pitch_;
  double cx_;         ///< 1 / dx^2, the off-diagonal of Lx
  LaneWidth lane_width_ = HostLaneWidth();
  obs::KernelTimer* timer_ = nullptr;
  bool dirichlet_x_lo_ = true, dirichlet_x_hi_ = true;
  bool dirichlet_y_lo_ = true, dirichlet_y_hi_ = true;
  std::vector<double> diag_x_;  ///< diagonal of Lx
  LaplacianModes y_, z_;
  /// y_.q and its transpose, rows padded to pitch_ columns of zeros.
  LineArray<> qy_rows_, qy_cols_;
  /// Reciprocal Thomas pivots of line (y-mode a, z-mode c) at x cell i:
  /// inv_pivot_[ModeAt(c, i) + a]; 0 in the padding lanes.
  LineArray<> inv_pivot_;
  /// Mode-major scratch, mz * mx * pitch_ doubles each: the y-transformed
  /// planes (and the inverse z transform's output), and the z-transformed
  /// lines the sweeps solve (then the inverse y transform's output).
  LineArray<> ymode_, zmode_;
};

}  // namespace xg::cfd
