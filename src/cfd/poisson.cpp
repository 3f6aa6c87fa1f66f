#include "cfd/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace xg::cfd {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// out[i] = sum over t of coef(t) * in(t)[i] for i < n, accumulated from
/// 0 in ascending t. The rows are contiguous x lines. Blocks of kBlock
/// outputs stay in registers across the whole sum; when n is not a
/// multiple of kBlock the last block is shifted back to end at n,
/// recomputing a few outputs with identical arithmetic. `out` must not
/// alias any input row.
template <typename Coef, typename Row>
void Combine(double* out, int n, int terms, Coef&& coef,
             Row&& in) {
  constexpr int kBlock = 16;
  if (n < kBlock) {
    std::fill_n(out, n, 0.0);
    for (int t = 0; t < terms; ++t) {
      const double a = coef(t);
      const double* src = in(t);
      for (int i = 0; i < n; ++i) out[i] += a * src[i];
    }
    return;
  }
  for (int b = 0; b < n; b += kBlock) {
    const int i0 = std::min(b, n - kBlock);
    double acc[kBlock] = {};
    for (int t = 0; t < terms; ++t) {
      const double a = coef(t);
      const double* src = in(t) + i0;
      for (int i = 0; i < kBlock; ++i) acc[i] += a * src[i];
    }
    std::copy_n(acc, kBlock, out + i0);
  }
}
}  // namespace

LaplacianModes LaplacianModes1D(int m, double c, bool dirichlet_lo,
                                bool dirichlet_hi) {
  LaplacianModes out;
  if (m <= 0) return out;
  const size_t n = static_cast<size_t>(m);
  out.q.resize(n * n);
  out.mu.resize(n);
  // Mode k is cos(theta (i + 1/2)) behind a Neumann low end (even about
  // the face) and sin(theta (i + 1)) behind a Dirichlet one (zero at the
  // ghost). The high end then quantizes theta: each Dirichlet end shifts
  // the wavenumbers by half a mode.
  const double shift = 0.5 * ((dirichlet_lo ? 1 : 0) + (dirichlet_hi ? 1 : 0));
  for (size_t k = 0; k < n; ++k) {
    const double theta =
        kPi * (static_cast<double>(k) + shift) / (static_cast<double>(m) + shift);
    const double h = std::sin(0.5 * theta);
    out.mu[k] = -4.0 * c * h * h;
    double norm2 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i);
      const double v = dirichlet_lo ? std::sin(theta * (x + 1.0))
                                    : std::cos(theta * (x + 0.5));
      out.q[i * n + k] = v;
      norm2 += v * v;
    }
    const double inv = 1.0 / std::sqrt(norm2);
    for (size_t i = 0; i < n; ++i) out.q[i * n + k] *= inv;
  }
  return out;
}

PoissonSolver::PoissonSolver(const Mesh& mesh)
    : mesh_(mesh),
      mx_(std::max(0, mesh.nx() - 2)),
      my_(std::max(0, mesh.ny() - 2)),
      mz_(std::max(0, mesh.nz() - 2)),
      cx_(1.0 / (mesh.dx() * mesh.dx())),
      scratch_(std::max(static_cast<size_t>(mx_) * my_,
                        2 * static_cast<size_t>(mx_) * mz_ + mz_)) {
  Configure(0.0, 0.0);
}

void PoissonSolver::Configure(double wx, double wy) {
  dirichlet_x_lo_ = !(wx > 0);
  dirichlet_x_hi_ = !(wx < 0);
  dirichlet_y_lo_ = !(wy > 0);
  dirichlet_y_hi_ = !(wy < 0);
  diag_x_.assign(static_cast<size_t>(mx_), -2.0 * cx_);
  if (mx_ > 0) {
    // A Neumann end drops the ghost term: its diagonal loses one cx.
    if (!dirichlet_x_lo_) diag_x_.front() += cx_;
    if (!dirichlet_x_hi_) diag_x_.back() += cx_;
  }
  y_ = LaplacianModes1D(my_, 1.0 / (mesh_.dy() * mesh_.dy()), dirichlet_y_lo_,
                        dirichlet_y_hi_);
  z_ = LaplacianModes1D(mz_, 1.0 / (mesh_.dz() * mesh_.dz()), false, false);
}

void PoissonSolver::SweepX(double* slab, double* cp,
                           const double* shift) const {
  // Thomas algorithm on the mz lines of one slab (line c is
  // slab[c * mx ...], its diagonal shifted by shift[c]); the off-diagonals
  // are all cx. Rows are weakly diagonally dominant with a strict Dirichlet
  // row, so no pivoting. Lines are independent and interleaved in the inner
  // loop, so their division chains overlap.
  const double cx = cx_;
  const double* diag = diag_x_.data();
  const size_t mx = static_cast<size_t>(mx_);
  for (int c = 0; c < mz_; ++c) {
    const size_t r = static_cast<size_t>(c) * mx;
    const double inv = 1.0 / (diag[0] + shift[c]);
    cp[r] = cx * inv;
    slab[r] *= inv;
  }
  for (size_t i = 1; i < mx; ++i) {
    for (int c = 0; c < mz_; ++c) {
      const size_t e = static_cast<size_t>(c) * mx + i;
      const double inv = 1.0 / (diag[i] + shift[c] - cx * cp[e - 1]);
      cp[e] = cx * inv;
      slab[e] = (slab[e] - cx * slab[e - 1]) * inv;
    }
  }
  for (size_t i = mx - 1; i-- > 0;) {
    for (int c = 0; c < mz_; ++c) {
      const size_t e = static_cast<size_t>(c) * mx + i;
      slab[e] -= cp[e] * slab[e + 1];
    }
  }
}

void PoissonSolver::Solve(double* x) {
  if (mx_ == 0 || my_ == 0 || mz_ == 0) return;
  // Kept as separate functions: with both phases inlined into one body,
  // gcc 12 compiled the loop nests ~25% slower.
  TransformY(x, false);
  SolveModes(x);
  TransformY(x, true);
}

void PoissonSolver::TransformY(double* x, bool inverse) {
  // Along y, one k-plane at a time: x^_a = sum_b Qy[b][a] x_b, or the
  // inverse x_a = sum_b Qy[a][b] x^_b.
  const size_t mx = static_cast<size_t>(mx_), my = static_cast<size_t>(my_);
  const double* qy = y_.q.data();
  double* plane = scratch_.data();
  for (int k = 0; k < mz_; ++k) {
    for (int j = 0; j < my_; ++j) {
      std::copy_n(Line(x, j, k), mx, plane + j * mx);
    }
    for (int a = 0; a < my_; ++a) {
      Combine(
          Line(x, a, k), mx_, my_,
          [&](int b) { return inverse ? qy[a * my + b] : qy[b * my + a]; },
          [&](int b) { return plane + b * mx; });
    }
  }
}

void PoissonSolver::SolveModes(double* x) {
  // Per y-mode a, one x-z slab: transform along z, sweep each (a, c) line
  // along x with the shift mu_y[a] + mu_z[c], transform back.
  const size_t mx = static_cast<size_t>(mx_), mz = static_cast<size_t>(mz_);
  const double* qz = z_.q.data();
  double* slab = scratch_.data();
  double* cp = slab + mx * mz;
  double* shift = cp + mx * mz;
  for (int a = 0; a < my_; ++a) {
    for (int c = 0; c < mz_; ++c) {
      Combine(
          slab + c * mx, mx_, mz_, [&](int k) { return qz[k * mz + c]; },
          [&](int k) { return Line(x, a, k); });
      shift[c] = y_.mu[a] + z_.mu[c];
    }
    SweepX(slab, cp, shift);
    for (int k = 0; k < mz_; ++k) {
      Combine(
          Line(x, a, k), mx_, mz_, [&](int c) { return qz[k * mz + c]; },
          [&](int c) { return slab + c * mx; });
    }
  }
}

void PoissonSolver::FillGhosts(double* p) const {
  const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  const auto at = [&](int i, int j, int k) -> double& {
    return p[mesh_.Index(i, j, k)];
  };
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      at(0, j, k) = dirichlet_x_lo_ ? 0.0 : at(1, j, k);
      at(nx - 1, j, k) = dirichlet_x_hi_ ? 0.0 : at(nx - 2, j, k);
    }
    for (int i = 0; i < nx; ++i) {
      at(i, 0, k) = dirichlet_y_lo_ ? 0.0 : at(i, 1, k);
      at(i, ny - 1, k) = dirichlet_y_hi_ ? 0.0 : at(i, ny - 2, k);
    }
  }
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      at(i, j, 0) = at(i, j, 1);
      at(i, j, nz - 1) = at(i, j, nz - 2);
    }
  }
}

}  // namespace xg::cfd
