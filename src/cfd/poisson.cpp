#include "cfd/fp_contract.hpp"  // first: no FMA contraction below
#include "cfd/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "cfd/packs.hpp"

namespace xg::cfd {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// out(r)[i] = sum over t of coef(r, t) * in(t)[i] for the R output rows
/// r0 <= r < r0 + R and i < n, each output accumulated from 0 in ascending
/// t in its own lane. Rows are contiguous x lines. A block of P packs of V
/// per row stays in registers across the whole sum, and the R rows share
/// each input pack they load. When n is not a multiple of the block the
/// last block is shifted back to end at n, recomputing a few outputs with
/// identical arithmetic. Needs n >= P * kLanes<V>; no output row may alias
/// an input row.
template <int R, int P, typename V, typename Out, typename Coef, typename In>
inline void CombineBlocks(int r0, int n, int terms, const Out& out,
                          const Coef& coef, const In& in) {
  constexpr int kLen = kLanes<V>;
  for (int b = 0; b < n; b += P * kLen) {
    const int i0 = std::min(b, n - P * kLen);
    V acc[R][P] = {};
    for (int t = 0; t < terms; ++t) {
      const double* src = in(t) + i0;
      V x[P];
      for (int p = 0; p < P; ++p) x[p] = Load<V>(src + p * kLen);
      for (int r = 0; r < R; ++r) {
        const double a = coef(r0 + r, t);
        for (int p = 0; p < P; ++p) acc[r][p] += a * x[p];
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int p = 0; p < P; ++p) Store(out(r0 + r) + i0 + p * kLen, acc[r][p]);
    }
  }
}

/// Output rows per pass and packs per row block of Combine at each width,
/// measured on the default mesh (46-cell rows): enough accumulators to
/// keep the adders busy past their latency, few enough to stay in
/// registers, and a block that wastes little of a row.
template <typename V>
constexpr int kCombineRows = kLanes<V> == 2 ? 1 : 2;
template <typename V>
constexpr int kCombinePacks = kLanes<V> == 2 ? 8 : 3;

/// CombineBlocks over `rows` output rows and a row length n >= 1: R rows
/// at a time, then one, each over the widest block the row holds.
template <typename V, typename Out, typename Coef, typename In>
inline void Combine(int rows, int n, int terms, const Out& out,
                    const Coef& coef, const In& in) {
  const auto pass = [&]<int R>(int r0) {
    constexpr int kPacks = kCombinePacks<V>;
    if (n >= kPacks * kLanes<V>) {
      CombineBlocks<R, kPacks, V>(r0, n, terms, out, coef, in);
    } else if (n >= kLanes<V>) {
      CombineBlocks<R, 1, V>(r0, n, terms, out, coef, in);
    } else {
      CombineBlocks<R, 1, V1>(r0, n, terms, out, coef, in);
    }
  };
  constexpr int kRows = kCombineRows<V>;
  int r = 0;
  for (; r + kRows <= rows; r += kRows) pass.template operator()<kRows>(r);
  for (; r < rows; ++r) pass.template operator()<1>(r);
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
      scratch_(static_cast<size_t>(mx_) * std::max(my_, mz_)) {
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
  FactorLines();
}

void PoissonSolver::FactorLines() {
  // Thomas elimination of every (y-mode a, z-mode c) line: the pivots'
  // reciprocals depend only on the operator, so they are computed here
  // once per Configure instead of in every solve. Rows are weakly
  // diagonally dominant with a strict Dirichlet row, so no pivoting.
  const size_t mx = static_cast<size_t>(mx_);
  inv_pivot_.resize(mx * static_cast<size_t>(my_) * static_cast<size_t>(mz_));
  if (mx == 0) return;
  const double cx = cx_;
  double* inv = inv_pivot_.data();
  for (int a = 0; a < my_; ++a) {
    for (int c = 0; c < mz_; ++c, inv += mx) {
      const double shift = y_.mu[a] + z_.mu[c];
      inv[0] = 1.0 / (diag_x_[0] + shift);
      for (size_t i = 1; i < mx; ++i) {
        inv[i] = 1.0 / (diag_x_[i] + shift - cx * (cx * inv[i - 1]));
      }
    }
  }
}

void PoissonSolver::SweepX(double* slab, const double* inv) const {
  // Forward elimination and back substitution on the mz lines of one slab
  // (line c is slab[c * mx ...]); the off-diagonals are all cx. Lines are
  // independent and interleaved in the inner loop, so their chains overlap.
  const double cx = cx_;
  const size_t mx = static_cast<size_t>(mx_);
  for (int c = 0; c < mz_; ++c) {
    const size_t r = static_cast<size_t>(c) * mx;
    slab[r] *= inv[r];
  }
  for (size_t i = 1; i < mx; ++i) {
    for (int c = 0; c < mz_; ++c) {
      const size_t e = static_cast<size_t>(c) * mx + i;
      slab[e] = (slab[e] - cx * slab[e - 1]) * inv[e];
    }
  }
  for (size_t i = mx - 1; i-- > 0;) {
    for (int c = 0; c < mz_; ++c) {
      const size_t e = static_cast<size_t>(c) * mx + i;
      slab[e] -= cx * inv[e] * slab[e + 1];
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
  const size_t row_step = inverse ? my : 1, term_step = inverse ? 1 : my;
  double* plane = scratch_.data();
  AtLaneWidth(lane_width_, [&](auto lanes) {
    using V = PackOf<decltype(lanes)>;
    for (int k = 0; k < mz_; ++k) {
      for (int j = 0; j < my_; ++j) {
        std::copy_n(Line(x, j, k), mx, plane + j * mx);
      }
      Combine<V>(
          my_, mx_, my_, [&](int a) { return Line(x, a, k); },
          [=](int a, int b) {
            return qy[static_cast<size_t>(a) * row_step +
                      static_cast<size_t>(b) * term_step];
          },
          [=](int b) { return plane + static_cast<size_t>(b) * mx; });
    }
  });
}

void PoissonSolver::SolveModes(double* x) {
  // Per y-mode a, one x-z slab: transform along z, sweep each (a, c) line
  // along x with the shift mu_y[a] + mu_z[c], transform back.
  const size_t mx = static_cast<size_t>(mx_), mz = static_cast<size_t>(mz_);
  const double* qz = z_.q.data();
  double* slab = scratch_.data();
  const auto qz_at = [=](int k, int c) {
    return qz[static_cast<size_t>(k) * mz + static_cast<size_t>(c)];
  };
  const auto slab_line = [=](int c) {
    return slab + static_cast<size_t>(c) * mx;
  };
  AtLaneWidth(lane_width_, [&](auto lanes) {
    using V = PackOf<decltype(lanes)>;
    for (int a = 0; a < my_; ++a) {
      const auto line = [&](int k) { return Line(x, a, k); };
      Combine<V>(
          mz_, mx_, mz_, slab_line, [=](int c, int k) { return qz_at(k, c); },
          line);
      SweepX(slab, inv_pivot_.data() + static_cast<size_t>(a) * mz * mx);
      Combine<V>(mz_, mx_, mz_, line, qz_at, slab_line);
    }
  });
}

void PoissonSolver::set_lane_width(LaneWidth width) {
  lane_width_ = std::min(width, HostLaneWidth());
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
