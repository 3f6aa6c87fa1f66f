#include "cfd/fp_contract.hpp"  // first: no FMA contraction below
#include "cfd/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "cfd/packs.hpp"
#include "common/contract.hpp"
#include "obs/kerneltimer.hpp"

namespace xg::cfd {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// The mode-major rows are padded to a whole number of this many lanes,
/// the widest pack, so that the y transforms and the sweeps run full packs
/// at every width.
constexpr size_t kPitchLanes = 8;

/// out(r)[i] = sum over t of coef(r, t) * in(t)[i] for the R output rows
/// r0 <= r < r0 + R and i < n, each output accumulated from 0 in ascending
/// t in its own lane. Rows are contiguous. A block of P packs of V
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

/// CombineBlocks over `rows` output rows and a row length n >= 1: kRows
/// rows at a time, then one, each over the widest block the row holds
/// (kPacks packs, else one pack, else one lane). kRows * kPacks
/// accumulators keep the adders busy past their latency; the shapes at
/// the call sites were measured on the default mesh.
template <typename V, int kRows, int kPacks, typename Out, typename Coef,
          typename In>
inline void Combine(int rows, int n, int terms, const Out& out,
                    const Coef& coef, const In& in) {
  const auto pass = [&]<int R>(int r0) {
    if (n >= kPacks * kLanes<V>) {
      CombineBlocks<R, kPacks, V>(r0, n, terms, out, coef, in);
    } else if (n >= kLanes<V>) {
      CombineBlocks<R, 1, V>(r0, n, terms, out, coef, in);
    } else {
      CombineBlocks<R, 1, V1>(r0, n, terms, out, coef, in);
    }
  };
  int r = 0;
  for (; r + kRows <= rows; r += kRows) pass.template operator()<kRows>(r);
  for (; r < rows; ++r) pass.template operator()<1>(r);
}

/// Transposes the L x L block at src (rows `src_pitch` apart) into dst
/// (rows `dst_pitch` apart), L = kLanes<V>: log2(L) butterfly stages, each
/// swapping the off-diagonal sub-blocks of side d between rows p and p + d.
template <typename V>
inline void TransposeBlock(const double* src, size_t src_pitch, double* dst,
                           size_t dst_pitch) {
  constexpr int kLen = kLanes<V>;
  using M = Mask<V>;
  V r[kLen];
  for (int p = 0; p < kLen; ++p) r[p] = Load<V>(src + p * src_pitch);
  const auto stage = [&](int d, const M& lo, const M& hi) {
    for (int p = 0; p < kLen; ++p) {
      if ((p & d) != 0) continue;
      const V a = r[p], b = r[p + d];
      r[p] = __builtin_shuffle(a, b, lo);
      r[p + d] = __builtin_shuffle(a, b, hi);
    }
  };
  if constexpr (kLen == 8) {
    stage(4, M{0, 1, 2, 3, 8, 9, 10, 11}, M{4, 5, 6, 7, 12, 13, 14, 15});
    stage(2, M{0, 1, 8, 9, 4, 5, 12, 13}, M{2, 3, 10, 11, 6, 7, 14, 15});
  } else if constexpr (kLen == 4) {
    stage(2, M{0, 1, 4, 5}, M{2, 3, 6, 7});
  }
  if constexpr (kLen == 8) {
    stage(1, M{0, 8, 2, 10, 4, 12, 6, 14}, M{1, 9, 3, 11, 5, 13, 7, 15});
  } else if constexpr (kLen == 4) {
    stage(1, M{0, 4, 2, 6}, M{1, 5, 3, 7});
  } else if constexpr (kLen == 2) {
    stage(1, M{0, 2}, M{1, 3});
  }
  for (int p = 0; p < kLen; ++p) Store(dst + p * dst_pitch, r[p]);
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
      pitch_((static_cast<size_t>(my_) + kPitchLanes - 1) / kPitchLanes *
             kPitchLanes),
      cx_(1.0 / (mesh.dx() * mesh.dx())),
      ymode_(ModeAt(mz_, 0)),
      zmode_(ModeAt(mz_, 0)) {}

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
  // Qy and its transpose with rows padded to pitch_ columns of zeros.
  const size_t my = static_cast<size_t>(my_);
  qy_rows_.assign(my * pitch_, 0.0);
  qy_cols_.assign(my * pitch_, 0.0);
  for (size_t b = 0; b < my; ++b) {
    for (size_t a = 0; a < my; ++a) {
      qy_rows_[b * pitch_ + a] = y_.q[b * my + a];
      qy_cols_[a * pitch_ + b] = y_.q[b * my + a];
    }
  }
  FactorLines();
}

void PoissonSolver::FactorLines() {
  // Thomas elimination of every (y-mode a, z-mode c) line: the pivots'
  // reciprocals depend only on the operator, so they are computed here
  // once per Configure instead of in every solve. Rows are weakly
  // diagonally dominant with a strict Dirichlet row, so no pivoting.
  inv_pivot_.assign(ModeAt(mz_, 0), 0.0);
  const double cx = cx_;
  for (int c = 0; c < mz_; ++c) {
    double* inv = inv_pivot_.data() + ModeAt(c, 0);
    for (int a = 0; a < my_; ++a) {
      inv[a] = 1.0 / (diag_x_[0] + (y_.mu[a] + z_.mu[c]));
    }
    for (int i = 1; i < mx_; ++i) {
      const double* prev = inv;
      inv += pitch_;
      for (int a = 0; a < my_; ++a) {
        const double shift = y_.mu[a] + z_.mu[c];
        inv[a] = 1.0 / (diag_x_[i] + shift - cx * (cx * prev[a]));
      }
    }
  }
}

void PoissonSolver::Solve(double* x) {
  if (mx_ == 0 || my_ == 0 || mz_ == 0) return;
  XG_INVARIANT(!inv_pivot_.empty(), "PoissonSolver::Solve before Configure");
  if (inv_pivot_.empty()) return;
  // Kept as separate functions: with the phases inlined into one body,
  // gcc 12 compiled the loop nests slower.
  {
    obs::KernelScope ks(timer_, "sor.forward_y");
    ForwardY(x);
  }
  {
    obs::KernelScope ks(timer_, "sor.forward_z");
    TransformZ(false);
  }
  {
    obs::KernelScope ks(timer_, "sor.sweep_x");
    SweepX();
  }
  {
    obs::KernelScope ks(timer_, "sor.inverse_z");
    TransformZ(true);
  }
  {
    obs::KernelScope ks(timer_, "sor.inverse_y");
    InverseY();
  }
  obs::KernelScope ks(timer_, "sor.transpose");
  TransposeToMesh(x);
}

void PoissonSolver::ForwardY(const double* x) {
  // ymode[k][i][a] = sum_b x[k][b][i] Qy[b][a]: per k-plane and x cell i,
  // the y-modes in lanes, every b value of the mesh row broadcast against
  // row b of Qy, whole padded rows at a time.
  const size_t pitch = pitch_;
  const double* qy = qy_rows_.data();
  double* out = ymode_.data();
  AtLaneWidth(lane_width_, [&](auto lanes) {
    using V = PackOf<decltype(lanes)>;
    for (int k = 0; k < mz_; ++k) {
      Combine<V, 2, 5>(
          mx_, static_cast<int>(pitch), my_,
          [&](int i) { return out + ModeAt(k, i); },
          [&](int i, int b) { return Line(x, b, k)[i]; },
          [=](int b) { return qy + static_cast<size_t>(b) * pitch; });
    }
  });
}

void PoissonSolver::TransformZ(bool inverse) {
  // Along z, whole k-planes of the mode-major arrays at once:
  // zmode[c] = sum_k Qz[k][c] ymode[k], or the inverse
  // ymode[k] = sum_c Qz[k][c] zmode[c].
  const size_t plane = ModeAt(1, 0), mz = static_cast<size_t>(mz_);
  const double* qz = z_.q.data();
  double* const in = inverse ? zmode_.data() : ymode_.data();
  double* const out = inverse ? ymode_.data() : zmode_.data();
  const size_t row_step = inverse ? mz : 1, term_step = inverse ? 1 : mz;
  AtLaneWidth(lane_width_, [&](auto lanes) {
    using V = PackOf<decltype(lanes)>;
    Combine<V, 5, 2>(
        mz_, static_cast<int>(plane), mz_,
        [=](int r) { return out + static_cast<size_t>(r) * plane; },
        [=](int r, int t) {
          return qz[static_cast<size_t>(r) * row_step +
                    static_cast<size_t>(t) * term_step];
        },
        [=](int t) { return in + static_cast<size_t>(t) * plane; });
  });
}

void PoissonSolver::SweepX() {
  // The Thomas sweep of every (y-mode a, z-mode c) line along x, in place
  // in zmode_. All lines of one x cell i sit side by side in lanes, so the
  // packs of one step are independent and only step i - 1 (or i + 1)
  // feeds step i. The off-diagonals are all cx.
  const size_t plane = ModeAt(1, 0), row = pitch_;
  const size_t mz = static_cast<size_t>(mz_), mx = static_cast<size_t>(mx_);
  double* const z = zmode_.data();
  const double* const inv = inv_pivot_.data();
  const double cx = cx_;
  AtLaneWidth(lane_width_, [&](auto lanes) {
    using V = PackOf<decltype(lanes)>;
    constexpr size_t kLen = static_cast<size_t>(kLanes<V>);
    // Runs step(x, pivots) over every pack of x cell i.
    const auto at_cell = [&](size_t i, const auto& step) {
      for (size_t c = 0; c < mz; ++c) {
        const size_t o = c * plane + i * row;
        for (size_t a = 0; a < row; a += kLen) step(z + o + a, inv + o + a);
      }
    };
    at_cell(0, [](double* x, const double* d) {
      Store(x, Load<V>(x) * Load<V>(d));
    });
    for (size_t i = 1; i < mx; ++i) {
      at_cell(i, [=](double* x, const double* d) {
        Store(x, (Load<V>(x) - cx * Load<V>(x - row)) * Load<V>(d));
      });
    }
    for (size_t i = mx - 1; i-- > 0;) {
      at_cell(i, [=](double* x, const double* d) {
        Store(x, Load<V>(x) - cx * Load<V>(d) * Load<V>(x + row));
      });
    }
  });
}

void PoissonSolver::InverseY() {
  // zmode[k][i][j] = sum_a ymode[k][i][a] Qy[j][a]: ForwardY's shape with
  // the transposed basis, the cells j in lanes.
  const size_t pitch = pitch_;
  const double* qy = qy_cols_.data();
  const double* in = ymode_.data();
  double* out = zmode_.data();
  AtLaneWidth(lane_width_, [&](auto lanes) {
    using V = PackOf<decltype(lanes)>;
    for (int k = 0; k < mz_; ++k) {
      const double* src = in + ModeAt(k, 0);
      double* dst = out + ModeAt(k, 0);
      Combine<V, 2, 5>(
          mx_, static_cast<int>(pitch), my_,
          [=](int i) { return dst + static_cast<size_t>(i) * pitch; },
          [=](int i, int a) {
            return src[static_cast<size_t>(i) * pitch + static_cast<size_t>(a)];
          },
          [=](int a) { return qy + static_cast<size_t>(a) * pitch; });
    }
  });
}

void PoissonSolver::TransposeToMesh(double* x) const {
  // zmode[k][i][j] -> x[k][j][i], in square blocks of one pack's lanes. A
  // pure copy, so the last block of each axis is shifted back to end at
  // the edge.
  const size_t mx = static_cast<size_t>(mx_), my = static_cast<size_t>(my_);
  const size_t pitch = pitch_, line = static_cast<size_t>(mesh_.nx());
  const double* const from = zmode_.data();
  AtLaneWidth(lane_width_, [&](auto lanes) {
    using W = PackOf<decltype(lanes)>;
    const auto blocks = [&](auto block_lanes) {
      using V = PackOf<decltype(block_lanes)>;
      constexpr size_t kLen = static_cast<size_t>(kLanes<V>);
      for (int k = 0; k < mz_; ++k) {
        const double* src = from + ModeAt(k, 0);
        double* dst = Line(x, 0, k);
        for (size_t i = 0; i < mx; i += kLen) {
          const size_t i0 = std::min(i, mx - kLen);
          for (size_t j = 0; j < my; j += kLen) {
            const size_t j0 = std::min(j, my - kLen);
            TransposeBlock<V>(src + i0 * pitch + j0, pitch,
                              dst + j0 * line + i0, line);
          }
        }
      }
    };
    const size_t side = std::min(mx, my);
    if (side >= static_cast<size_t>(kLanes<W>)) {
      blocks(Lanes<W>{});
    } else if (side >= 2) {
      blocks(Lanes<V2>{});
    } else {
      blocks(Lanes<V1>{});
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
