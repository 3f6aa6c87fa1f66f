// Lane packs and width dispatch for the CFD kernels, private to the kernel
// files of src/cfd (solver.cpp, poisson.cpp).
//
// A kernel is one generic body over a pack of doubles: V8 (AVX-512F), V4
// (AVX2) or V2 (SSE2) for the row, V2 and V1 for its tail. AtLaneWidth runs
// the body inside a function compiled for the chosen width's ISA; the
// `flatten` attribute inlines the body and everything it calls into that
// function, so each width is the same source compiled for its own target.
// The operators act lane by lane with the IEEE double operation the scalar
// expression would use, in the same order, so every lane is bitwise the
// scalar result at every width. Branches become masks: a comparison yields
// an all-ones/all-zeros lane mask and Select blends by bits.
//
// Two rules keep that true:
//  - No contraction into FMA (cfd/fp_contract.hpp, which a kernel file
//    includes first; included here too, so the entry points below carry
//    the guard into everything they inline).
//  - Everything width-specific has internal linkage: it lives in the
//    unnamed namespace below or in a lambda, so the AVX-512 copy of a
//    helper can never be the one the linker picks for an SSE2 caller.
#pragma once

#include "cfd/fp_contract.hpp"

#include <cstddef>
#include <type_traits>

#include "cfd/lanes.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define XG_CFD_WIDE_LANES 1
#else
#define XG_CFD_WIDE_LANES 0
#endif

// Packs cross function boundaries only between functions (and lambdas of
// the including file) that are inlined into one dispatched entry point, so
// gcc's warning that a wide vector's calling convention differs without
// AVX has no call to warn about. It is raised where the including file
// calls a helper too, so the pragma is not scoped to this header.
#if !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace xg::cfd {
namespace {

using V8 = double __attribute__((vector_size(8 * sizeof(double))));
using V4 = double __attribute__((vector_size(4 * sizeof(double))));
using V2 = double __attribute__((vector_size(2 * sizeof(double))));
using V1 = double __attribute__((vector_size(sizeof(double))));

template <typename V>
constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(double));

template <typename V>
using Mask = decltype(V{} < V{});

/// The lane count a kernel body runs at, passed as an empty tag so no pack
/// crosses a call by value.
template <typename V>
struct Lanes {
  using Pack = V;
};
template <typename L>
using PackOf = typename L::Pack;

/// A pack as it sits in a field: any double may start one, so it is
/// accessed through this 8-byte-aligned copy of the pack type. gcc gives a
/// vector of doubles the alias set of double, so the accesses keep the
/// fields' alias set; a memcpy store or an intrinsic's may-alias type would
/// make every store clobber the kernel's constants and pointers, reloaded
/// per cell. (Lane-by-lane accesses keep it too, but gcc then assembles
/// some 8-lane loads one lane at a time.)
template <typename V>
struct Unaligned {
  typedef V type __attribute__((aligned(alignof(double))));
};

template <typename V>
inline V Load(const double* p) {
  return *reinterpret_cast<const typename Unaligned<V>::type*>(p);
}

template <typename V>
inline void Store(double* p, const V& v) {
  *reinterpret_cast<typename Unaligned<V>::type*>(p) = v;
}

/// Lane-wise m ? a : b.
template <typename V>
inline V Select(const Mask<V>& m, const V& a, const V& b) {
  using M = Mask<V>;
  return (V)(((M)a & m) | ((M)b & ~m));
}

/// Lane-wise std::max(acc, x): keeps acc unless acc < x, so a NaN x is
/// ignored as the scalar fold ignores it.
template <typename V>
inline V Max(const V& acc, const V& x) {
  return Select<V>(acc < x, x, acc);
}

/// Lane-wise |x|: clears the sign bit, as std::abs does.
template <typename V>
inline V Abs(const V& x) {
  using M = Mask<V>;
  return (V)((M)x & ~(M)(-V{}));
}

/// Lane mask of the cells from p whose type is t.
template <typename V, typename Enum>
inline Mask<V> TypeMask(const Enum* p, Enum t) {
  static_assert(sizeof(Enum) == 1, "one byte per cell");
  if constexpr (kLanes<V> == 1) {
    return Mask<V>{*p == t ? -1 : 0};
  } else {
    typedef unsigned char Bytes
        __attribute__((vector_size(kLanes<V>), aligned(1)));
    const Bytes b = *reinterpret_cast<const Bytes*>(p);
    return __builtin_convertvector(b == static_cast<unsigned char>(t),
                                   Mask<V>);
  }
}

/// True if any lane of the mask is set.
template <typename V>
inline bool Any(const Mask<V>& m) {
  auto bits = m[0];
  for (int l = 1; l < kLanes<V>; ++l) bits |= m[l];
  return bits != 0;
}

/// Lane-wise std::sqrt. IEEE sqrt is correctly rounded, so the vector
/// instruction gives the scalar result in every lane.
inline V1 Sqrt(const V1& x) { return V1{__builtin_sqrt(x[0])}; }
#if XG_CFD_WIDE_LANES
inline V2 Sqrt(const V2& x) { return _mm_sqrt_pd(x); }
[[gnu::target("avx2")]] inline V4 Sqrt(const V4& x) {
  return _mm256_sqrt_pd(x);
}
[[gnu::target("avx2,avx512f")]] inline V8 Sqrt(const V8& x) {
  // The masked form: the plain one's undefined pass-through operand trips
  // -Wmaybe-uninitialized in gcc 12's header.
  return _mm512_mask_sqrt_pd(x, static_cast<__mmask8>(0xff), x);
}
#else
inline V2 Sqrt(const V2& x) {
  return V2{__builtin_sqrt(x[0]), __builtin_sqrt(x[1])};
}
#endif

/// Runs cell(c, Lanes<V>{}) over the `n` cells of a row from index c: W
/// lanes at a time, then two, then the odd last cell at one lane. Every
/// cell is visited once, so the cell may update its output in place.
template <typename W, typename Cell>
inline void ForRow(size_t c, int n, Cell&& cell) {
  int i = 0;
  for (; i + kLanes<W> <= n; i += kLanes<W>) {
    cell(c + static_cast<size_t>(i), Lanes<W>{});
  }
  if constexpr (kLanes<W> > 2) {
    for (; i + 2 <= n; i += 2) cell(c + static_cast<size_t>(i), Lanes<V2>{});
  }
  if (i < n) cell(c + static_cast<size_t>(i), Lanes<V1>{});
}

/// The pack of half V's lanes (V1 for V2).
template <typename V>
using Narrower = std::conditional_t<
    kLanes<V> == 8, V4, std::conditional_t<kLanes<V> == 4, V2, V1>>;

/// Runs cell(c, Lanes<V>{}) over the `n` cells of a row from index c in
/// full packs of the widest V <= W that the row holds, the last one
/// shifted back to end at the row's last cell. The shifted pack visits a
/// few cells a second time, so the cell must compute its output from
/// inputs it does not write (or fold it into a maximum).
template <typename W, typename Cell>
inline void ForRowShifted(size_t c, int n, Cell&& cell) {
  if (n >= kLanes<W>) {
    int i = 0;
    for (; i + kLanes<W> <= n; i += kLanes<W>) {
      cell(c + static_cast<size_t>(i), Lanes<W>{});
    }
    if (i < n) cell(c + static_cast<size_t>(n - kLanes<W>), Lanes<W>{});
  } else if constexpr (kLanes<W> > 1) {
    ForRowShifted<Narrower<W>>(c, n, cell);
  }
}

// One entry point per width. Each is instantiated per kernel body (a
// lambda, so the instantiation is local to the kernel's file).
template <typename Body>
[[gnu::flatten]] void RunV2(Body& body) {
  body(Lanes<V2>{});
}
#if XG_CFD_WIDE_LANES
template <typename Body>
[[gnu::target("avx2"), gnu::flatten]] void RunV4(Body& body) {
  body(Lanes<V4>{});
}
template <typename Body>
[[gnu::target("avx2,avx512f"), gnu::flatten]] void RunV8(Body& body) {
  body(Lanes<V8>{});
}
#endif

/// Runs body(Lanes<V>{}) with V the pack of `width`, compiled for that
/// width's ISA. The width must be one of HostLaneWidths().
template <typename Body>
inline void AtLaneWidth(LaneWidth width, Body&& body) {
  switch (width) {
#if XG_CFD_WIDE_LANES
    case LaneWidth::kAvx512:
      RunV8(body);
      return;
    case LaneWidth::kAvx2:
      RunV4(body);
      return;
#endif
    default:
      RunV2(body);
      return;
  }
}

}  // namespace
}  // namespace xg::cfd

