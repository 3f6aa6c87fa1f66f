// Pack widths of the CFD kernels and the one per-process choice among them.
//
// The stencil kernels of cfd::Solver and the dense transforms of
// cfd::PoissonSolver are each written once over a pack of doubles and
// compiled at every width below: two lanes (SSE2, the x86-64 baseline),
// four (AVX2) and eight (AVX-512F). A solver runs at the widest width the
// CPU offers, read from the CPU once per process. Every lane evaluates the
// scalar expression in the scalar order with IEEE operations and no
// contraction into FMA, so the fields are bitwise the same at every width
// (DESIGN.md §9). There is no option: the width comes from the CPU only.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace xg::cfd {

/// Doubles per pack of the widest kernel path.
enum class LaneWidth : uint8_t { kSse2 = 2, kAvx2 = 4, kAvx512 = 8 };

/// The widest width this CPU runs. The CPU is queried on the first call of
/// the process only.
LaneWidth HostLaneWidth();

/// Every width this CPU runs, narrowest first; kSse2 is always there.
std::span<const LaneWidth> HostLaneWidths();

/// "sse2", "avx2" or "avx512".
std::string_view LaneWidthName(LaneWidth width);

}  // namespace xg::cfd
