#include "cfd/lanes.hpp"

#include <array>
#include <cstddef>

namespace xg::cfd {

namespace {
struct Widths {
  std::array<LaneWidth, 3> all{LaneWidth::kSse2};
  size_t count = 1;
};

Widths QueryCpu() {
  Widths w;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // libgcc's checks include the OS's XSAVE support for the wide registers.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) w.all[w.count++] = LaneWidth::kAvx2;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("avx512f")) {
    w.all[w.count++] = LaneWidth::kAvx512;
  }
#endif
  return w;
}

const Widths& Host() {
  static const Widths host = QueryCpu();
  return host;
}
}  // namespace

LaneWidth HostLaneWidth() {
  const Widths& h = Host();
  return h.all[h.count - 1];
}

std::span<const LaneWidth> HostLaneWidths() {
  const Widths& h = Host();
  return {h.all.data(), h.count};
}

std::string_view LaneWidthName(LaneWidth width) {
  switch (width) {
    case LaneWidth::kAvx512:
      return "avx512";
    case LaneWidth::kAvx2:
      return "avx2";
    case LaneWidth::kSse2:
      break;
  }
  return "sse2";
}

}  // namespace xg::cfd
