// Cache-line placement of the CFD solver's arrays.
//
// The kernels load and store whole lane packs (cfd/packs.hpp). A pack that
// straddles two 64-byte lines costs two line accesses, so the arrays are
// placed where the packs fall: the solver's mesh fields with interior cell
// (1, j, k) on a line start, the pressure solve's mode-major scratch with
// every padded row on one (DESIGN.md §9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

namespace xg::cfd {

/// Allocator whose arrays have element kFirst at the start of a 64-byte
/// cache line. It takes a plain allocation a line (and a pointer) larger
/// and keeps that allocation's address in front of element 0: with the
/// aligned operator new, glibc carved each array out of a larger chunk,
/// and a process that built solver after solver kept its peak resident
/// set growing.
template <typename T, size_t kFirst = 0>
struct LineAllocator {
  static constexpr size_t kLine = 64;
  static_assert(kLine % sizeof(T) == 0, "whole elements per line");
  static_assert(alignof(T) <= alignof(void*), "the pointer slot aligns T");
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = LineAllocator<U, kFirst>;
  };

  LineAllocator() = default;
  template <typename U>
  LineAllocator(const LineAllocator<U, kFirst>&) {}

  T* allocate(size_t n) {
    char* raw = static_cast<char*>(
        ::operator new(n * sizeof(T) + kLine + sizeof(void*)));
    // The first line start at least a pointer past raw for element kFirst.
    const std::uintptr_t first = reinterpret_cast<std::uintptr_t>(raw) +
                                 sizeof(void*) + kFirst * sizeof(T);
    char* data = reinterpret_cast<char*>((first + kLine - 1) & ~(kLine - 1)) -
                 kFirst * sizeof(T);
    std::memcpy(data - sizeof(void*), &raw, sizeof raw);
    return reinterpret_cast<T*>(data);
  }
  void deallocate(T* p, size_t) {
    void* raw;
    std::memcpy(&raw, reinterpret_cast<char*>(p) - sizeof(void*), sizeof raw);
    ::operator delete(raw);
  }
  template <typename U>
  bool operator==(const LineAllocator<U, kFirst>&) const {
    return true;
  }
};

/// An array of doubles whose element kFirst starts a cache line.
template <size_t kFirst = 0>
using LineArray = std::vector<double, LineAllocator<double, kFirst>>;

}  // namespace xg::cfd
