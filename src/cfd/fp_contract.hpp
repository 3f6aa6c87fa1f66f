// Included first by every src/cfd source with floating-point arithmetic:
// turns off the contraction of a * b + c into one FMA instruction for the
// rest of the file. gcc contracts by default (-ffp-contract=fast, even
// under -std=c++20) and clang within an expression, wherever the target
// has FMA: the AVX-512 kernels always do, and under -march=x86-64-v3 every
// function does. An FMA rounds once where the scalar expression rounds
// twice, so the fields would differ between lane widths (cfd/packs.hpp)
// and between builds. tools/cfd_isa_check.py checks the object code.
#pragma once

#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif
