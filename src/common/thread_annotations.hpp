// Clang Thread Safety Analysis attribute wrappers.
//
// Every mutex-protected shared structure in the tree declares *statically*
// which lock guards which state: members carry XG_GUARDED_BY(mu_), private
// helpers that assume the lock carry XG_REQUIRES(mu_), and the lock types
// themselves (src/common/mutex.hpp) are capability types. Under clang the
// `analyze` CI lane compiles with `-Wthread-safety -Werror`, turning every
// unguarded access, missed unlock, and lock-order slip into a compile
// error; under GCC (the default local toolchain) the macros expand to
// nothing and cost nothing.
//
// The threading contract is "one fabric, one thread": everything a fabric
// owns (the event kernel, the layers, the tracer, the metrics registry,
// CSPOT logs, the fault injector) is built, driven and read on the one
// thread that runs it, and carries no lock. Parallelism, when wanted, is
// across fabrics (seeds, sweeps), which share nothing but the
// process-global log sink and contract state — the only places under
// src/ that still take a lock, and the only ones the analysis checks.
//
// Convention summary (the full table lives in DESIGN.md §13):
//   XG_CAPABILITY("mutex")     on a lock class (xg::Mutex)
//   XG_SCOPED_CAPABILITY       on an RAII lock holder (xg::MutexLock)
//   XG_GUARDED_BY(mu)          on data members the lock protects
//   XG_REQUIRES(mu)            function must be called with `mu` held
//   XG_ACQUIRE / XG_RELEASE    function takes / drops the capability
//   XG_EXCLUDES(mu)            function must NOT be called with `mu` held
//
// Classes with *no* lock are not thereby safe: state owned by a fabric's
// thread is marked XG_SIM_THREAD_CONFINED (documentation-only, enforced by
// convention + the xglint unannotated-mutex and raw-thread rules keeping
// hidden std::mutex members and threads out of src/).
#pragma once

// clang implements the analysis attributes; GCC accepts and ignores some
// of them but warns on others, so gate on the capability-analysis feature
// rather than the compiler id.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define XG_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef XG_THREAD_ANNOTATION_
#define XG_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

#define XG_CAPABILITY(x) XG_THREAD_ANNOTATION_(capability(x))
#define XG_SCOPED_CAPABILITY XG_THREAD_ANNOTATION_(scoped_lockable)
#define XG_GUARDED_BY(x) XG_THREAD_ANNOTATION_(guarded_by(x))
#define XG_REQUIRES(...) \
  XG_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define XG_ACQUIRE(...) XG_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define XG_RELEASE(...) XG_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define XG_TRY_ACQUIRE(...) \
  XG_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define XG_EXCLUDES(...) XG_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Documentation marker (expands to nothing on every compiler): the class
/// carries mutable state with NO internal lock because it is owned by the
/// thread that runs its fabric — construction, mutation and reads
/// (exporters and dashboards included) all happen on that thread. Two
/// fabrics on two threads are fine; one instance shared by two threads is
/// a data race.
#define XG_SIM_THREAD_CONFINED
