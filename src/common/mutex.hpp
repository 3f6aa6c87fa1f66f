// Annotated lock shims: the only mutex vocabulary allowed under src/.
//
// xg::Mutex wraps std::mutex as a clang Thread Safety Analysis capability
// type and xg::MutexLock replaces std::lock_guard as a scoped capability,
// so `-Wthread-safety -Werror` (the CI analyze lane) can prove that every
// XG_GUARDED_BY member is only touched with its lock held.
//
// Only process-global state takes a lock (the log level and sink, the
// contract counters, obs::LogSink); everything a fabric owns is confined
// to the one thread that runs it (see XG_SIM_THREAD_CONFINED).
//
// The xglint `unannotated-mutex` rule enforces the migration: any
// std::mutex / std::lock_guard / std::condition_variable spelled under
// src/ outside this file is a lint error.
//
// Zero-cost: on GCC the annotations vanish and every method is a direct
// forward; there is no state beyond the wrapped primitive.
#pragma once

#include <mutex>  // xglint:allow(unannotated-mutex)

#include "common/thread_annotations.hpp"

namespace xg {

/// Exclusive lock, declared as a TSA capability. Satisfies BasicLockable /
/// Lockable, so standard facilities still accept it where needed.
class XG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() XG_ACQUIRE() { mu_.lock(); }
  void unlock() XG_RELEASE() { mu_.unlock(); }
  bool try_lock() XG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;  // xglint:allow(unannotated-mutex)
};

/// RAII holder, the std::lock_guard replacement. Scoped-capability
/// annotation lets the analysis credit the lock for the holder's lifetime.
class XG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) XG_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() XG_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace xg
