// Fork-join worker pool used by the CFD solver for domain-decomposed
// parallel loops (the stand-in for OpenFOAM's per-core decomposition).
//
// The pool keeps N persistent workers; ParallelFor partitions an index range
// into contiguous chunks (one per worker, matching the solver's slab
// decomposition) and blocks until all chunks finish. RunOnAll runs one
// call per worker.
//
// Both entry points are templates dispatched through a raw function-pointer
// trampoline: the callable lives on the submitter's stack and is passed by
// address, so a fork-join costs no std::function construction and no heap
// allocation (the chunk table is a buffer reused across submissions).
#pragma once

#include <cstddef>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/mutex.hpp"

namespace xg {

/// CPUs this process may run on: the size of its affinity mask where the
/// platform has one (so `taskset -c 1` gives 1), else
/// std::thread::hardware_concurrency(); at least 1.
size_t AvailableCpus();

class ThreadPool {
 public:
  /// Creates `threads` workers. `threads == 0` means AvailableCpus().
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Run fn(begin, end) over [0, n) split into one contiguous chunk per
  /// worker; blocks until every chunk completes. Calls from the body must
  /// not touch the pool (no nesting): a nested call degrades to inline
  /// execution and flags a contract violation.
  template <typename Fn>
  void ParallelFor(size_t n, Fn&& fn) {
    ParallelForChunks(n, [&](size_t begin, size_t end, size_t) {
      fn(begin, end);
    });
  }

  /// As ParallelFor, and also passes the chunk's index (< size(); 0 when a
  /// nested call runs inline), so a body can use per-chunk scratch:
  /// fn(begin, end, chunk).
  template <typename Fn>
  void ParallelForChunks(size_t n, Fn&& fn) {
    if (n == 0) return;
    XG_INVARIANT(!OnWorkerThread(),
                 "nested ParallelFor on the same ThreadPool would deadlock");
    if (OnWorkerThread()) {
      fn(size_t{0}, n, size_t{0});
      return;
    }
    using Body = std::remove_reference_t<Fn>;
    Dispatch(n, &ChunkTrampoline<Body>, const_cast<void*>(
                    static_cast<const void*>(std::addressof(fn))));
  }

  /// Run fn(worker_index) once on each worker and block until all return.
  template <typename Fn>
  void RunOnAll(Fn&& fn) {
    XG_INVARIANT(!OnWorkerThread(),
                 "nested RunOnAll on the same ThreadPool would deadlock");
    if (OnWorkerThread()) {
      fn(size_t{0});
      return;
    }
    // One unit of work per worker: chunking assigns index w to worker w.
    ParallelForChunks(workers_.size(), [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }

  /// True when called from one of this pool's worker threads (i.e. from
  /// inside a task body), where fork-join entry points must not be used.
  bool OnWorkerThread() const;

 private:
  /// Type-erased task body: (ctx, begin, end, worker_index).
  using RawFn = void (*)(void*, size_t, size_t, size_t);

  template <typename Body>
  static void ChunkTrampoline(void* ctx, size_t begin, size_t end,
                              size_t worker) {
    (*static_cast<Body*>(ctx))(begin, end, worker);
  }

  /// Partition [0, n) into one contiguous chunk per worker, run `fn` on the
  /// workers, and block until every chunk completes. Serializes concurrent
  /// external submitters (they would otherwise race on the task slot).
  void Dispatch(size_t n, RawFn fn, void* ctx) XG_EXCLUDES(submit_mu_, mu_);

  void WorkerLoop(size_t index);

  std::vector<std::thread> workers_;  ///< immutable after construction
  /// Serializes external fork-join submitters; always taken before mu_.
  Mutex submit_mu_ XG_ACQUIRED_BEFORE(mu_);
  Mutex mu_;
  CondVar cv_start_;
  CondVar cv_done_;
  RawFn fn_ XG_GUARDED_BY(mu_) = nullptr;
  void* ctx_ XG_GUARDED_BY(mu_) = nullptr;
  /// Reused chunk table (one contiguous range per worker).
  std::vector<std::pair<size_t, size_t>> ranges_ XG_GUARDED_BY(mu_);
  /// Bumps when a new task is posted.
  uint64_t generation_ XG_GUARDED_BY(mu_) = 0;
  /// Workers still running the current task.
  size_t remaining_ XG_GUARDED_BY(mu_) = 0;
  bool shutdown_ XG_GUARDED_BY(mu_) = false;
};

}  // namespace xg
