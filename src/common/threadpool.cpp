#include "common/threadpool.hpp"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

namespace xg {

namespace {
// Set while a worker thread executes a task, so a nested ParallelFor or
// RunOnAll issued from inside a task body can be detected:
// the nested call would wait on cv_done_ from the very thread the pool
// needs to finish the outer task — a guaranteed deadlock.
thread_local const ThreadPool* tl_worker_pool = nullptr;
}  // namespace

size_t AvailableCpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
#endif
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = AvailableCpus();
  ranges_.assign(threads, {0, 0});
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    shutdown_ = true;
    ++generation_;
  }
  cv_start_.NotifyAll();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::OnWorkerThread() const { return tl_worker_pool == this; }

void ThreadPool::WorkerLoop(size_t index) {
  uint64_t seen = 0;
  for (;;) {
    RawFn fn = nullptr;
    void* ctx = nullptr;
    std::pair<size_t, size_t> range{0, 0};
    {
      MutexLock lk(mu_);
      while (!shutdown_ && generation_ == seen) cv_start_.Wait(mu_);
      if (shutdown_) return;
      seen = generation_;
      // Copy what this worker needs, then run unlocked. The submitter keeps
      // fn_/ctx_/ranges_ alive until the join completes, and holds
      // submit_mu_ so no other task can overwrite them mid-flight.
      fn = fn_;
      ctx = ctx_;
      if (index < ranges_.size()) range = ranges_[index];
    }

    tl_worker_pool = this;
    if (fn != nullptr && range.second > range.first) {
      fn(ctx, range.first, range.second, index);
    }
    tl_worker_pool = nullptr;

    MutexLock lk(mu_);
    if (--remaining_ == 0) cv_done_.NotifyAll();
  }
}

void ThreadPool::Dispatch(size_t n, RawFn fn, void* ctx) {
  // Serialize independent submitters: two concurrent fork-joins would race
  // on the shared task slot and lose work. Taken only after the nesting
  // check, so a worker thread can never self-deadlock here.
  MutexLock submit_lk(submit_mu_);
  const size_t workers = workers_.size();
  const size_t chunk = (n + workers - 1) / workers;
  MutexLock lk(mu_);
  ranges_.resize(workers);
  for (size_t i = 0; i < workers; ++i) {
    const size_t b = std::min(n, i * chunk);
    const size_t e = std::min(n, b + chunk);
    ranges_[i] = {b, e};
  }
  fn_ = fn;
  ctx_ = ctx;
  remaining_ = workers;
  ++generation_;
  cv_start_.NotifyAll();
  while (remaining_ != 0) cv_done_.Wait(mu_);
}

}  // namespace xg
