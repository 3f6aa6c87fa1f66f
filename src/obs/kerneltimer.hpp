// Per-kernel hot-path timing.
//
// Compute engines (today: the CFD solver) expose where a step spends its
// time by recording each kernel's elapsed microseconds into an
// obs::Histogram the timer owns, exported through the registry (if any)
// as `xg_cfd_kernel_ms{kernel="advect"|...}`. Like Tracer, the
// KernelTimer never reads a host clock itself: the clock is injected, so
// simulation code binds the virtual clock (or attaches no timer at all and
// pays nothing) while benchmarks bind a host monotonic clock and measure
// real wall time. The histogram's integer-microsecond sum and count give
// exact per-kernel totals and means, which is what the kernel benchmark
// exports.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/mutex.hpp"
#include "obs/metrics.hpp"

namespace xg::obs {

class KernelTimer {
 public:
  /// Returns "now" in microseconds on whatever clock the caller measures
  /// kernels against. Must be monotonic within one timed region.
  using Clock = std::function<int64_t()>;

  /// Histogram family every kernel records into, labeled by kernel name.
  static constexpr const char* kMetricName = "xg_cfd_kernel_ms";

  /// `registry` may be null. Otherwise the timer registers a view of each
  /// kernel's histogram there, so the timer must outlive every later
  /// Snapshot() of that registry.
  KernelTimer(MetricsRegistry* registry, Clock now_us);

  int64_t NowUs() const { return now_us_ ? now_us_() : 0; }

  /// Record one kernel execution of `elapsed_us` microseconds.
  void Observe(const std::string& kernel, int64_t elapsed_us);

  /// Total recorded milliseconds / executions for a kernel (0 if never
  /// observed). Convenience for benchmarks reading their own timings back.
  double TotalMs(const std::string& kernel) const;
  uint64_t Count(const std::string& kernel) const;

 private:
  const Histogram* Find(const std::string& kernel) const;

  MetricsRegistry* registry_;  ///< immutable after construction
  Clock now_us_;               ///< immutable after construction
  mutable Mutex mu_;
  /// One histogram per kernel; map nodes are pointer-stable, so the
  /// registry's views of them stay valid.
  std::map<std::string, Histogram> hists_ XG_GUARDED_BY(mu_);
};

/// RAII scope that times one kernel execution. A null timer is a no-op, so
/// hot paths carry a single pointer test when timing is detached.
class KernelScope {
 public:
  KernelScope(KernelTimer* timer, const char* kernel)
      : timer_(timer), kernel_(kernel),
        start_us_(timer != nullptr ? timer->NowUs() : 0) {}
  ~KernelScope() {
    if (timer_ != nullptr) timer_->Observe(kernel_, timer_->NowUs() - start_us_);
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  KernelTimer* timer_;
  const char* kernel_;
  int64_t start_us_;
};

}  // namespace xg::obs
