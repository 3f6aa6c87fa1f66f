#include "obs/kerneltimer.hpp"

#include <utility>

namespace xg::obs {

KernelTimer::KernelTimer(MetricsRegistry* registry, Clock now_us)
    : registry_(registry), now_us_(std::move(now_us)) {}

void KernelTimer::Observe(const std::string& kernel, int64_t elapsed_us) {
  MutexLock lk(mu_);
  auto [it, inserted] = hists_.try_emplace(kernel);
  if (inserted && registry_ != nullptr) {
    registry_->RegisterHistogram(kMetricName, {{"kernel", kernel}},
                                 "per-kernel hot-path execution time",
                                 &it->second);
  }
  it->second.Record(elapsed_us);
}

const Histogram* KernelTimer::Find(const std::string& kernel) const {
  MutexLock lk(mu_);
  auto it = hists_.find(kernel);
  return it != hists_.end() ? &it->second : nullptr;
}

double KernelTimer::TotalMs(const std::string& kernel) const {
  const Histogram* h = Find(kernel);
  return h != nullptr ? static_cast<double>(h->sum_us()) / 1e3 : 0.0;
}

uint64_t KernelTimer::Count(const std::string& kernel) const {
  const Histogram* h = Find(kernel);
  return h != nullptr ? h->count() : 0;
}

}  // namespace xg::obs
