#include "obs/kerneltimer.hpp"

#include <utility>

namespace xg::obs {

KernelTimer::KernelTimer(MetricsRegistry* registry, Clock now_us)
    : registry_(registry), now_us_(std::move(now_us)) {}

Histogram* KernelTimer::Hist(const std::string& kernel) const {
  if (registry_ == nullptr) return nullptr;
  MutexLock lk(mu_);
  auto it = hists_.find(kernel);
  if (it != hists_.end()) return it->second;
  Histogram& h = registry_->GetHistogram(kMetricName, {{"kernel", kernel}},
                                         "per-kernel hot-path execution time");
  hists_.emplace(kernel, &h);
  return &h;
}

void KernelTimer::Observe(const std::string& kernel, int64_t elapsed_us) {
  Histogram* h = Hist(kernel);
  if (h != nullptr) h->Record(elapsed_us);
}

double KernelTimer::TotalMs(const std::string& kernel) const {
  Histogram* h = Hist(kernel);
  return h != nullptr ? static_cast<double>(h->sum_us()) / 1e3 : 0.0;
}

uint64_t KernelTimer::Count(const std::string& kernel) const {
  Histogram* h = Hist(kernel);
  return h != nullptr ? h->count() : 0;
}

}  // namespace xg::obs
