#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>

namespace xg::obs {

std::string SanitizeMetricName(const std::string& name) {
  std::string out = name.empty() ? std::string("_") : name;
  for (size_t i = 0; i < out.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(out[i]);
    const bool ok = std::isalpha(c) || c == '_' || (i > 0 && std::isdigit(c));
    if (!ok) out[i] = '_';
  }
  return out;
}

namespace {
Labels Canonical(const Labels& labels) {
  Labels out = labels;
  std::sort(out.begin(), out.end());
  return out;
}
}  // namespace

std::string MetricsRegistry::Key(const std::string& name,
                                 const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels,
                                     const std::string& help) {
  const std::string n = SanitizeMetricName(name);
  const Labels l = Canonical(labels);
  MutexLock lk(mu_);
  auto& e = counters_[Key(n, l)];
  if (!e.inst) {
    e.name = n;
    e.labels = l;
    e.help = help;
    e.inst = std::make_unique<Counter>();
  }
  return *e.inst;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, const Labels& labels,
                                 const std::string& help) {
  const std::string n = SanitizeMetricName(name);
  const Labels l = Canonical(labels);
  MutexLock lk(mu_);
  auto& e = gauges_[Key(n, l)];
  if (!e.inst) {
    e.name = n;
    e.labels = l;
    e.help = help;
    e.inst = std::make_unique<Gauge>();
  }
  return *e.inst;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         const std::string& help) {
  const std::string n = SanitizeMetricName(name);
  const Labels l = Canonical(labels);
  MutexLock lk(mu_);
  auto& e = histograms_[Key(n, l)];
  if (!e.inst) {
    e.name = n;
    e.labels = l;
    e.help = help;
    e.inst = std::make_unique<Histogram>();
  }
  return *e.inst;
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       const Labels& labels,
                                       const std::string& help,
                                       std::function<double()> read,
                                       MetricSample::Type type) {
  const std::string n = SanitizeMetricName(name);
  const Labels l = Canonical(labels);
  MutexLock lk(mu_);
  callbacks_[Key(n, l)] = CallbackEntry{n, l, help, std::move(read), type};
}

void MetricsRegistry::RegisterHistogramCallback(
    const std::string& name, const Labels& labels, const std::string& help,
    std::function<HistogramSnapshot()> read) {
  const std::string n = SanitizeMetricName(name);
  const Labels l = Canonical(labels);
  MutexLock lk(mu_);
  hist_callbacks_[Key(n, l)] = HistCallbackEntry{n, l, help, std::move(read)};
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  MutexLock lk(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size() +
              callbacks_.size() + hist_callbacks_.size());
  for (const auto& [key, e] : counters_) {
    MetricSample s;
    s.type = MetricSample::Type::kCounter;
    s.name = e.name;
    s.labels = e.labels;
    s.help = e.help;
    s.value = static_cast<double>(e.inst->value());
    out.push_back(std::move(s));
  }
  for (const auto& [key, e] : gauges_) {
    MetricSample s;
    s.type = MetricSample::Type::kGauge;
    s.name = e.name;
    s.labels = e.labels;
    s.help = e.help;
    s.value = e.inst->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, e] : histograms_) {
    MetricSample s;
    s.type = MetricSample::Type::kHistogram;
    s.name = e.name;
    s.labels = e.labels;
    s.help = e.help;
    s.hist = e.inst->Snapshot();
    out.push_back(std::move(s));
  }
  for (const auto& [key, e] : hist_callbacks_) {
    MetricSample s;
    s.type = MetricSample::Type::kHistogram;
    s.name = e.name;
    s.labels = e.labels;
    s.help = e.help;
    s.hist = e.read ? e.read() : HistogramSnapshot{};
    out.push_back(std::move(s));
  }
  for (const auto& [key, e] : callbacks_) {
    MetricSample s;
    s.type = e.type;
    s.name = e.name;
    s.labels = e.labels;
    s.help = e.help;
    s.value = e.read ? e.read() : 0.0;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

size_t MetricsRegistry::instrument_count() const {
  MutexLock lk(mu_);
  return counters_.size() + gauges_.size() + histograms_.size() +
         callbacks_.size() + hist_callbacks_.size();
}

}  // namespace xg::obs
