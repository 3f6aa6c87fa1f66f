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

void MetricsRegistry::Register(View view) {
  view.name = SanitizeMetricName(view.name);
  std::sort(view.labels.begin(), view.labels.end());
  std::string key = view.name;
  for (const auto& [k, v] : view.labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  views_[key] = std::move(view);
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(views_.size());
  for (const auto& [key, v] : views_) {
    MetricSample s;
    s.type = v.type;
    s.name = v.name;
    s.labels = v.labels;
    s.help = v.help;
    if (v.hist != nullptr) {
      s.hist = v.hist->Snapshot();
    } else {
      s.value = v.read();
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

}  // namespace xg::obs
