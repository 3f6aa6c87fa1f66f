// Cross-layer metrics registry (observability pillar 1).
//
// Each component of the fabric (the CSPOT runtime, the 5G core, the pilot
// controller, the batch scheduler, the Fabric itself) keeps its own
// counters and histograms, which stay the single source of truth. The
// registry names that state and owns none of it: it is one map of
// read-only views, identified by (name, labels), that one exporter pass
// reads. RegisterCounter views a uint64 field, RegisterHistogram an
// obs::Histogram (exported in ms with Prometheus `le` buckets), and
// RegisterCallback computes a scalar at snapshot time. Registering an
// identity again replaces its view.
//
// Lifetime rule: whatever a view points at (the field, the histogram,
// everything a callback captures) must outlive every later Snapshot().
// The registry only reads the viewed state, and like that state it
// belongs to the fabric's thread (XG_SIM_THREAD_CONFINED): exporters read
// it between events, on that thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/histogram.hpp"

namespace xg::obs {

using Labels = std::vector<std::pair<std::string, std::string>>;

/// One exported metric, produced by MetricsRegistry::Snapshot().
struct MetricSample {
  enum class Type { kCounter, kGauge, kHistogram };
  Type type = Type::kGauge;
  std::string name;
  Labels labels;
  std::string help;
  double value = 0.0;       ///< counter / gauge
  HistogramSnapshot hist;   ///< histogram only
};

/// Normalize a metric name to the convention `[a-zA-Z_][a-zA-Z0-9_]*`
/// (offending characters become '_'). Convention: `xg_<component>_<what>`
/// with `_total` suffix for counters and unit suffixes (_ms, _seconds,
/// _bytes) spelled out — see DESIGN.md "Observability".
std::string SanitizeMetricName(const std::string& name);

class XG_SIM_THREAD_CONFINED MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// `read` runs at snapshot time and must not call into this registry.
  void RegisterCallback(const std::string& name, const Labels& labels,
                        const std::string& help, std::function<double()> read,
                        MetricSample::Type type = MetricSample::Type::kGauge) {
    Register({type, name, labels, help, std::move(read), nullptr});
  }

  /// Counter view of a component-owned field.
  void RegisterCounter(const std::string& name, const Labels& labels,
                       const std::string& help, const uint64_t* value) {
    Register({MetricSample::Type::kCounter, name, labels, help,
              [value] { return static_cast<double>(*value); }, nullptr});
  }

  /// Histogram view of a component-owned distribution.
  void RegisterHistogram(const std::string& name, const Labels& labels,
                         const std::string& help, const Histogram* hist) {
    Register({MetricSample::Type::kHistogram, name, labels, help, {}, hist});
  }

  /// Reads every view, sorted by (name, labels) for deterministic export
  /// output. Histograms are read via Histogram::Snapshot().
  std::vector<MetricSample> Snapshot() const;

 private:
  struct View {
    MetricSample::Type type;
    std::string name;
    Labels labels;
    std::string help;
    std::function<double()> read;  ///< scalar views
    const Histogram* hist;         ///< histogram views
  };

  void Register(View view);

  std::map<std::string, View> views_;
};

}  // namespace xg::obs
