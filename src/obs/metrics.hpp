// Cross-layer metrics registry (observability pillar 1).
//
// Every component of the fabric — the CSPOT runtime, the 5G core, the
// pilot controller, the batch scheduler, the Fabric assembly itself —
// registers its instruments here so one exporter pass can observe the
// whole system. Three instrument kinds:
//
//   Counter    monotonic uint64 (e.g. cspot_retries_total);
//   Gauge      settable double (e.g. hpc_free_nodes);
//   Histogram  bounded-memory microsecond distribution (obs/histogram.hpp),
//              exported in milliseconds with Prometheus `le` buckets.
//
// Instruments are identified by (name, labels); the same call with the
// same identity returns the same instrument, so call sites can look up
// lazily. Updates are lock-free atomics; registration and Snapshot() take
// the registry mutex. References returned by Get* stay valid for the
// registry's lifetime.
//
// Components whose counters predate this layer (RuntimeCounters,
// FabricMetrics, ...) mirror them via RegisterCallback: the existing
// struct stays the single source of truth and the registry reads it at
// snapshot time — no duplicated bookkeeping.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "obs/histogram.hpp"

namespace xg::obs {

using Labels = std::vector<std::pair<std::string, std::string>>;

/// Lock-free add for atomic<double> (CAS loop; fetch_add on floating
/// atomics is C++20 and not yet universal).
inline void AtomicAdd(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double d) { AtomicAdd(v_, d); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

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

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");
  Histogram& GetHistogram(const std::string& name, const Labels& labels = {},
                          const std::string& help = "");

  /// Mirror an externally-owned value: `read` is evaluated at snapshot
  /// time. The callback must outlive the registry; it must not call back
  /// into this registry.
  void RegisterCallback(const std::string& name, const Labels& labels,
                        const std::string& help, std::function<double()> read,
                        MetricSample::Type type = MetricSample::Type::kGauge);

  /// Mirror an externally-owned distribution (e.g. an SLO stage Histogram):
  /// `read` produces a full HistogramSnapshot at snapshot time. Same
  /// lifetime rules as RegisterCallback.
  void RegisterHistogramCallback(const std::string& name, const Labels& labels,
                                 const std::string& help,
                                 std::function<HistogramSnapshot()> read);

  /// Consistent view for exporters: scalar instruments are read with
  /// relaxed atomics (each value exact at its own read point) and
  /// histograms via Histogram::Snapshot(), so bucket counts always
  /// sum to the reported count even while writers keep mutating. Sorted
  /// by (name, labels) for deterministic export output.
  std::vector<MetricSample> Snapshot() const;

  size_t instrument_count() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::string help;
    std::unique_ptr<T> inst;
  };
  struct CallbackEntry {
    std::string name;
    Labels labels;
    std::string help;
    std::function<double()> read;
    MetricSample::Type type;
  };
  struct HistCallbackEntry {
    std::string name;
    Labels labels;
    std::string help;
    std::function<HistogramSnapshot()> read;
  };

  static std::string Key(const std::string& name, const Labels& labels);

  // Registration and snapshot hold mu_; the instruments themselves are
  // lock-free atomics, so references returned by Get* are written to
  // without the lock by design (std::map nodes are pointer-stable).
  mutable Mutex mu_;
  std::map<std::string, Entry<Counter>> counters_ XG_GUARDED_BY(mu_);
  std::map<std::string, Entry<Gauge>> gauges_ XG_GUARDED_BY(mu_);
  std::map<std::string, Entry<Histogram>> histograms_ XG_GUARDED_BY(mu_);
  std::map<std::string, CallbackEntry> callbacks_ XG_GUARDED_BY(mu_);
  std::map<std::string, HistCallbackEntry> hist_callbacks_ XG_GUARDED_BY(mu_);
};

}  // namespace xg::obs
