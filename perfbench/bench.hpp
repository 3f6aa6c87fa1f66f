// Shared pieces of the repo benchmark: run options, the metric tables a
// workload fills in, the virtual-output hash, and host helpers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Command-line options; xgbench requires all but trace_out.
struct Options {
  std::string workload;
  uint64_t seed;
  double seconds;
  bool trace;
  std::string trace_out;  ///< Chrome trace file of the traced pass
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit) table; Set overwrites by name.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : all_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    all_.push_back({name, value, unit});
  }
  const std::vector<Metric>& all() const { return all_; }

 private:
  std::vector<Metric> all_;
};

/// What one workload run produced. `e2e` holds the end-to-end metrics every
/// workload reports (BENCHMARK.json's end_to_end); `report` the other
/// end-to-end figures: the ones only some workloads have (virtual outputs,
/// tail percentiles) and unit_wall_ms_p50, whose run-to-run spread on a
/// host with drifting speed is too wide for a regression gate; `layers` the
/// traced run's per-layer split. `bypassed` names the per-layer metrics the
/// workload does not exercise, by name prefix; run.py reports those as 0
/// and flags any other per-layer metric the workload left unset.
struct Outcome {
  Metrics e2e;
  Metrics report;
  Metrics layers;
  std::vector<std::string> bypassed;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Records a failed check once, however many units fail it.
  void Check(bool ok, const std::string& what) {
    if (!ok && std::find(errors.begin(), errors.end(), what) == errors.end()) {
      errors.push_back(what);
    }
  }
  void AddSelfTimes(const SpanRecorder& rec, double untraced_ms,
                    double traced_ms) {
    for (size_t l = 0; l < kLayerCount; ++l) {
      const Layer layer = static_cast<Layer>(l);
      layers.Set(std::string("self_ms.") + LayerName(layer), rec.SelfMs(layer),
                 "ms");
    }
    layers.Set("trace.spans", static_cast<double>(rec.closed()), "count");
    layers.Set("trace.overhead_ms", traced_ms - untraced_ms, "ms");
  }
};

/// FNV-1a over the virtual outputs of a unit; doubles hash by bit pattern.
class Fnv {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Add(&v, sizeof v); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// SplitMix64 step: derives the seed of unit `i` from the run seed.
inline uint64_t UnitSeed(uint64_t seed, uint64_t i) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Peak resident set of this process image. VmHWM, unlike ru_maxrss,
/// does not carry over the parent's peak across fork and exec.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;  // unknown; run.py rejects a zero end-to-end metric
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Reports an exact percentile into `target` and checks it against the
/// samples' max.
inline void ReportPct(Outcome& o, Metrics& target, const std::string& name,
                      const std::vector<double>& samples, double q,
                      const std::string& unit) {
  const std::optional<double> p = Percentile(samples, q);
  o.Check(p.has_value(), name + ": no samples");
  if (!p) return;
  o.Check(*p <= *std::max_element(samples.begin(), samples.end()),
          name + " exceeds its max");
  target.Set(name, *p, unit);
}

Outcome RunDay(const Options& opt, bool full);
Outcome RunServeDrift(const Options& opt);

}  // namespace perfbench
