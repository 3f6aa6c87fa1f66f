#include "laminar/change_detect.hpp"

#include <cstdio>

namespace xg::laminar {

std::string ChangeDecision::Describe() const {
  if (!enough_data) return "insufficient data";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "%s votes=%d welch=%.3f mw=%.3f ks=%.3f",
                changed ? "changed" : "unchanged", votes, welch.p_value,
                mann_whitney.p_value, kolmogorov_smirnov.p_value);
  return buf;
}

ChangeDecision ChangeDetector::Compare(std::span<const double> previous,
                                       std::span<const double> recent) {
  ChangeDecision d;
  if (previous.size() < 2 || recent.size() < 2) return d;
  d.enough_data = true;
  d.welch = WelchTTest(previous, recent);
  d.mann_whitney = MannWhitneyU(previous, recent, scratch_);
  d.kolmogorov_smirnov = KolmogorovSmirnov(previous, recent, scratch_);
  d.votes = static_cast<int>(d.welch.reject(config_.alpha)) +
            static_cast<int>(d.mann_whitney.reject(config_.alpha)) +
            static_cast<int>(d.kolmogorov_smirnov.reject(config_.alpha));
  d.changed = d.votes >= config_.votes_needed;
  return d;
}

ChangeDecision ChangeDetector::Evaluate(std::span<const double> series) {
  const size_t n = config_.window;
  if (series.size() < 2 * n) return ChangeDecision{};
  return Compare(series.subspan(series.size() - 2 * n, n), series.last(n));
}

ChangeDetectionGraph BuildChangeDetectionProgram(
    Program& program, const std::string& ingest_host,
    const std::string& detect_host, ChangeDetectorConfig config,
    SinkFn on_alert) {
  ChangeDetectionGraph g;
  g.source = program.AddSource("telemetry", ingest_host, ValueType::kDouble);
  g.window = program.AddWindow("window", detect_host, g.source,
                               2 * config.window);
  ChangeDetector detector(config);
  g.decision = program.AddMap(
      "vote", detect_host, g.window, ValueType::kBool,
      [detector](const Value& v) mutable {
        const auto& series = v.AsVector();
        return Value(detector.Evaluate(series).changed);
      });
  const int only_changed = program.AddFilter(
      "changed", detect_host, g.decision,
      [](const Value& v) { return v.AsBool(); });
  g.alert = program.AddSink("alert", detect_host, only_changed,
                            std::move(on_alert));
  return g;
}

}  // namespace xg::laminar
