// The xGFabric change-detection program (paper Sections 3.7 / 4.2).
//
// Commodity agricultural weather stations are noisy enough that consecutive
// readings are often statistically indistinguishable; recomputing the CFD
// on every report would waste HPC resources on results identical to the
// previous ones. The Laminar change-detection program therefore compares
// the most recent 6 telemetry values (30 minutes at the 5-minute reporting
// interval) with the previous 30-minute window using three tests of
// statistical difference, and a voting rule arbitrates between them.
#pragma once

#include <span>
#include <string>

#include "laminar/program.hpp"
#include "laminar/stats_tests.hpp"

namespace xg::laminar {

struct ChangeDetectorConfig {
  size_t window = 6;      ///< samples per side (30 min at 5-min cadence)
  double alpha = 0.05;    ///< per-test significance level
  int votes_needed = 2;   ///< tests that must reject (k-of-3 voting)
};

struct ChangeDecision {
  bool enough_data = false;
  bool changed = false;
  int votes = 0;
  TestOutcome welch;
  TestOutcome mann_whitney;
  TestOutcome kolmogorov_smirnov;

  /// Deterministic one-liner for audit trails (flight recorder, logs):
  ///   changed votes=2 welch=0.003 mw=0.012 ks=0.081
  std::string Describe() const;
};

class ChangeDetector {
 public:
  explicit ChangeDetector(ChangeDetectorConfig config = ChangeDetectorConfig{})
      : config_(config) {}

  const ChangeDetectorConfig& config() const { return config_; }

  /// Compare the last `window` samples of `series` against the `window`
  /// samples before them. Requires series.size() >= 2*window. Reads the
  /// windows in place; once the detector's scratch has grown to them, an
  /// evaluation allocates nothing.
  ChangeDecision Evaluate(std::span<const double> series);

  /// Compare two explicit windows.
  ChangeDecision Compare(std::span<const double> previous,
                         std::span<const double> recent);

 private:
  ChangeDetectorConfig config_;
  RankScratch scratch_;
};

/// Handles built by BuildChangeDetectionProgram.
struct ChangeDetectionGraph {
  int source = -1;  ///< inject telemetry scalars here, one per iteration
  int window = -1;  ///< sliding 2*window vector
  int decision = -1;///< bool output: conditions changed
  int alert = -1;   ///< sink id
};

/// Wire the change detector as a Laminar dataflow:
///   source(telemetry)@ingest_host -> window(2n)@detect_host
///   -> map(three tests + vote)@detect_host -> filter(changed)
///   -> sink(alert)@detect_host
/// The paper deploys ingest within the 5G network at UNL and the tests and
/// voting at UCSB; hosts are parameters so either split can be exercised.
ChangeDetectionGraph BuildChangeDetectionProgram(
    Program& program, const std::string& ingest_host,
    const std::string& detect_host, ChangeDetectorConfig config,
    SinkFn on_alert);

}  // namespace xg::laminar
