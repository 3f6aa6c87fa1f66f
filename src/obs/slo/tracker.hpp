// SLO tracker: the aggregate side of deadline accounting.
//
// Consumes closed LedgerRecords and maintains, per stage, an HDR-style
// obs::Histogram of consumed time plus the running budget-share breakdown
// (what fraction of the total end-to-end latency each stage is
// responsible for — the per-stage sums add exactly to the e2e sum by
// construction of DeadlineBudget). Exposed three ways:
//
//   - Attach(registry): xg_slo_* series in the Prometheus/JSON export
//       xg_slo_deadline_miss_total / xg_slo_near_miss_total
//       xg_slo_completed_total{path=short|full}
//       xg_slo_incomplete_total{reason=...}
//       xg_slo_stage_budget_share{stage=...}       (gauge in [0,1])
//       xg_slo_stage_latency_ms{stage=...}         (histogram)
//       xg_slo_e2e_latency_ms                      (histogram)
//   - Summarize(): structured per-stage p50/p90/p99/p99.9/max + share,
//     used by bench_e2e and the xgtop snapshot mode;
//   - FormatSummary(): the deterministic table xgtop renders.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/slo/ledger.hpp"

namespace xg::obs::slo {

class XG_SIM_THREAD_CONFINED SloTracker {
 public:
  /// Register the xg_slo_* series. The registry (or nullptr) must outlive
  /// this tracker; callbacks read the tracker at snapshot time.
  void Attach(MetricsRegistry* registry);

  /// Absorb one closed record (wired as the ledger's on_close hook).
  void Record(const LedgerRecord& rec);

  uint64_t deadline_miss_total() const { return misses_; }
  uint64_t near_miss_total() const { return near_misses_; }
  uint64_t completed_total() const { return delivered_ + full_path_; }
  uint64_t full_path_total() const { return full_path_; }
  uint64_t incomplete_total(CloseReason r) const {
    return incomplete_[static_cast<int>(r)];
  }

  const Histogram& StageHistogram(Stage s) const {
    return stage_hist_[static_cast<int>(s)];
  }
  const Histogram& E2eHistogram() const { return e2e_hist_; }

  /// Total budget consumed by `stage` across completed records, us.
  int64_t StageConsumedTotalUs(Stage s) const {
    return stage_hist_[static_cast<int>(s)].sum_us();
  }
  int64_t E2eConsumedTotalUs() const { return e2e_hist_.sum_us(); }
  /// Fraction of the end-to-end total charged to `stage` (0 when idle).
  double StageBudgetShare(Stage s) const;

  struct StageSummary {
    Stage stage = Stage::kSensorEmit;
    uint64_t count = 0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    double max_ms = 0.0;
    double mean_ms = 0.0;
    double share = 0.0;  ///< of the e2e consumed total
  };
  struct Summary {
    std::vector<StageSummary> stages;  ///< stamped stages, pipeline order
    StageSummary e2e;                  ///< share == 1 when any completed
    uint64_t completed = 0;
    uint64_t full_path = 0;
    uint64_t misses = 0;
    uint64_t near_misses = 0;
    /// Stage with the largest aggregate budget share.
    Stage dominant_stage = Stage::kSensorEmit;
  };
  Summary Summarize() const;

  /// Deterministic fixed-width per-stage table (the xgtop main panel).
  std::string FormatSummary() const;

 private:
  Histogram stage_hist_[kStageCount];
  Histogram e2e_hist_;
  uint64_t delivered_ = 0;
  uint64_t full_path_ = 0;
  uint64_t misses_ = 0;
  uint64_t near_misses_ = 0;
  uint64_t incomplete_[kCloseReasonCount] = {};
};

}  // namespace xg::obs::slo
