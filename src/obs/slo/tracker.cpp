#include "obs/slo/tracker.hpp"

#include <cstdio>

namespace xg::obs::slo {

void SloTracker::Record(const LedgerRecord& rec) {
  if (rec.missed) ++misses_;
  if (rec.near_miss) ++near_misses_;
  switch (rec.reason) {
    case CloseReason::kDelivered:
      ++delivered_;
      break;
    case CloseReason::kFullPath:
      ++full_path_;
      break;
    default:
      ++incomplete_[static_cast<int>(rec.reason)];
      return;  // incomplete journeys do not shape the latency profile
  }
  // kSensorEmit opens the budget and by definition consumes 0; skipping it
  // keeps the breakdown to stages that can actually spend time, and the
  // per-stage sums still add exactly to the e2e total.
  for (const BudgetStamp& st : rec.budget.stamps()) {
    if (st.stage == Stage::kSensorEmit) continue;
    stage_hist_[static_cast<int>(st.stage)].Record(st.consumed_us);
  }
  e2e_hist_.Record(rec.consumed_us);
}

double SloTracker::StageBudgetShare(Stage s) const {
  const int64_t total = E2eConsumedTotalUs();
  if (total <= 0) return 0.0;
  return static_cast<double>(StageConsumedTotalUs(s)) /
         static_cast<double>(total);
}

void SloTracker::Attach(MetricsRegistry* registry) {
  if (!registry) return;
  registry->RegisterCallback(
      "xg_slo_deadline_miss_total", {},
      "Readings whose deadline budget was exceeded (incl. expired in flight)",
      [this] { return static_cast<double>(misses_); },
      MetricSample::Type::kCounter);
  registry->RegisterCallback(
      "xg_slo_near_miss_total", {},
      "Readings delivered within the near-miss fraction of their budget",
      [this] { return static_cast<double>(near_misses_); },
      MetricSample::Type::kCounter);
  registry->RegisterCallback(
      "xg_slo_completed_total", {{"path", "short"}},
      "Readings delivered without a CFD escalation",
      [this] { return static_cast<double>(delivered_); },
      MetricSample::Type::kCounter);
  registry->RegisterCallback(
      "xg_slo_completed_total", {{"path", "full"}},
      "Readings escalated through CFD to a twin update",
      [this] { return static_cast<double>(full_path_); },
      MetricSample::Type::kCounter);
  for (CloseReason r :
       {CloseReason::kFailed, CloseReason::kBuffered, CloseReason::kSkipped,
        CloseReason::kEvicted, CloseReason::kExpired}) {
    registry->RegisterCallback(
        "xg_slo_incomplete_total", {{"reason", CloseReasonName(r)}},
        "Readings closed before completing their journey",
        [this, r] { return static_cast<double>(incomplete_total(r)); },
        MetricSample::Type::kCounter);
  }
  registry->RegisterHistogramCallback(
      "xg_slo_e2e_latency_ms", {},
      "End-to-end consumed budget of completed readings",
      [this] { return e2e_hist_.Snapshot(); });
  for (Stage s : AllStages()) {
    if (s == Stage::kSensorEmit) continue;
    registry->RegisterCallback(
        "xg_slo_stage_budget_share", {{"stage", StageName(s)}},
        "Fraction of the aggregate e2e latency charged to this stage",
        [this, s] { return StageBudgetShare(s); });
    registry->RegisterHistogramCallback(
        "xg_slo_stage_latency_ms", {{"stage", StageName(s)}},
        "Budget consumed at this stage boundary per completed reading",
        [this, s] {
          return stage_hist_[static_cast<int>(s)].Snapshot();
        });
  }
}

namespace {
SloTracker::StageSummary SummarizeHist(const Histogram& h, int64_t total_us) {
  SloTracker::StageSummary s;
  s.count = h.count();
  s.p50_ms = static_cast<double>(h.Percentile(50.0)) / 1e3;
  s.p90_ms = static_cast<double>(h.Percentile(90.0)) / 1e3;
  s.p99_ms = static_cast<double>(h.Percentile(99.0)) / 1e3;
  s.p999_ms = static_cast<double>(h.Percentile(99.9)) / 1e3;
  s.max_ms = static_cast<double>(h.max_us()) / 1e3;
  s.mean_ms = h.MeanUs() / 1e3;
  s.share = total_us > 0 ? static_cast<double>(h.sum_us()) /
                               static_cast<double>(total_us)
                         : 0.0;
  return s;
}
}  // namespace

SloTracker::Summary SloTracker::Summarize() const {
  Summary out;
  const int64_t total_us = E2eConsumedTotalUs();
  double best_share = -1.0;
  for (Stage s : AllStages()) {
    if (s == Stage::kSensorEmit) continue;
    const Histogram& h = stage_hist_[static_cast<int>(s)];
    if (h.count() == 0) continue;
    StageSummary ss = SummarizeHist(h, total_us);
    ss.stage = s;
    if (ss.share > best_share) {
      best_share = ss.share;
      out.dominant_stage = s;
    }
    out.stages.push_back(ss);
  }
  out.e2e = SummarizeHist(e2e_hist_, total_us);
  out.completed = completed_total();
  out.full_path = full_path_;
  out.misses = misses_;
  out.near_misses = near_misses_;
  return out;
}

std::string SloTracker::FormatSummary() const {
  const Summary sum = Summarize();
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "%-16s %8s %12s %12s %12s %12s %7s\n", "stage", "count",
                "p50_ms", "p99_ms", "p99.9_ms", "max_ms", "share");
  out += line;
  auto row = [&](const char* name, const StageSummary& s) {
    std::snprintf(line, sizeof(line),
                  "%-16s %8llu %12.3f %12.3f %12.3f %12.3f %6.1f%%\n", name,
                  static_cast<unsigned long long>(s.count), s.p50_ms, s.p99_ms,
                  s.p999_ms, s.max_ms, s.share * 100.0);
    out += line;
  };
  for (const StageSummary& s : sum.stages) row(StageName(s.stage), s);
  row("e2e", sum.e2e);
  std::snprintf(line, sizeof(line),
                "completed=%llu full_path=%llu misses=%llu near=%llu "
                "dominant=%s\n",
                static_cast<unsigned long long>(sum.completed),
                static_cast<unsigned long long>(sum.full_path),
                static_cast<unsigned long long>(sum.misses),
                static_cast<unsigned long long>(sum.near_misses),
                sum.stages.empty() ? "none" : StageName(sum.dominant_stage));
  out += line;
  return out;
}

}  // namespace xg::obs::slo
