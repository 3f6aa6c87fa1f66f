#include "obs/slo/ledger.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>

namespace xg::obs::slo {

const char* CloseReasonName(CloseReason r) {
  switch (r) {
    case CloseReason::kDelivered: return "delivered";
    case CloseReason::kFullPath: return "full_path";
    case CloseReason::kFailed: return "failed";
    case CloseReason::kBuffered: return "buffered";
    case CloseReason::kSkipped: return "skipped";
    case CloseReason::kEvicted: return "evicted";
    case CloseReason::kExpired: return "expired";
  }
  return "?";
}

namespace {
constexpr auto kByTraceId = [](const auto& entry, uint64_t trace_id) {
  return entry.first < trace_id;
};
}  // namespace

std::vector<LatencyLedger::OpenEntry>::iterator LatencyLedger::LowerBound(
    uint64_t trace_id) {
  return std::lower_bound(open_.begin(), open_.end(), trace_id, kByTraceId);
}

const DeadlineBudget* LatencyLedger::FindOpen(uint64_t trace_id) const {
  const auto it =
      std::lower_bound(open_.begin(), open_.end(), trace_id, kByTraceId);
  return it != open_.end() && it->first == trace_id ? &it->second : nullptr;
}

void LatencyLedger::Open(uint64_t trace_id, int64_t now_us) {
  if (trace_id == 0) return;
  if (FindOpen(trace_id) != nullptr) return;
  if (open_.size() >= kMaxInFlight) {
    // Evict the record opened earliest (ties cannot occur: one reading
    // per virtual instant opens a budget).
    auto oldest = open_.begin();
    for (auto it = open_.begin(); it != open_.end(); ++it) {
      if (it->second.opened_us() < oldest->second.opened_us()) oldest = it;
    }
    const OpenEntry evicted = *oldest;
    open_.erase(oldest);
    Finalize(evicted.first, evicted.second, CloseReason::kEvicted);
  }
  open_.emplace(LowerBound(trace_id), trace_id,
                DeadlineBudget(now_us, kDeadlineUs));
  ++opened_total_;
}

bool LatencyLedger::Stamp(uint64_t trace_id, Stage stage, int64_t at_us) {
  if (trace_id == 0) return false;
  const auto it = LowerBound(trace_id);
  if (it == open_.end() || it->first != trace_id) return false;
  return it->second.StampAt(stage, at_us);
}

bool LatencyLedger::Escalated(uint64_t trace_id) const {
  const DeadlineBudget* budget = FindOpen(trace_id);
  return budget != nullptr && budget->stamped(Stage::kLaminarTrigger);
}

void LatencyLedger::Close(uint64_t trace_id, CloseReason reason) {
  const auto it = LowerBound(trace_id);
  if (it == open_.end() || it->first != trace_id) return;
  DeadlineBudget budget = it->second;
  open_.erase(it);
  Finalize(trace_id, budget, reason);
}

bool LatencyLedger::CloseIfIdle(uint64_t trace_id, CloseReason reason) {
  const auto it = LowerBound(trace_id);
  if (it == open_.end() || it->first != trace_id ||
      it->second.stamped(Stage::kLaminarTrigger)) {
    return false;
  }
  DeadlineBudget budget = it->second;
  open_.erase(it);
  Finalize(trace_id, budget, reason);
  return true;
}

size_t LatencyLedger::SweepExpired(int64_t now_us) {
  std::vector<uint64_t> expired;
  for (const auto& [id, budget] : open_) {
    if (budget.MissedAt(now_us)) expired.push_back(id);
  }
  for (uint64_t id : expired) Close(id, CloseReason::kExpired);
  return expired.size();
}

void LatencyLedger::Finalize(uint64_t trace_id, DeadlineBudget budget,
                             CloseReason reason) {
  LedgerRecord rec;
  rec.trace_id = trace_id;
  rec.reason = reason;
  rec.closed_us = budget.LastStampUs();
  rec.consumed_us = budget.ConsumedUs(rec.closed_us);
  // Completed journeys are judged at their last stamp; an expired record
  // missed by definition (the clock passed its deadline while in flight).
  // Failed / buffered / evicted journeys never finished, so they are
  // accounted by reason rather than as deadline misses.
  const bool completed =
      reason == CloseReason::kDelivered || reason == CloseReason::kFullPath;
  if (completed) {
    rec.missed = budget.MissedAt(rec.closed_us);
    rec.near_miss = budget.NearMissAt(rec.closed_us, kNearMissFraction);
  } else if (reason == CloseReason::kExpired) {
    rec.missed = true;
  }
  rec.budget = std::move(budget);

  ++closed_total_;
  ++closed_by_reason_[static_cast<int>(reason)];
  if (rec.missed) ++missed_total_;
  if (rec.near_miss) ++near_miss_total_;
  // Only completed journeys shape the latency profile. kSensorEmit opens
  // the budget and by definition consumes 0; skipping it keeps the
  // breakdown to stages that can actually spend time, and the per-stage
  // sums still add exactly to the e2e total. Each stamped stage consumed
  // the time since the previous stamped one (DeadlineBudget::stamps()).
  if (completed) {
    int64_t prev_us = rec.budget.opened_us_;
    for (int i = 0; i < kStageCount; ++i) {
      const int64_t at_us = rec.budget.at_us_[i];
      if (at_us < 0) continue;
      if (i != static_cast<int>(Stage::kSensorEmit)) {
        stage_hist_[i].Record(at_us - prev_us);
      }
      prev_us = at_us;
    }
    e2e_hist_.Record(rec.consumed_us);
  }

  if (recent_.size() < kRecentCapacity) {
    if (recent_.empty()) recent_.reserve(kRecentCapacity);
    recent_.push_back(rec);
  } else {
    recent_[recent_next_] = rec;
    recent_next_ = (recent_next_ + 1) % kRecentCapacity;
  }
  if (on_close_) on_close_(rec);
}

std::vector<LedgerRecord> LatencyLedger::recent() const {
  std::vector<LedgerRecord> out(
      recent_.begin() + static_cast<std::ptrdiff_t>(recent_next_),
      recent_.end());
  out.insert(out.end(), recent_.begin(),
             recent_.begin() + static_cast<std::ptrdiff_t>(recent_next_));
  return out;
}

std::vector<LatencyLedger::InFlightView> LatencyLedger::WorstInFlight(
    size_t n, int64_t now_us) const {
  std::vector<InFlightView> all;
  all.reserve(open_.size());
  for (const auto& [id, budget] : open_) {
    InFlightView v;
    v.trace_id = id;
    v.last_stage = budget.LastStage();
    v.opened_us = budget.opened_us();
    v.consumed_us = budget.ConsumedUs(now_us);
    v.remaining_us = budget.RemainingUs(now_us);
    all.push_back(v);
  }
  std::sort(all.begin(), all.end(),
            [](const InFlightView& a, const InFlightView& b) {
              if (a.remaining_us != b.remaining_us) {
                return a.remaining_us < b.remaining_us;
              }
              return a.trace_id < b.trace_id;
            });
  if (all.size() > n) all.resize(n);
  return all;
}

std::string LatencyLedger::FormatRecord(const LedgerRecord& rec) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "trace=%llu reason=%s consumed=%.6fs budget=%.0fs miss=%d "
                "near=%d stages:",
                static_cast<unsigned long long>(rec.trace_id),
                CloseReasonName(rec.reason),
                static_cast<double>(rec.consumed_us) / 1e6,
                static_cast<double>(rec.budget.budget_us()) / 1e6,
                rec.missed ? 1 : 0, rec.near_miss ? 1 : 0);
  std::string out = head;
  for (const BudgetStamp& st : rec.budget.stamps()) {
    char part[96];
    std::snprintf(part, sizeof(part), " %s=%.6fs", StageName(st.stage),
                  static_cast<double>(st.consumed_us) / 1e6);
    out += part;
  }
  return out;
}

std::string LatencyLedger::FormatRecent() const {
  std::string out;
  for (size_t k = 0; k < recent_.size(); ++k) {
    out += FormatRecord(recent_[(recent_next_ + k) % recent_.size()]);
    out += '\n';
  }
  return out;
}

double LatencyLedger::StageBudgetShare(Stage s) const {
  const int64_t total = e2e_hist_.sum_us();
  if (total <= 0) return 0.0;
  return static_cast<double>(StageHistogram(s).sum_us()) /
         static_cast<double>(total);
}

void LatencyLedger::Attach(MetricsRegistry* registry) {
  if (!registry) return;
  registry->RegisterCounter(
      "xg_slo_deadline_miss_total", {},
      "Readings whose deadline budget was exceeded (incl. expired in flight)",
      &missed_total_);
  registry->RegisterCounter(
      "xg_slo_near_miss_total", {},
      "Readings delivered within the near-miss fraction of their budget",
      &near_miss_total_);
  registry->RegisterCounter(
      "xg_slo_completed_total", {{"path", "short"}},
      "Readings delivered without a CFD escalation",
      &closed_by_reason_[static_cast<int>(CloseReason::kDelivered)]);
  registry->RegisterCounter(
      "xg_slo_completed_total", {{"path", "full"}},
      "Readings escalated through CFD to a twin update",
      &closed_by_reason_[static_cast<int>(CloseReason::kFullPath)]);
  for (CloseReason r :
       {CloseReason::kFailed, CloseReason::kBuffered, CloseReason::kSkipped,
        CloseReason::kEvicted, CloseReason::kExpired}) {
    registry->RegisterCounter(
        "xg_slo_incomplete_total", {{"reason", CloseReasonName(r)}},
        "Readings closed before completing their journey",
        &closed_by_reason_[static_cast<int>(r)]);
  }
  registry->RegisterHistogram(
      "xg_slo_e2e_latency_ms", {},
      "End-to-end consumed budget of completed readings", &e2e_hist_);
  for (Stage s : AllStages()) {
    if (s == Stage::kSensorEmit) continue;
    registry->RegisterCallback(
        "xg_slo_stage_budget_share", {{"stage", StageName(s)}},
        "Fraction of the aggregate e2e latency charged to this stage",
        [this, s] { return StageBudgetShare(s); });
    registry->RegisterHistogram(
        "xg_slo_stage_latency_ms", {{"stage", StageName(s)}},
        "Budget consumed at this stage boundary per completed reading",
        &StageHistogram(s));
  }
}

namespace {
LatencyLedger::StageSummary SummarizeHist(const Histogram& h,
                                          int64_t total_us) {
  LatencyLedger::StageSummary s;
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

LatencyLedger::Summary LatencyLedger::Summarize() const {
  Summary out;
  const int64_t total_us = e2e_hist_.sum_us();
  double best_share = -1.0;
  for (Stage s : AllStages()) {
    if (s == Stage::kSensorEmit) continue;
    const Histogram& h = StageHistogram(s);
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
  out.full_path = closed_by_reason(CloseReason::kFullPath);
  out.completed = closed_by_reason(CloseReason::kDelivered) + out.full_path;
  out.misses = missed_total_;
  out.near_misses = near_miss_total_;
  return out;
}

std::string LatencyLedger::FormatSummary() const {
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
