#include "obs/slo/flight.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace xg::obs::slo {

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendKey(std::string& out, const char* key) {
  AppendEscaped(out, key);
  out += ':';
}

void AppendInt(std::string& out, const char* key, int64_t v) {
  AppendKey(out, key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void AppendStr(std::string& out, const char* key, const std::string& v) {
  AppendKey(out, key);
  AppendEscaped(out, v);
}

void AppendBool(std::string& out, const char* key, bool v) {
  AppendKey(out, key);
  out += v ? "true" : "false";
}

void AppendRecord(std::string& out, const LedgerRecord& rec) {
  out += '{';
  AppendInt(out, "trace_id", static_cast<int64_t>(rec.trace_id));
  out += ',';
  AppendStr(out, "reason", CloseReasonName(rec.reason));
  out += ',';
  AppendInt(out, "consumed_us", rec.consumed_us);
  out += ',';
  AppendInt(out, "budget_us", rec.budget.budget_us());
  out += ',';
  AppendBool(out, "missed", rec.missed);
  out += ',';
  AppendBool(out, "near_miss", rec.near_miss);
  out += ',';
  AppendStr(out, "dominant_stage", StageName(rec.budget.DominantStage()));
  out += ',';
  AppendKey(out, "stages");
  out += '[';
  bool first = true;
  for (const BudgetStamp& st : rec.budget.stamps()) {
    if (!first) out += ',';
    first = false;
    out += '{';
    AppendStr(out, "stage", StageName(st.stage));
    out += ',';
    AppendInt(out, "at_us", st.at_us);
    out += ',';
    AppendInt(out, "consumed_us", st.consumed_us);
    out += '}';
  }
  out += "]}";
}

}  // namespace

FlightRecorder::~FlightRecorder() { DisarmContractTrigger(); }

void FlightRecorder::OnRecordClosed(const LedgerRecord& rec) {
  if (rec.missed) Dump("deadline_miss", LatencyLedger::FormatRecord(rec));
}

void FlightRecorder::Note(const std::string& source,
                          const std::string& detail) {
  FlightEvent ev;
  ev.at_us = clock_ ? clock_() : 0;
  ev.source = source;
  ev.detail = detail;
  events_.push_back(std::move(ev));
  while (events_.size() > kEventCapacity) events_.pop_front();
}

void FlightRecorder::ArmContractTrigger() {
  if (contract_armed_) return;
  contract_token_ =
      contract::AddViolationListener([this](const contract::Violation& v) {
        Dump("contract_violation",
             std::string(contract::KindName(v.kind)) + " " + v.condition +
                 " at " + v.file + ":" + std::to_string(v.line));
      });
  contract_armed_ = true;
}

void FlightRecorder::DisarmContractTrigger() {
  if (!contract_armed_) return;
  contract::RemoveViolationListener(contract_token_);
  contract_armed_ = false;
}

std::string FlightRecorder::Dump(const std::string& trigger,
                                 const std::string& detail) {
  if (dumping_) return last_dump_;  // a listener fired during a dump
  dumping_ = true;
  const int64_t now_us = clock_ ? clock_() : 0;

  // The stage to blame: the most recent missed record's dominant stage,
  // falling back to the most recent record of any kind.
  const std::vector<LedgerRecord> records =
      ledger_ ? ledger_->recent() : std::vector<LedgerRecord>{};
  const LedgerRecord* blame = nullptr;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->missed) {
      blame = &*it;
      break;
    }
  }
  if (!blame && !records.empty()) blame = &records.back();

  std::string out;
  out.reserve(4096);
  out += '{';
  AppendStr(out, "trigger", trigger);
  out += ',';
  AppendStr(out, "detail", detail);
  out += ',';
  AppendInt(out, "at_us", now_us);
  out += ',';
  AppendStr(out, "dominant_stage",
            blame ? StageName(blame->budget.DominantStage()) : "none");
  out += ',';

  AppendKey(out, "ledger");
  out += '{';
  if (ledger_) {
    AppendInt(out, "in_flight", static_cast<int64_t>(ledger_->in_flight()));
    out += ',';
    AppendInt(out, "opened_total",
              static_cast<int64_t>(ledger_->opened_total()));
    out += ',';
    AppendInt(out, "closed_total",
              static_cast<int64_t>(ledger_->closed_total()));
    out += ',';
    AppendInt(out, "missed_total",
              static_cast<int64_t>(ledger_->missed_total()));
    out += ',';
    AppendInt(out, "near_miss_total",
              static_cast<int64_t>(ledger_->near_miss_total()));
    out += ',';
    AppendKey(out, "worst_in_flight");
    out += '[';
    bool first = true;
    for (const auto& v : ledger_->WorstInFlight(8, now_us)) {
      if (!first) out += ',';
      first = false;
      out += '{';
      AppendInt(out, "trace_id", static_cast<int64_t>(v.trace_id));
      out += ',';
      AppendStr(out, "last_stage", StageName(v.last_stage));
      out += ',';
      AppendInt(out, "consumed_us", v.consumed_us);
      out += ',';
      AppendInt(out, "remaining_us", v.remaining_us);
      out += '}';
    }
    out += ']';
  } else {
    AppendBool(out, "attached", false);
  }
  out += "},";

  AppendKey(out, "records");
  out += '[';
  for (size_t i = 0; i < records.size(); ++i) {
    if (i) out += ',';
    AppendRecord(out, records[i]);
  }
  out += "],";

  AppendKey(out, "events");
  out += '[';
  for (size_t i = 0; i < events_.size(); ++i) {
    if (i) out += ',';
    const FlightEvent& ev = events_[i];
    out += '{';
    AppendInt(out, "at_us", ev.at_us);
    out += ',';
    AppendStr(out, "source", ev.source);
    out += ',';
    AppendStr(out, "detail", ev.detail);
    out += '}';
  }
  out += "]}";

  ++dumps_taken_;
  last_dump_ = out;
  last_dump_path_.clear();

  const char* dir = std::getenv("XG_FLIGHT_DIR");
  if (dir != nullptr && *dir != '\0' && files_written_ < kMaxDumpFiles) {
    char path[512];
    std::snprintf(path, sizeof(path), "%s/flight-%04" PRIu64 "-%s.json", dir,
                  dumps_taken_, trigger.c_str());
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
      ++files_written_;
      last_dump_path_ = path;
    }
  }
  dumping_ = false;
  return out;
}

}  // namespace xg::obs::slo
