#include "resil/degraded.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/slo/flight.hpp"

namespace xg::resil {

bool StoreAndForward::Buffer(std::vector<uint8_t> payload) {
  ++buffered_total_;
  bool evicted = false;
  if (capacity_ > 0 && frames_.size() >= capacity_) {
    frames_.pop_front();
    ++dropped_total_;
    evicted = true;
  }
  frames_.push_back(std::move(payload));
  return !evicted;
}

std::vector<uint8_t> StoreAndForward::PopFront() {
  std::vector<uint8_t> front = std::move(frames_.front());
  frames_.pop_front();
  ++drained_total_;
  return front;
}

const char* DegradedModeName(DegradedMode m) {
  switch (m) {
    case DegradedMode::kStoreForward: return "store_forward";
    case DegradedMode::kStaleServe: return "stale_serve";
    case DegradedMode::kSiteFailover: return "site_failover";
    case DegradedMode::kOverloadShed: return "overload_shed";
  }
  return "?";
}

void DegradedModeManager::AttachObservability(obs::MetricsRegistry* registry,
                                              obs::Tracer* tracer) {
  registry_ = registry;
  tracer_ = tracer;
  if (registry_ == nullptr) return;
  for (int i = 0; i < kDegradedModeCount; ++i) {
    const auto mode = static_cast<DegradedMode>(i);
    const bool* flag = &active_[i];
    registry_->RegisterCallback(
        "xg_resil_mode", {{"mode", DegradedModeName(mode)}},
        "1 while the fabric operates in this degraded mode",
        [flag] { return *flag ? 1.0 : 0.0; });
    registry_->RegisterCounter(
        "xg_resil_mode_transitions_total", {{"mode", DegradedModeName(mode)}},
        "Entries into this degraded mode", &entries_[i]);
  }
}

bool DegradedModeManager::AnyActive() const {
  for (bool a : active_) {
    if (a) return true;
  }
  return false;
}

void DegradedModeManager::Enter(DegradedMode m, int64_t now_us,
                                const std::string& detail) {
  const int i = static_cast<int>(m);
  if (active_[i]) return;
  active_[i] = true;
  entered_us_[i] = now_us;
  ++entries_[i];
  open_episode_[i] = timeline_.size();
  timeline_.push_back(Episode{m, now_us, -1, detail});
  if (flight_ != nullptr) {
    flight_->Note("resil", std::string("enter ") + DegradedModeName(m) +
                               (detail.empty() ? "" : ": " + detail));
  }
}

void DegradedModeManager::Exit(DegradedMode m, int64_t now_us) {
  const int i = static_cast<int>(m);
  if (!active_[i]) return;
  active_[i] = false;
  closed_time_s_[i] += static_cast<double>(now_us - entered_us_[i]) / 1e6;
  Episode& ep = timeline_[open_episode_[i]];
  ep.exit_us = now_us;
  if (flight_ != nullptr) {
    flight_->Note("resil", std::string("exit ") + DegradedModeName(m));
  }
  if (tracer_ != nullptr) {
    // All episodes hang off one lazily-opened root trace so the recovery
    // timeline reads as a single track in the Chrome trace view.
    if (!root_.valid()) {
      root_ = tracer_->StartTrace("resil.timeline", "resil");
    }
    std::vector<std::pair<std::string, std::string>> args;
    if (!ep.detail.empty()) args.emplace_back("detail", ep.detail);
    tracer_->RecordSpan(std::string("resil.") + DegradedModeName(m), "resil",
                        root_, ep.enter_us, now_us, std::move(args));
  }
}

double DegradedModeManager::TotalTimeS(DegradedMode m, int64_t now_us) const {
  const int i = static_cast<int>(m);
  double t = closed_time_s_[i];
  if (active_[i]) t += static_cast<double>(now_us - entered_us_[i]) / 1e6;
  return t;
}

std::string DegradedModeManager::FormatTimeline() const {
  std::string out;
  char line[256];
  for (const Episode& ep : timeline_) {
    const double enter_s = static_cast<double>(ep.enter_us) / 1e6;
    if (ep.exit_us >= 0) {
      const double exit_s = static_cast<double>(ep.exit_us) / 1e6;
      std::snprintf(line, sizeof(line),
                    "[%9.3fs -> %9.3fs] %-13s (%8.3fs)", enter_s, exit_s,
                    DegradedModeName(ep.mode), exit_s - enter_s);
    } else {
      std::snprintf(line, sizeof(line), "[%9.3fs ->      open] %-13s",
                    enter_s, DegradedModeName(ep.mode));
    }
    out += line;
    if (!ep.detail.empty()) {
      out += ' ';
      out += ep.detail;
    }
    out += '\n';
  }
  return out;
}

}  // namespace xg::resil
