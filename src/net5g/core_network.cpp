#include "net5g/core_network.hpp"

#include <algorithm>
#include <cstdio>

#include "common/contract.hpp"

namespace xg::net5g {

CoreNetwork::CoreNetwork(uint64_t seed, std::string ip_prefix)
    : rng_(seed), ip_prefix_(std::move(ip_prefix)) {}

void CoreNetwork::AttachObservability(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->RegisterCounter("xg_net5g_auth_failures_total", {},
                            "5G-AKA authentication failures", &auth_failures_);
  registry->RegisterCounter("xg_net5g_policy_rejections_total", {},
                            "Slice-allowlist policy rejections",
                            &policy_rejections_);
  registry->RegisterCallback(
      "xg_net5g_subscribers", {}, "Provisioned subscribers",
      [this] { return static_cast<double>(subscribers_.size()); });
  registry->RegisterCallback(
      "xg_net5g_active_sessions", {}, "Established PDU sessions",
      [this] { return static_cast<double>(sessions_.size()); });
}

Status CoreNetwork::Provision(const Subscription& sub) {
  if (sub.sim.imsi.empty()) {
    return Status(ErrorCode::kInvalidArgument, "empty IMSI");
  }
  if (subscribers_.count(sub.sim.imsi)) {
    return Status(ErrorCode::kAlreadyExists,
                  "IMSI already provisioned: " + sub.sim.imsi);
  }
  subscribers_[sub.sim.imsi] = sub;
  states_[sub.sim.imsi] = UeState::kDeregistered;
  return Status::Ok();
}

Status CoreNetwork::Bar(const std::string& imsi, bool barred) {
  auto it = subscribers_.find(imsi);
  if (it == subscribers_.end()) {
    return Status(ErrorCode::kNotFound, "unknown IMSI");
  }
  it->second.barred = barred;
  if (barred) {
    // Barring tears down any current registration and sessions; a UE that
    // was never registered has nothing to tear down, which is fine.
    const Status dereg = Deregister(imsi);
    XG_INVARIANT(dereg.ok() || dereg.code() == ErrorCode::kFailedPrecondition,
                 "barred-UE teardown failed: " + dereg.ToString());
  }
  return Status::Ok();
}

Result<UeState> CoreNetwork::Register(const SimProfile& sim) {
  auto it = subscribers_.find(sim.imsi);
  if (it == subscribers_.end()) {
    ++auth_failures_;
    return Status(ErrorCode::kNotFound, "IMSI not in subscriber database");
  }
  // Simplified 5G-AKA: the presented SIM keys must match the database.
  if (it->second.sim.ki != sim.ki || it->second.sim.opc != sim.opc) {
    ++auth_failures_;
    return Status(ErrorCode::kFailedPrecondition, "authentication failure");
  }
  if (it->second.barred) {
    ++policy_rejections_;
    return Status(ErrorCode::kFailedPrecondition, "subscriber barred");
  }
  states_[sim.imsi] = UeState::kRegistered;
  return UeState::kRegistered;
}

Status CoreNetwork::Deregister(const std::string& imsi) {
  auto it = states_.find(imsi);
  if (it == states_.end() || it->second == UeState::kDeregistered) {
    return Status(ErrorCode::kFailedPrecondition, "not registered");
  }
  it->second = UeState::kDeregistered;
  // Release the UE's sessions.
  for (auto sit = sessions_.begin(); sit != sessions_.end();) {
    if (sit->second.imsi == imsi) {
      sit = sessions_.erase(sit);
    } else {
      ++sit;
    }
  }
  return Status::Ok();
}

UeState CoreNetwork::StateOf(const std::string& imsi) const {
  auto it = states_.find(imsi);
  if (it == states_.end()) return UeState::kDeregistered;
  if (it->second == UeState::kRegistered) {
    for (const auto& [id, session] : sessions_) {
      if (session.imsi == imsi) return UeState::kSessionActive;
    }
  }
  return it->second;
}

Result<PduSession> CoreNetwork::EstablishSession(const std::string& imsi,
                                                 const std::string& slice) {
  auto st = states_.find(imsi);
  if (st == states_.end() || st->second == UeState::kDeregistered) {
    return Status(ErrorCode::kFailedPrecondition, "UE not registered");
  }
  const Subscription& sub = subscribers_.at(imsi);
  if (std::find(sub.allowed_slices.begin(), sub.allowed_slices.end(), slice) ==
      sub.allowed_slices.end()) {
    ++policy_rejections_;
    return Status(ErrorCode::kFailedPrecondition,
                  "slice not allowed by subscription: " + slice);
  }
  PduSession session;
  session.session_id = next_session_++;
  session.imsi = imsi;
  session.slice = slice;
  session.ue_ip = ip_prefix_ + std::to_string(next_ip_++);
  sessions_[session.session_id] = session;
  return session;
}

Status CoreNetwork::ReleaseSession(uint32_t session_id) {
  if (sessions_.erase(session_id) == 0) {
    return Status(ErrorCode::kNotFound, "no such session");
  }
  return Status::Ok();
}

std::vector<PduSession> CoreNetwork::ActiveSessions() const {
  std::vector<PduSession> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(session);
  return out;
}

std::vector<SimProfile> MakeSimBatch(const std::string& imsi_prefix, int count,
                                     Rng& rng) {
  std::vector<SimProfile> sims;
  sims.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    SimProfile sim;
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "%05d", i + 1);
    sim.imsi = imsi_prefix + suffix;
    sim.ki = rng.NextU64();
    sim.opc = rng.NextU64();
    sims.push_back(sim);
  }
  return sims;
}

}  // namespace xg::net5g
