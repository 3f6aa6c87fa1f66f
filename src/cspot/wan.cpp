#include "cspot/wan.hpp"

#include <algorithm>

namespace xg::cspot {

Wan::Wan(sim::Simulation& sim, uint64_t seed) : sim_(sim), rng_(seed) {}

NodeId Wan::AddNode(const std::string& name) {
  const auto [it, added] =
      ids_.emplace(name, static_cast<NodeId>(nodes_.size()));
  if (added) {
    nodes_.push_back(name);
    reachable_.push_back(true);
    pairs_.resize(nodes_.size() * (nodes_.size() + 1) / 2);
    routes_valid_ = false;
    if (tracer_ != nullptr) node_labels_.push_back(tracer_->Label(name));
  }
  return it->second;
}

void Wan::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  node_labels_.clear();
  if (tracer_ == nullptr) return;
  for (const std::string& name : nodes_) {
    node_labels_.push_back(tracer_->Label(name));
  }
}

NodeId Wan::Find(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoNode : it->second;
}

Status Wan::AddLink(const std::string& a, const std::string& b, LinkParams p) {
  const NodeId ia = Find(a), ib = Find(b);
  if (ia == kNoNode || ib == kNoNode) {
    return Status(ErrorCode::kNotFound, "link endpoint unknown");
  }
  links_.push_back(Link{ia, ib, p, true, p.kind == "5g-air"});
  routes_valid_ = false;
  return Status::Ok();
}

Status Wan::SetLinkUp(const std::string& a, const std::string& b, bool up) {
  const NodeId ia = Find(a), ib = Find(b);  // links never hold kNoNode
  for (auto& l : links_) {
    if ((l.a == ia && l.b == ib) || (l.a == ib && l.b == ia)) {
      l.up = up;
      routes_valid_ = false;
      return Status::Ok();
    }
  }
  return Status(ErrorCode::kNotFound, "no such link");
}

Status Wan::SetNodeReachable(const std::string& name, bool reachable) {
  const NodeId id = Find(name);
  if (id == kNoNode) return Status(ErrorCode::kNotFound, "no such node");
  reachable_[id] = reachable;
  routes_valid_ = false;
  return Status::Ok();
}

bool Wan::NodeReachable(const std::string& name) const {
  const NodeId id = Find(name);
  return id != kNoNode && reachable_[id];
}

const std::vector<uint32_t>& Wan::Route(NodeId from, NodeId to) const {
  const size_t n = nodes_.size();
  if (!routes_valid_) {
    routes_.assign(n * n, {});
    // One BFS per reachable source over up links between reachable nodes.
    for (NodeId src = 0; src < n; ++src) {
      if (!reachable_[src]) continue;
      std::vector<NodeId> prev(n, kNoNode), order{src};
      std::vector<uint32_t> via(n, 0);
      prev[src] = src;
      for (size_t head = 0; head < order.size(); ++head) {
        const NodeId cur = order[head];
        for (uint32_t i = 0; i < links_.size(); ++i) {
          const Link& l = links_[i];
          const NodeId next = l.a == cur ? l.b : l.b == cur ? l.a : kNoNode;
          if (!l.up || next == kNoNode || !reachable_[next] ||
              prev[next] != kNoNode) {
            continue;
          }
          prev[next] = cur;
          via[next] = i;
          order.push_back(next);
        }
      }
      for (NodeId dst = 0; dst < n; ++dst) {
        std::vector<uint32_t>& route = routes_[src * n + dst];
        for (NodeId c = dst; prev[dst] != kNoNode && c != src; c = prev[c]) {
          route.insert(route.begin(), via[c]);
        }
      }
    }
    routes_valid_ = true;
  }
  return routes_[from * n + to];
}

Wan::Pair& Wan::PairFor(NodeId a, NodeId b) {
  const NodeId lo = std::min(a, b), hi = std::max(a, b);
  Pair& pair = pairs_[size_t{hi} * (hi + 1) / 2 + lo];
  if (pair.target.empty()) {
    pair.target = fault::FaultPlan::LinkTarget(nodes_[a], nodes_[b]);
  }
  return pair;
}

void Wan::EnableCircuitBreakers(resil::BreakerConfig cfg) {
  breakers_enabled_ = true;
  breaker_cfg_ = cfg;
}

resil::CircuitBreaker* Wan::breaker(const std::string& a,
                                    const std::string& b) {
  const NodeId ia = Find(a), ib = Find(b);
  if (ia == kNoNode || ib == kNoNode) return nullptr;
  return PairFor(ia, ib).breaker.get();
}

resil::CircuitBreaker& Wan::BreakerFor(Pair& pair) {
  if (pair.breaker != nullptr) return *pair.breaker;

  const std::string& key = pair.target;
  pair.breaker = std::make_unique<resil::CircuitBreaker>(breaker_cfg_);
  resil::CircuitBreaker* ptr = pair.breaker.get();
  // Each close ends an outage episode: record the whole open window
  // (open -> half-open probing -> closed) as one resil.breaker_open span.
  ptr->set_on_transition([this, ptr, key](resil::BreakerState /*from*/,
                                          resil::BreakerState to,
                                          int64_t now_us) {
    if (tracer_ == nullptr || to != resil::BreakerState::kClosed) return;
    if (!resil_root_.valid()) {
      resil_root_ = tracer_->StartTrace(obs::SpanName::kResilTimeline);
    }
    const obs::TraceContext span =
        tracer_->RecordSpan(obs::SpanName::kResilBreakerOpen, resil_root_,
                            ptr->opened_at_us(), now_us);
    tracer_->AnnotateLabel(span, "link", tracer_->Label(key));
  });
  if (registry_ != nullptr) {
    registry_->RegisterCallback(
        "xg_resil_breaker_state", {{"link", key}},
        "Breaker state: 0 closed, 1 half-open, 2 open",
        [this, ptr] {
          return static_cast<double>(ptr->StateAt(sim_.Now().micros()));
        });
    for (auto state :
         {resil::BreakerState::kClosed, resil::BreakerState::kHalfOpen,
          resil::BreakerState::kOpen}) {
      registry_->RegisterCallback(
          "xg_resil_breaker_transitions_total",
          {{"link", key}, {"to", resil::BreakerStateName(state)}},
          "Breaker state transitions",
          [ptr, state] {
            return static_cast<double>(ptr->transitions_to(state));
          },
          obs::MetricSample::Type::kCounter);
    }
    registry_->RegisterCallback(
        "xg_resil_breaker_fast_fail_total", {{"link", key}},
        "Sends failed fast while the breaker was open",
        [ptr] { return static_cast<double>(ptr->fast_fails()); },
        obs::MetricSample::Type::kCounter);
  }
  return *ptr;
}

Status Wan::Send(NodeId from, NodeId to, size_t bytes, sim::Callback deliver,
                 const obs::TraceContext& trace) {
  last_send_failure_ = SendFailure::kNone;
  if (from >= nodes_.size() || to >= nodes_.size()) {
    ++messages_sent_;
    ++messages_lost_;
    last_send_failure_ = SendFailure::kNoRoute;
    return Status(ErrorCode::kUnavailable, "no route: unknown endpoint");
  }
  const int64_t depart_us = sim_.Now().micros();
  const std::string& src = nodes_[from];
  const std::string& dst = nodes_[to];
  Pair& pair = PairFor(from, to);
  resil::CircuitBreaker* brk = nullptr;
  if (breakers_enabled_ && from != to) {
    brk = &BreakerFor(pair);
    if (!brk->Allow(depart_us)) {
      ++messages_fast_failed_;
      last_send_failure_ = SendFailure::kCircuitOpen;
      return Status(ErrorCode::kUnavailable,
                    "circuit open " + src + "->" + dst);
    }
  }
  ++messages_sent_;
  const std::vector<uint32_t>& route = Route(from, to);
  if (route.empty() && from != to) {
    ++messages_lost_;
    last_send_failure_ = SendFailure::kNoRoute;
    if (brk != nullptr) brk->RecordFailure(depart_us);
    return Status(ErrorCode::kUnavailable, "no route " + src + "->" + dst);
  }
  const bool traced = tracer_ != nullptr && trace.valid();
  double total_ms = 0.0;
  NodeId cur = from;
  for (uint32_t idx : route) {
    const Link& l = links_[idx];
    const LinkParams& p = l.params;
    const NodeId next = l.a == cur ? l.b : l.a;
    const bool lost = rng_.Bernoulli(p.loss_prob);
    double lat = 0.0;
    if (!lost) {
      lat = rng_.Gaussian(p.one_way_ms, p.jitter_ms);
      if (lat < p.min_ms) lat = p.min_ms;
      if (p.bandwidth_mbps > 0.0 && bytes > 0) {
        lat += static_cast<double>(bytes) * 8.0 / (p.bandwidth_mbps * 1e3);
      }
    }
    const bool air = l.air;
    const int64_t hop_start = depart_us + static_cast<int64_t>(total_ms * 1e3);
    const int64_t hop_end = hop_start + static_cast<int64_t>(lat * 1e3);
    if (traced) {
      // The hop happened on the wire whether or not the message survives
      // it, so the span covers the crossing with the sampled latency.
      tracer_->RecordHop(
          air ? obs::SpanName::kNet5gAccess : obs::SpanName::kWanHop, trace,
          hop_start, hop_end,
          {node_labels_[cur], node_labels_[next], bytes, lost});
    }
    if (lost) {
      ++messages_lost_;
      last_send_failure_ = SendFailure::kLoss;
      if (brk != nullptr) brk->RecordFailure(depart_us);
      return Status(ErrorCode::kUnavailable,
                    "message lost on link " + nodes_[cur] + "->" +
                        nodes_[next]);
    }
    if (slo_ != nullptr && trace.valid() && air) {
      // The air segment's SLO boundaries: the SR/grant cycle completes
      // grant_fraction into the crossing, egress at its end. First stamp
      // wins in the ledger, so only the first surviving crossing of a
      // reading's journey defines the boundary.
      const auto grant_us = static_cast<int64_t>(lat * 1e3 * p.grant_fraction);
      slo_->Stamp(trace.trace_id, obs::slo::Stage::kRrcGrant,
                  hop_start + grant_us);
      slo_->Stamp(trace.trace_id, obs::slo::Stage::kCellEgress, hop_end);
    }
    total_ms += lat;
    cur = next;
  }
  if (fault_ != nullptr) {
    // Delivery-leg chaos, in a fixed roll order so a seeded plan replays
    // bit-identically: loss swallows the message, duplicate schedules a
    // second delivery `aux` ms later, reorder delays the only delivery.
    const std::string& link = pair.target;
    const fault::FaultEvent* ev = nullptr;
    if ((ev = fault_->Roll(fault::FaultKind::kMessageLoss, link, depart_us)) !=
        nullptr) {
      ++messages_lost_;
      last_send_failure_ = SendFailure::kLoss;
      if (brk != nullptr) brk->RecordFailure(depart_us);
      return Status(ErrorCode::kUnavailable,
                    "injected message loss " + src + "->" + dst);
    }
    if ((ev = fault_->Roll(fault::FaultKind::kDuplicate, link, depart_us)) !=
        nullptr) {
      // Both deliveries run the one moved callable.
      auto shared = std::make_shared<sim::Callback>(std::move(deliver));
      sim_.Schedule(sim::SimTime::Millis(total_ms + ev->aux),
                    [shared] { (*shared)(); });
      deliver = [shared] { (*shared)(); };
    }
    if ((ev = fault_->Roll(fault::FaultKind::kReorder, link, depart_us)) !=
        nullptr) {
      total_ms += ev->aux;
    }
  }
  sim_.Schedule(sim::SimTime::Millis(total_ms), std::move(deliver));
  if (brk != nullptr) brk->RecordSuccess(depart_us);
  return Status::Ok();
}

Result<double> Wan::MeanPathLatencyMs(const std::string& from,
                                      const std::string& to,
                                      size_t bytes) const {
  const NodeId a = Find(from), b = Find(to);
  if (a == kNoNode || b == kNoNode || (a != b && Route(a, b).empty())) {
    return Status(ErrorCode::kUnavailable, "no route " + from + "->" + to);
  }
  double total = 0.0;
  for (uint32_t idx : Route(a, b)) {
    const LinkParams& p = links_[idx].params;
    total += p.one_way_ms;
    if (p.bandwidth_mbps > 0.0 && bytes > 0) {
      total += static_cast<double>(bytes) * 8.0 / (p.bandwidth_mbps * 1e3);
    }
  }
  return total;
}

}  // namespace xg::cspot
