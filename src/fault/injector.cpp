#include "fault/injector.hpp"

#include <sstream>

#include "obs/slo/flight.hpp"

namespace xg::fault {

namespace {
/// Kinds driven through OnWindow actuators; the injector counts these once
/// per window at the begin edge. Message kinds count in Roll(); query
/// kinds (rrc_drop, link_degrade) count in the consulting layer.
bool IsActuatorKind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartition:
    case FaultKind::kNodeUnreachable:
    case FaultKind::kPowerLoss:
    case FaultKind::kQueueStall:
    case FaultKind::kJobKill:
      return true;
    default:
      return false;
  }
}
}  // namespace

obs::SpanName FaultSpanName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartition: return obs::SpanName::kFaultPartition;
    case FaultKind::kNodeUnreachable:
      return obs::SpanName::kFaultNodeUnreachable;
    case FaultKind::kMessageLoss: return obs::SpanName::kFaultMessageLoss;
    case FaultKind::kDuplicate: return obs::SpanName::kFaultDuplicate;
    case FaultKind::kReorder: return obs::SpanName::kFaultReorder;
    case FaultKind::kPowerLoss: return obs::SpanName::kFaultPowerLoss;
    case FaultKind::kRrcDrop: return obs::SpanName::kFaultRrcDrop;
    case FaultKind::kLinkDegrade: return obs::SpanName::kFaultLinkDegrade;
    case FaultKind::kQueueStall: return obs::SpanName::kFaultQueueStall;
    case FaultKind::kJobKill: return obs::SpanName::kFaultJobKill;
  }
  return obs::SpanName::kFaultPartition;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed() ^ 0xFA017EC7ull) {}

void FaultInjector::OnWindow(FaultKind kind, Actuator fn) {
  actuators_[kind].push_back(std::move(fn));
}

void FaultInjector::ActuateWindow(const FaultEvent& event, bool begin) {
  if (flight_ != nullptr) {
    flight_->Note("fault", std::string(FaultKindName(event.kind)) +
                               (begin ? " begin" : " end") + " target=" +
                               (event.target.empty() ? "*" : event.target));
  }
  auto it = actuators_.find(event.kind);
  if (it == actuators_.end()) return;
  for (const Actuator& fn : it->second) fn(event, begin);
}

void FaultInjector::Arm(sim::Simulation& sim) {
  if (armed_) return;
  armed_ = true;
  for (const FaultEvent& event : plan_.events()) {
    // plan_ is immutable after construction, so the element address is
    // stable for the injector's lifetime.
    const FaultEvent* ev = &event;
    sim.ScheduleAt(sim::SimTime::Seconds(ev->start_s), [this, &sim, ev]() {
      if (IsActuatorKind(ev->kind)) Count(LayerOf(ev->kind), ev->kind);
      obs::TraceContext span;
      if (tracer_ != nullptr) {
        span = tracer_->StartTrace(FaultSpanName(ev->kind));
        tracer_->Annotate(span, "target",
                          ev->target.empty() ? "*" : ev->target);
      }
      ActuateWindow(*ev, /*begin=*/true);
      if (ev->duration_s > 0.0) {
        sim.ScheduleAt(sim::SimTime::Seconds(ev->end_s()),
                       [this, ev, span]() {
                         ActuateWindow(*ev, /*begin=*/false);
                         obs::EndSpanIf(tracer_, span);
                       });
      } else {
        obs::EndSpanIf(tracer_, span);
      }
    });
  }
}

const FaultEvent* FaultInjector::ActiveEvent(FaultKind kind,
                                             const std::string& query,
                                             int64_t now_us) const {
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind == kind && e.Matches(query) && e.ActiveAt(now_us)) return &e;
  }
  return nullptr;
}

double FaultInjector::ActiveMagnitude(FaultKind kind, const std::string& query,
                                      int64_t now_us) const {
  const FaultEvent* e = ActiveEvent(kind, query, now_us);
  return e == nullptr ? 0.0 : e->magnitude;
}

const FaultEvent* FaultInjector::Roll(FaultKind kind, const std::string& query,
                                      int64_t now_us) {
  const FaultEvent* e = ActiveEvent(kind, query, now_us);
  if (e == nullptr || e->magnitude <= 0.0) return nullptr;
  const double p = e->magnitude >= 1.0 ? 1.0 : e->magnitude;
  if (!rng_.Bernoulli(p)) return nullptr;
  Count(LayerOf(kind), kind);
  return e;
}

void FaultInjector::Count(Layer layer, FaultKind kind, uint64_t n) {
  counts_[{layer, kind}] += n;
}

uint64_t FaultInjector::injected_total() const {
  uint64_t total = 0;
  for (const auto& [key, n] : counts_) total += n;
  return total;
}

uint64_t FaultInjector::injected_total(Layer layer) const {
  uint64_t total = 0;
  for (const auto& [key, n] : counts_) {
    if (key.first == layer) total += n;
  }
  return total;
}

uint64_t FaultInjector::injected_total(Layer layer, FaultKind kind) const {
  auto it = counts_.find({layer, kind});
  return it == counts_.end() ? 0 : it->second;
}

void FaultInjector::AttachObservability(obs::MetricsRegistry* registry,
                                        obs::Tracer* tracer) {
  tracer_ = tracer;
  if (registry == nullptr) return;
  for (FaultKind kind : AllFaultKinds()) {
    const Layer layer = LayerOf(kind);
    const obs::Labels labels = {{"kind", FaultKindName(kind)},
                                {"layer", LayerName(layer)}};
    registry->RegisterCallback(
        "xg_fault_injected_total", labels,
        "Faults injected by the chaos plan",
        [this, layer, kind] {
          return static_cast<double>(injected_total(layer, kind));
        },
        obs::MetricSample::Type::kCounter);
  }
}

std::string FaultInjector::FormatCounts() const {
  std::ostringstream out;
  for (const auto& [key, n] : counts_) {
    out << "xg_fault_injected_total{layer=" << LayerName(key.first)
        << ",kind=" << FaultKindName(key.second) << "} " << n << "\n";
  }
  return out.str();
}

}  // namespace xg::fault
