#include "pilot/pilot.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contract.hpp"

#include "common/logging.hpp"
#include "obs/slo/flight.hpp"

namespace xg::pilot {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kOnDemand: return "on-demand";
    case Strategy::kReactive: return "reactive";
    case Strategy::kProactive: return "proactive";
  }
  return "?";
}

PilotController::PilotController(sim::Simulation& sim,
                                 hpc::BatchScheduler& scheduler,
                                 hpc::CfdPerfModel perf, PilotConfig config,
                                 uint64_t seed)
    : sim_(sim), scheduler_(scheduler), perf_(perf), config_(config),
      rng_(seed), last_accrual_(sim.Now()) {
  if (config_.strategy == Strategy::kProactive) {
    EnsureWarmPilot(config_.data_threshold_bytes);
    // Periodic expiry watch.
    sim::Periodic(sim_, sim::SimTime::Minutes(10.0), sim::SimTime::Minutes(10.0),
                  [this]() {
                    EnsureWarmPilot(config_.data_threshold_bytes);
                    return true;
                  });
  }
}

void PilotController::AttachObservability(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const obs::Labels strategy_label = {{"strategy", StrategyName(config_.strategy)}};
  registry->RegisterCounter("xg_pilot_pilots_submitted_total", strategy_label,
                            "Pilot jobs submitted", &pilots_submitted_);
  registry->RegisterCounter("xg_pilot_tasks_completed_total", strategy_label,
                            "Application tasks completed", &tasks_completed_);
  registry->RegisterCounter(
      "xg_pilot_tasks_rejected_total", strategy_label,
      "Task submissions refused by the bounded pending queue",
      &tasks_rejected_);
  registry->RegisterCallback(
      "xg_pilot_idle_node_seconds_total", strategy_label,
      "Node-seconds pilots held without running a task",
      [this] { return idle_node_seconds(); },
      obs::MetricSample::Type::kCounter);
  registry->RegisterCallback(
      "xg_pilot_active_nodes", strategy_label,
      "Idle nodes currently held by active pilots",
      [this] { return static_cast<double>(active_pilot_nodes()); });
}

int PilotController::RequiredNodes(double data_bytes) const {
  // Eq (1): N_req = max(1, D / threshold). A non-positive threshold makes
  // the division meaningless (and the int cast undefined); degrade to the
  // single-node floor the equation's max() clause implies.
  XG_INVARIANT(config_.data_threshold_bytes > 0.0,
               "pilot data threshold must be positive");
  if (!(config_.data_threshold_bytes > 0.0)) return 1;
  const double ratio = std::ceil(data_bytes / config_.data_threshold_bytes);
  if (ratio >= static_cast<double>(std::numeric_limits<int>::max())) {
    return std::numeric_limits<int>::max();
  }
  return std::max(1, static_cast<int>(ratio));
}

int PilotController::AvailableNodes() const {
  // Eq (2): sum over active pilots — idle capacity usable right now.
  int n = 0;
  for (const auto& [id, p] : pilots_) {
    if (p.active && !p.finished) n += p.nodes - p.busy_nodes;
  }
  return n;
}

int PilotController::active_pilot_nodes() const {
  int n = 0;
  for (const auto& [id, p] : pilots_) {
    if (p.active && !p.finished) n += p.nodes;
  }
  return n;
}

bool PilotController::ShouldSubmitPilot(double data_bytes) const {
  // Eq (3).
  return AvailableNodes() < RequiredNodes(data_bytes);
}

hpc::JobSpec PilotController::PilotSpec(double data_bytes) const {
  // Eq (4).
  hpc::JobSpec spec;
  spec.name = "xg-pilot";
  spec.nodes = std::min(scheduler_.total_nodes(), RequiredNodes(data_bytes));
  spec.walltime_s = std::min(scheduler_.site().max_walltime_h * 3600.0,
                             std::max(config_.pilot_walltime_s,
                                      config_.estimated_task_runtime_s));
  spec.runtime_s = spec.walltime_s;  // a pilot holds its nodes until expiry
  // Eq (4) bounds: never request more nodes than the system has, never ask
  // for more walltime than the site allows.
  XG_INVARIANT(spec.nodes >= 1 && spec.nodes <= scheduler_.total_nodes(),
               "pilot node request outside system bounds");
  XG_INVARIANT(spec.walltime_s <= scheduler_.site().max_walltime_h * 3600.0,
               "pilot walltime exceeds site maximum");
  return spec;
}

void PilotController::AccrueIdle() {
  const double dt = (sim_.Now() - last_accrual_).seconds();
  if (dt > 0.0) {
    int idle = 0;
    for (const auto& [id, p] : pilots_) {
      if (p.active && !p.finished) idle += p.nodes - p.busy_nodes;
    }
    idle_node_seconds_ += idle * dt;
  }
  last_accrual_ = sim_.Now();
}

double PilotController::idle_node_seconds() const {
  // Include un-accrued time up to "now".
  double total = idle_node_seconds_;
  const double dt = (sim_.Now() - last_accrual_).seconds();
  if (dt > 0.0) {
    int idle = 0;
    for (const auto& [id, p] : pilots_) {
      if (p.active && !p.finished) idle += p.nodes - p.busy_nodes;
    }
    total += idle * dt;
  }
  return total;
}

void PilotController::SubmitPilot(int nodes) {
  AccrueIdle();
  hpc::JobSpec spec = PilotSpec(nodes * config_.data_threshold_bytes);
  spec.nodes = std::min(scheduler_.total_nodes(), nodes);
  ++pilots_submitted_;
  if (flight_ != nullptr) {
    flight_->Note("pilot", "pilot submitted nodes=" +
                               std::to_string(spec.nodes));
  }
  const hpc::JobId id = scheduler_.Submit(
      spec,
      /*on_start=*/
      [this](const hpc::JobInfo& info) {
        AccrueIdle();
        auto it = pilots_.find(info.id);
        if (it == pilots_.end()) return;
        it->second.active = true;
        XG_LOG(kInfo, "pilot")
            << "pilot " << info.id << " active with " << it->second.nodes
            << " nodes after " << info.QueueWaitS() << "s in queue";
        DispatchPending();
      },
      /*on_end=*/
      [this](const hpc::JobInfo& info) {
        AccrueIdle();
        auto it = pilots_.find(info.id);
        if (it != pilots_.end()) {
          it->second.finished = true;
          it->second.active = false;
        }
        if (config_.strategy == Strategy::kProactive) {
          EnsureWarmPilot(config_.data_threshold_bytes);
        }
      });
  PilotState st;
  st.job = id;
  st.nodes = std::min(scheduler_.total_nodes(), nodes);
  pilots_[id] = st;
}

void PilotController::EnsureWarmPilot(double data_bytes_hint) {
  // Keep at least one pilot queued or active with remaining life beyond
  // the proactive lead time.
  for (const auto& [id, p] : pilots_) {
    if (p.finished) continue;
    if (!p.active) return;  // one already queued
    const hpc::JobInfo* info = scheduler_.Get(id);
    if (info == nullptr) continue;
    const double remaining = info->spec.walltime_s -
                             (sim_.Now() - info->start_time).seconds();
    if (remaining > config_.proactive_lead_s) return;
  }
  SubmitPilot(RequiredNodes(data_bytes_hint));
}

void PilotController::RunOnDemand(PendingTask task) {
  hpc::JobSpec spec;
  spec.name = "xg-cfd";
  spec.nodes = task.nodes_needed;
  spec.runtime_s =
      perf_.SampleTotalTime(config_.cores_per_node, task.nodes_needed, rng_);
  spec.walltime_s = std::min(scheduler_.site().max_walltime_h * 3600.0,
                             config_.estimated_task_runtime_s * 4.0 +
                                 spec.runtime_s);
  const sim::SimTime submitted = task.submitted;
  auto done = task.done;
  const int nodes = task.nodes_needed;
  scheduler_.Submit(
      spec, nullptr,
      [this, submitted, done, nodes](const hpc::JobInfo& info) {
        TaskResult r;
        r.wait_s = (info.start_time - submitted).seconds();
        r.runtime_s = (info.end_time - info.start_time).seconds();
        r.ran_in_warm_pilot = false;
        r.nodes_used = nodes;
        ++tasks_completed_;
        if (done) done(r);
      });
}

void PilotController::RunInPilot(PilotState& pilot, PendingTask task) {
  AccrueIdle();
  const int use_nodes = std::min(task.nodes_needed, pilot.nodes - pilot.busy_nodes);
  pilot.busy_nodes += use_nodes;
  const double runtime =
      perf_.SampleTotalTime(config_.cores_per_node, use_nodes, rng_);
  const double wait =
      (sim_.Now() - task.submitted).seconds() + config_.dispatch_overhead_s;
  const hpc::JobId pilot_id = pilot.job;
  auto done = task.done;
  sim_.Schedule(
      sim::SimTime::Seconds(config_.dispatch_overhead_s + runtime),
      [this, pilot_id, use_nodes, wait, runtime, done]() {
        AccrueIdle();
        auto it = pilots_.find(pilot_id);
        if (it != pilots_.end()) {
          it->second.busy_nodes =
              std::max(0, it->second.busy_nodes - use_nodes);
        }
        TaskResult r;
        r.wait_s = wait;
        r.runtime_s = runtime;
        r.ran_in_warm_pilot = true;
        r.nodes_used = use_nodes;
        ++tasks_completed_;
        if (done) done(r);
        DispatchPending();
      });
}

void PilotController::DispatchPending() {
  while (!pending_.empty()) {
    PendingTask& task = pending_.front();
    PilotState* best = nullptr;
    for (auto& [id, p] : pilots_) {
      if (!p.active || p.finished) continue;
      if (p.nodes - p.busy_nodes >= std::min(task.nodes_needed, p.nodes)) {
        best = &p;
        break;
      }
    }
    if (best == nullptr) return;
    PendingTask t = std::move(task);
    pending_.pop_front();
    RunInPilot(*best, std::move(t));
  }
}

void PilotController::SubmitTask(double data_bytes, TaskCallback done) {
  PendingTask task;
  task.data_bytes = data_bytes;
  task.nodes_needed = RequiredNodes(data_bytes);
  task.submitted = sim_.Now();
  task.done = std::move(done);
  if (flight_ != nullptr) {
    flight_->Note("pilot", "task submitted nodes=" +
                               std::to_string(task.nodes_needed));
  }

  if (config_.strategy == Strategy::kOnDemand) {
    RunOnDemand(std::move(task));
    return;
  }
  // Eq (3): submit a pilot when active capacity cannot absorb the task.
  if (ShouldSubmitPilot(data_bytes)) {
    bool have_queued_pilot = false;
    for (const auto& [id, p] : pilots_) {
      if (!p.active && !p.finished) have_queued_pilot = true;
    }
    if (!have_queued_pilot) SubmitPilot(task.nodes_needed);
  }
  pending_.push_back(std::move(task));
  DispatchPending();
}

bool PilotController::TrySubmitTask(double data_bytes, TaskCallback done) {
  if (config_.max_pending_tasks > 0 &&
      pending_.size() >= config_.max_pending_tasks) {
    ++tasks_rejected_;
    if (flight_ != nullptr) {
      flight_->Note("pilot", "task rejected: pending queue at cap " +
                                 std::to_string(config_.max_pending_tasks));
    }
    return false;
  }
  SubmitTask(data_bytes, std::move(done));
  return true;
}

}  // namespace xg::pilot
