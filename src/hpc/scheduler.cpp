#include "hpc/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "obs/slo/flight.hpp"

namespace xg::hpc {

const char* JobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kCompleted: return "COMPLETED";
    case JobState::kTimedOut: return "TIMED_OUT";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

BatchScheduler::BatchScheduler(sim::Simulation& sim, SiteProfile site,
                               uint64_t seed)
    : sim_(sim), site_(std::move(site)), rng_(seed),
      free_nodes_(site_.nodes) {}

void BatchScheduler::AttachObservability(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const obs::Labels site_label = {{"site", site_.name}};
  registry->RegisterCounter("xg_hpc_jobs_started_total", site_label,
                            "Batch jobs started", &jobs_started_);
  registry->RegisterCallback(
      "xg_hpc_node_seconds_used_total", site_label,
      "Node-seconds consumed by finished jobs",
      [this] { return node_seconds_used_; },
      obs::MetricSample::Type::kCounter);
  registry->RegisterCallback(
      "xg_hpc_queue_length", site_label, "Jobs waiting in the batch queue",
      [this] { return static_cast<double>(queue_.size()); });
  registry->RegisterCallback(
      "xg_hpc_free_nodes", site_label, "Idle nodes at the site",
      [this] { return static_cast<double>(free_nodes_); });
}

void BatchScheduler::AttachFaultInjector(fault::FaultInjector& injector) {
  injector.OnWindow(
      fault::FaultKind::kQueueStall,
      [this](const fault::FaultEvent& e, bool begin) {
        if (!e.target.empty() && e.target != site_.name) return;
        stalled_ = begin;
        if (flight_ != nullptr) {
          flight_->Note("hpc", site_.name + (begin ? " queue stall begin"
                                                   : " queue stall end"));
        }
        // Window end: admit whatever queued up while stalled.
        if (!begin) TrySchedule();
      });
  injector.OnWindow(
      fault::FaultKind::kJobKill,
      [this](const fault::FaultEvent& e, bool begin) {
        if (!begin) return;  // instantaneous
        if (!e.target.empty() && e.target != site_.name) return;
        // Kill the newest running jobs first (descending id — the order a
        // preempting operator would evict), deterministically. Snapshot
        // the victims first: cancelling frees nodes, which can start a
        // queued job mid-loop, and that job must not join the victims.
        int to_kill = std::max(1, static_cast<int>(e.magnitude));
        std::vector<JobId> victims;
        for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) {
          if (it->second.state == JobState::kRunning) {
            victims.push_back(it->first);
          }
        }
        for (JobId id : victims) {
          if (to_kill <= 0) break;
          Status s = Cancel(id);
          if (s.ok()) {
            --to_kill;
            if (flight_ != nullptr) {
              flight_->Note("hpc", site_.name + " job " +
                                       std::to_string(id) + " killed");
            }
          }
        }
      });
}

JobId BatchScheduler::Submit(const JobSpec& spec, JobCallback on_start,
                             JobCallback on_end) {
  JobInfo info;
  info.id = next_id_++;
  info.spec = spec;
  info.spec.nodes = std::clamp(spec.nodes, 1, site_.nodes);
  info.spec.walltime_s =
      std::min(spec.walltime_s, site_.max_walltime_h * 3600.0);
  info.state = JobState::kQueued;
  info.submit_time = sim_.Now();
  const JobId id = info.id;
  jobs_[id] = info;
  if (on_start) on_start_[id] = std::move(on_start);
  if (on_end) on_end_[id] = std::move(on_end);
  queue_.push_back(id);
  // Scheduling pass runs after the submit "returns" (same virtual instant).
  sim_.Schedule(sim::SimTime::Micros(0), [this]() { TrySchedule(); });
  return id;
}

Status BatchScheduler::Cancel(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status(ErrorCode::kNotFound, "no such job");
  JobInfo& job = it->second;
  if (job.state == JobState::kQueued) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
    job.state = JobState::kCancelled;
    job.end_time = sim_.Now();
    return Status::Ok();
  }
  if (job.state == JobState::kRunning) {
    auto ev = end_events_.find(id);
    if (ev != end_events_.end()) {
      sim_.Cancel(ev->second);
      end_events_.erase(ev);
    }
    FinishJob(id, JobState::kCancelled);
    return Status::Ok();
  }
  return Status(ErrorCode::kFailedPrecondition, "job already finished");
}

const JobInfo* BatchScheduler::Get(JobId id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

void BatchScheduler::StartJob(JobId id) {
  JobInfo& job = jobs_[id];
  job.state = JobState::kRunning;
  job.start_time = sim_.Now();
  free_nodes_ -= job.spec.nodes;
  ++jobs_started_;
  auto cb = on_start_.find(id);
  if (cb != on_start_.end()) cb->second(job);

  const bool times_out = job.spec.runtime_s > job.spec.walltime_s;
  const double run_for = std::min(job.spec.runtime_s, job.spec.walltime_s);
  end_events_[id] = sim_.Schedule(
      sim::SimTime::Seconds(run_for), [this, id, times_out]() {
        end_events_.erase(id);
        FinishJob(id, times_out ? JobState::kTimedOut : JobState::kCompleted);
      });
}

void BatchScheduler::FinishJob(JobId id, JobState final_state) {
  JobInfo& job = jobs_[id];
  job.state = final_state;
  job.end_time = sim_.Now();
  free_nodes_ += job.spec.nodes;
  node_seconds_used_ += job.spec.nodes * (job.end_time - job.start_time).seconds();
  auto cb = on_end_.find(id);
  if (cb != on_end_.end()) cb->second(job);
  TrySchedule();
}

void BatchScheduler::TrySchedule() {
  // An injected queue stall freezes admission entirely: nodes released by
  // finishing jobs stay idle until the stall window ends.
  if (stalled_) return;
  // FIFO head; EASY backfill behind it.
  while (!queue_.empty()) {
    const JobId head = queue_.front();
    const JobInfo& job = jobs_[head];
    if (job.spec.nodes <= free_nodes_) {
      queue_.pop_front();
      StartJob(head);
      continue;
    }
    break;
  }
  if (queue_.empty()) return;

  // Shadow time: when will the head job be able to start, assuming running
  // jobs release nodes at their walltime.
  const JobInfo& head = jobs_[queue_.front()];
  struct Release {
    double t;
    int nodes;
  };
  std::vector<Release> releases;
  for (const auto& [id, job] : jobs_) {
    if (job.state != JobState::kRunning) continue;
    const double end_by =
        (job.start_time - sim_.Now()).seconds() + job.spec.walltime_s;
    releases.push_back({std::max(0.0, end_by), job.spec.nodes});
  }
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) { return a.t < b.t; });
  int avail = free_nodes_;
  double shadow = 0.0;
  int shadow_free = free_nodes_;  // nodes free at shadow time
  for (const Release& r : releases) {
    avail += r.nodes;
    if (avail >= head.spec.nodes) {
      shadow = r.t;
      shadow_free = avail - head.spec.nodes;
      break;
    }
  }

  // Backfill: a later job may start now if it fits the current free nodes
  // and either finishes (by walltime) before the shadow time or fits in
  // the nodes left over after the head's reservation.
  for (auto it = std::next(queue_.begin()); it != queue_.end();) {
    const JobId id = *it;
    const JobInfo& job = jobs_[id];
    const bool fits_now = job.spec.nodes <= free_nodes_;
    const bool respects_reservation =
        job.spec.walltime_s <= shadow || job.spec.nodes <= shadow_free;
    if (fits_now && respects_reservation) {
      it = queue_.erase(it);
      StartJob(id);
      // Node counts changed; conservative: stop backfilling this pass.
      break;
    }
    ++it;
  }
}

double BatchScheduler::EstimateWaitS(int nodes) const {
  // Simulate FIFO drain: running jobs release nodes at walltime; queued
  // jobs ahead consume them in order; we start when `nodes` are free.
  struct Release {
    double t;
    int nodes;
  };
  std::vector<Release> releases;
  for (const auto& [id, job] : jobs_) {
    if (job.state != JobState::kRunning) continue;
    releases.push_back(
        {std::max(0.0, (job.start_time - sim_.Now()).seconds() +
                           job.spec.walltime_s),
         job.spec.nodes});
  }
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) { return a.t < b.t; });

  int avail = free_nodes_;
  double now = 0.0;
  size_t ri = 0;
  auto advance_until = [&](int needed) {
    while (avail < needed && ri < releases.size()) {
      now = std::max(now, releases[ri].t);
      avail += releases[ri].nodes;
      ++ri;
    }
  };
  for (JobId id : queue_) {
    const JobInfo& job = jobs_.at(id);
    advance_until(job.spec.nodes);
    if (avail < job.spec.nodes) return site_.max_walltime_h * 3600.0;
    avail -= job.spec.nodes;
    // Queued job occupies until its walltime; model as a future release.
    releases.push_back({now + job.spec.walltime_s, job.spec.nodes});
    std::sort(releases.begin() + static_cast<long>(ri), releases.end(),
              [](const Release& a, const Release& b) { return a.t < b.t; });
  }
  advance_until(nodes);
  if (avail < nodes) return site_.max_walltime_h * 3600.0;
  return now;
}

void BatchScheduler::StartBackgroundLoad(sim::SimTime until,
                                         BackgroundLoadParams params) {
  // Arrival rate so that lambda * E[nodes * runtime] = util * total nodes.
  // The lognormal runtime draw below already has mean = mean_runtime_s
  // (mu is sigma-corrected), so no extra moment factor belongs here.
  const double work_per_job = params.mean_nodes * params.mean_runtime_s;
  const double lambda =
      site_.background_utilization * site_.nodes / work_per_job;
  const double mean_interarrival_s = 1.0 / lambda;

  // Self-rescheduling arrival event.
  struct Arrival {
    BatchScheduler* sched;
    sim::SimTime until;
    BackgroundLoadParams params;
    double mean_interarrival_s;
    void operator()() const {
      BatchScheduler& s = *sched;
      if (s.sim_.Now() > until) return;
      JobSpec spec;
      spec.name = "background";
      spec.nodes = 1 + static_cast<int>(s.rng_.Exponential(params.mean_nodes - 1.0));
      spec.nodes = std::min(spec.nodes, std::max(1, s.site_.nodes / 2));
      const double mu = std::log(params.mean_runtime_s) -
                        params.runtime_sigma * params.runtime_sigma / 2.0;
      spec.runtime_s = s.rng_.LogNormal(mu, params.runtime_sigma);
      spec.walltime_s = spec.runtime_s * params.walltime_slack;
      s.Submit(spec);
      s.sim_.Schedule(
          sim::SimTime::Seconds(s.rng_.Exponential(mean_interarrival_s)),
          Arrival{sched, until, params, mean_interarrival_s});
    }
  };
  sim_.Schedule(sim::SimTime::Seconds(rng_.Exponential(mean_interarrival_s)),
                Arrival{this, until, params, mean_interarrival_s});
}

}  // namespace xg::hpc
