// Chaos tour: the telemetry replication path under a scripted fault plan.
//
// Demonstrates the fault-injection fabric end to end:
//   - a FaultPlan scripting three WAN partitions, a source power loss, a
//     lossy window, and a duplication window, all on the virtual clock;
//   - the unified failure surface: each layer reports through Status /
//     FaultOutcome, and the replicator aggregates a DeliveryReport;
//   - seed reproducibility: the same --seed prints byte-identical output
//     (delivered sequence and xg_fault_injected_total counts included),
//     which is the property the chaos CI suites assert.
//
// Part 2 runs the full fabric through the resilience acceptance scenario
// (a 10-minute 5G outage plus an interactive-queue stall), prints the
// degraded-mode recovery timeline, and asserts the store-and-forward
// buffer drained within its probing deadline after the outage ended.
//
// Usage: chaos_demo [--seed N]
// Exit code 0 when every invariant held, 1 otherwise.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "cspot/replicate.hpp"
#include "cspot/runtime.hpp"
#include "fault/injector.hpp"
#include "hpc/site.hpp"
#include "obs/metrics.hpp"
#include "resil/breaker.hpp"
#include "resil/degraded.hpp"

namespace {

struct RunOutput {
  std::vector<uint8_t> accepted;
  std::vector<uint8_t> delivered;
  xg::cspot::DeliveryReport report;
  std::string counts;
  size_t dst_size = 0;
};

RunOutput RunScenario(uint64_t seed) {
  using namespace xg;
  using namespace xg::cspot;

  sim::Simulation sim;
  Runtime rt(sim, seed);
  rt.AddNode("edge");
  rt.AddNode("repo");
  LinkParams link;
  link.one_way_ms = 10.0;
  link.jitter_ms = 1.0;
  link.bandwidth_mbps = 0.0;
  (void)rt.wan().AddLink("edge", "repo", link);
  (void)rt.CreateLog("edge", LogConfig{"telemetry", 16, 512});
  (void)rt.CreateLog("repo", LogConfig{"telemetry", 16, 512});

  const std::string pair = fault::FaultPlan::LinkTarget("edge", "repo");
  fault::FaultPlan plan(seed);
  plan.Partition("edge", "repo", 10.0, 10.0)
      .Partition("edge", "repo", 40.0, 10.0)
      .Partition("edge", "repo", 70.0, 10.0)
      .PowerLoss("edge", 55.0, 5.0, 0)
      .MessageLoss(pair, 90.0, 10.0, 0.4)
      .Duplicate(pair, 105.0, 10.0, 0.5, 3.0);
  std::printf("%s", plan.Describe().c_str());

  obs::MetricsRegistry registry;
  fault::FaultInjector injector(plan);
  injector.AttachObservability(&registry, nullptr);
  rt.AttachFaultInjector(injector);
  injector.Arm(sim);

  RunOutput out;
  (void)rt.RegisterHandler("repo", "telemetry",
                           [&out](const std::string&, SeqNo,
                                  const std::vector<uint8_t>& payload) {
                             out.delivered.push_back(payload[0]);
                           });

  AppendOptions opts;
  opts.retry.max_attempts = 200;
  opts.retry.attempt_timeout_ms = 300.0;
  auto repl =
      Replicator::Create(rt, "edge", "telemetry", "repo", "telemetry", opts);
  if (!repl.ok()) {
    std::printf("replicator: %s\n", repl.status().ToString().c_str());
    return out;
  }

  for (int i = 0; i < 60; ++i) {
    sim.ScheduleAt(sim::SimTime::Seconds(2.0 * i), [&rt, &out, i]() {
      const auto id = static_cast<uint8_t>(i);
      Result<SeqNo> seq =
          rt.LocalAppend("edge", "telemetry", std::vector<uint8_t>{id});
      if (seq.ok()) out.accepted.push_back(id);
    });
  }
  sim.Run();
  repl.value()->Recover();
  sim.Run();

  out.report = repl.value()->report();
  out.counts = injector.FormatCounts();
  out.dst_size = rt.GetNode("repo")->GetLog("telemetry")->Size();
  return out;
}

// Part 2: the fabric-level acceptance scenario. A 10-minute 5G access
// outage starting at t=1000 s, then the interactive site's queue stalls
// from t=2600 s for the rest of the run; site probes on (they drive the
// failover), Purdue Anvil standing by as the batch failover target.
struct FabricRunOutput {
  uint64_t sent = 0, buffered = 0, drained = 0;
  uint64_t stale_served = 0, failovers = 0, cfd_runs = 0;
  double recovery_s = -1.0;  ///< outage end -> first drained delivery
  double recovery_deadline_s = 0.0;
  uint64_t breaker_opens = 0;
  bool breaker_closed = false;
  std::string timeline;
};

FabricRunOutput RunFabricScenario(uint64_t seed) {
  using namespace xg;
  using namespace xg::core;

  constexpr double kOutageStartS = 1000.0;
  constexpr double kOutageDurationS = 600.0;

  FabricConfig cfg;
  cfg.seed = seed;
  cfg.site_probes = true;
  cfg.failover_site = hpc::PurdueAnvil();
  cfg.fault_plan = fault::FaultPlan(seed);
  cfg.fault_plan.Partition("unl", "unl-gw", kOutageStartS, kOutageDurationS);
  cfg.fault_plan.QueueStall("ND-CRC", 2600.0, 6'400.0);

  Fabric fabric(cfg);
  fabric.ScheduleFront({.start_s = 2000.0, .ramp_s = 300.0, .d_wind_ms = 8.0});

  FabricRunOutput out;
  // The drain probe wakes every kStoreForwardProbeS; recovery must land
  // within one probe period (plus transfer slack) of the outage ending.
  out.recovery_deadline_s = kStoreForwardProbeS + 5.0;
  const double outage_end_s = kOutageStartS + kOutageDurationS;
  fabric.on_frame_stored = [&out, outage_end_s](double time_s, bool drained) {
    if (drained && out.recovery_s < 0.0) {
      out.recovery_s = time_s - outage_end_s;
    }
  };
  fabric.Run(3.0);

  const FabricMetrics& m = fabric.metrics();
  out.sent = m.telemetry_frames_sent;
  out.buffered = m.telemetry_frames_buffered;
  out.drained = m.telemetry_frames_drained;
  out.stale_served = m.stale_advisories_served;
  out.failovers = m.site_failovers;
  out.cfd_runs = m.cfd_runs_completed;
  out.timeline = fabric.degraded_modes().FormatTimeline();
  resil::CircuitBreaker* brk =
      fabric.cspot_runtime().wan().breaker("unl", "ucsb");
  if (brk != nullptr) {
    out.breaker_opens = brk->transitions_to(resil::BreakerState::kOpen);
    out.breaker_closed = brk->StateAt(fabric.simulation().Now().micros()) ==
                         resil::BreakerState::kClosed;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
  }

  const RunOutput out = RunScenario(seed);

  std::printf("\naccepted at source: %zu of 60 (power loss rejected the rest)\n",
              out.accepted.size());
  std::printf("delivered at destination, in order:\n ");
  for (uint8_t id : out.delivered) std::printf(" %u", id);
  std::printf("\n\nDeliveryReport: shipped=%llu deduped=%llu retries=%llu "
              "failed=%llu recovery_shipped=%llu last_acked=%lld\n",
              static_cast<unsigned long long>(out.report.shipped),
              static_cast<unsigned long long>(out.report.deduped),
              static_cast<unsigned long long>(out.report.retries),
              static_cast<unsigned long long>(out.report.failed),
              static_cast<unsigned long long>(out.report.recovery_shipped),
              static_cast<long long>(out.report.last_acked_contiguous));
  std::printf("\ninjected fault counts:\n%s\n", out.counts.c_str());

  // Exactly-once: every accepted id delivered exactly once.
  std::vector<uint8_t> sorted = out.delivered;
  std::sort(sorted.begin(), sorted.end());
  const bool unique =
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
  const bool complete = sorted == out.accepted;
  const bool pass = unique && complete && out.dst_size == out.accepted.size();
  std::printf("exactly-once invariant: %s (unique=%s complete=%s dst=%zu)\n",
              pass ? "PASS" : "FAIL", unique ? "yes" : "no",
              complete ? "yes" : "no", out.dst_size);

  // --- Part 2: fabric recovery timeline under outage + queue stall ---
  std::printf("\n=== fabric resilience scenario (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));
  const FabricRunOutput fab = RunFabricScenario(seed);
  std::printf("telemetry: sent=%llu buffered=%llu drained=%llu\n",
              static_cast<unsigned long long>(fab.sent),
              static_cast<unsigned long long>(fab.buffered),
              static_cast<unsigned long long>(fab.drained));
  std::printf("cfd runs=%llu stale advisories served=%llu "
              "site failovers=%llu\n",
              static_cast<unsigned long long>(fab.cfd_runs),
              static_cast<unsigned long long>(fab.stale_served),
              static_cast<unsigned long long>(fab.failovers));
  std::printf("access breaker (unl|ucsb): opens=%llu final_state=%s\n",
              static_cast<unsigned long long>(fab.breaker_opens),
              fab.breaker_closed ? "closed" : "not-closed");
  std::printf("\nrecovery timeline:\n%s", fab.timeline.c_str());

  const bool drained_all = fab.buffered > 0 && fab.drained == fab.buffered;
  const bool recovered_in_time =
      fab.recovery_s >= 0.0 && fab.recovery_s <= fab.recovery_deadline_s;
  const bool failed_over = fab.failovers >= 1 && fab.cfd_runs >= 2;
  std::printf("\nstore-and-forward drain:   %s (%llu/%llu frames)\n",
              drained_all ? "PASS" : "FAIL",
              static_cast<unsigned long long>(fab.drained),
              static_cast<unsigned long long>(fab.buffered));
  std::printf("recovery before deadline:  %s (%.1f s, deadline %.1f s)\n",
              recovered_in_time ? "PASS" : "FAIL", fab.recovery_s,
              fab.recovery_deadline_s);
  std::printf("interactive->batch failover: %s (%llu episodes)\n",
              failed_over ? "PASS" : "FAIL",
              static_cast<unsigned long long>(fab.failovers));
  std::printf("breaker recovered:         %s\n",
              fab.breaker_closed && fab.breaker_opens >= 1 ? "PASS" : "FAIL");

  const bool fab_pass = drained_all && recovered_in_time && failed_over &&
                        fab.breaker_closed && fab.breaker_opens >= 1;
  return pass && fab_pass ? 0 : 1;
}
