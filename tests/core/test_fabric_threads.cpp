// One fabric, one thread: nothing a Fabric owns takes a lock, so two
// fabrics may run at once on two threads as long as they share nothing
// but the process-global log sink and contract state. Each concurrent
// run's exported bytes must equal its serial run's. The suite carries the
// "concurrent" label, so TSan checks that the two fabrics touch no shared
// unlocked state.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>

#include "core/fabric.hpp"
#include "obs/export.hpp"

namespace xg::core {
namespace {

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Hash of everything a chaos run exports: the Chrome trace, the
/// Prometheus text and the injected-fault counts. A front escalates to
/// full-fidelity CFD solves; a partition and WAN message loss drive
/// store-and-forward and CSPOT retries.
uint64_t RunHash(uint64_t seed) {
  FabricConfig cfg;
  cfg.seed = seed;
  cfg.cfd_mode = CfdMode::kFull;
  cfg.cfd_steps = 20;
  cfg.fault_plan = fault::FaultPlan(seed);
  cfg.fault_plan.Partition("unl", "unl-gw", 1000.0, 600.0);
  cfg.fault_plan.MessageLoss(fault::FaultPlan::LinkTarget("ucsb", "nd"),
                             5400.0, 1200.0, 0.3);
  Fabric fabric(cfg);
  fabric.ScheduleFront({.start_s = 2000.0, .ramp_s = 300.0, .d_wind_ms = 8.0});
  fabric.Run(3.0);
  EXPECT_GT(fabric.metrics().cfd_runs_completed, 0u) << "seed " << seed;
  EXPECT_GT(fabric.fault_injector()->injected_total(), 0u) << "seed " << seed;
  std::string out = obs::ToChromeTraceJson(fabric.tracer().Snapshot());
  out += obs::ToPrometheusText(fabric.registry().Snapshot());
  out += fabric.fault_injector()->FormatCounts();
  return Fnv1a(out);
}

TEST(FabricThreads, TwoSeedsOnTwoThreadsMatchTheirSerialRuns) {
  const uint64_t serial_a = RunHash(1);
  const uint64_t serial_b = RunHash(2);
  ASSERT_NE(serial_a, serial_b) << "the two seeds must give different runs";

  uint64_t a = 0, b = 0;
  {
    std::jthread ta([&a] { a = RunHash(1); });
    std::jthread tb([&b] { b = RunHash(2); });
  }
  EXPECT_EQ(a, serial_a);
  EXPECT_EQ(b, serial_b);
}

}  // namespace
}  // namespace xg::core
