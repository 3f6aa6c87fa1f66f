// Pins the tracer's export bytes: the Chrome trace JSON of a whole run and
// the critical-path table of one escalated reading, for a default-config
// day and for a chaos run with resilience spans. The expected hashes were
// captured from the string-keyed tracer this store replaced, so a
// mismatch means an export changed. On a mismatch the test prints span
// counts by name and the breakdown table; diff them against a build of
// the previous revision to find the change.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "hpc/site.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

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

struct Golden {
  size_t spans;
  uint64_t json_hash;
  uint64_t breakdown_hash;
};

/// The breakdown of the first trace that reached a CFD job.
std::string FirstEscalatedBreakdown(const std::vector<obs::SpanRecord>& spans) {
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "hpc.cfd") {
      return obs::FormatBreakdown(obs::BreakdownTrace(spans, s.trace_id));
    }
  }
  return "";
}

void ExpectGolden(Fabric& fabric, const Golden& want) {
  const std::vector<obs::SpanRecord> spans = fabric.tracer().Snapshot();
  const std::string json = obs::ToChromeTraceJson(spans);
  const std::string table = FirstEscalatedBreakdown(spans);
  std::map<std::string, size_t> by_name;
  for (const obs::SpanRecord& s : spans) ++by_name[s.name];
  std::string hint = "spans by name:\n";
  for (const auto& [name, n] : by_name) {
    hint += "  " + name + " " + std::to_string(n) + "\n";
  }
  hint += "json bytes " + std::to_string(json.size()) + "\n" + table;
  EXPECT_EQ(spans.size(), want.spans) << hint;
  EXPECT_EQ(Fnv1a(json), want.json_hash)
      << std::hex << "json hash 0x" << Fnv1a(json) << std::dec << "\n"
      << hint;
  EXPECT_FALSE(table.empty()) << hint;
  EXPECT_EQ(Fnv1a(table), want.breakdown_hash)
      << std::hex << "breakdown hash 0x" << Fnv1a(table) << std::dec << "\n"
      << hint;
}

TEST(TraceGolden, DefaultConfigDay) {
  FabricConfig cfg;
  cfg.seed = 5;
  Fabric fabric(cfg);
  fabric.ScheduleFront({.start_s = 8.0 * 3600.0, .ramp_s = 1800.0,
                        .d_wind_ms = 2.0, .d_temp_c = 1.5});
  fabric.ScheduleFront({.start_s = 18.0 * 3600.0, .ramp_s = 2400.0,
                        .d_wind_ms = -1.5, .d_temp_c = -2.5});
  fabric.Run(24.0);
  ExpectGolden(fabric, {4772, 0xb30f14297bfce6d7ull, 0xa474d626d947fb08ull});
}

TEST(TraceGolden, ChaosSeed) {
  FabricConfig cfg;
  cfg.seed = 3;
  cfg.site_probes = true;
  cfg.failover_site = hpc::PurdueAnvil();
  cfg.fault_plan = fault::FaultPlan(cfg.seed);
  cfg.fault_plan.Partition("unl", "unl-gw", 1000.0, 600.0);
  cfg.fault_plan.QueueStall(cfg.site.name, 2600.0, 6400.0);
  cfg.fault_plan.MessageLoss(fault::FaultPlan::LinkTarget("ucsb", "nd"),
                             5400.0, 1200.0, 0.3);
  Fabric fabric(cfg);
  fabric.ScheduleFront({.start_s = 2000.0, .ramp_s = 300.0, .d_wind_ms = 8.0});
  fabric.Run(6.0);
  ExpectGolden(fabric, {1165, 0xaaff33ae40e91d65ull, 0x75a5d1bdc1105f90ull});
}

}  // namespace
}  // namespace xg::core
