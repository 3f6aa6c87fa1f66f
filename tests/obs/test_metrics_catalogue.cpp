// Pins the fabric's export catalogue: which series exist, with which
// labels, type and help text. Values are left out so the hash does not
// depend on floating-point results across build types. A change to the
// catalogue is an export change and must be deliberate; on a mismatch the
// test prints the catalogue so the new expectation can be reviewed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "hpc/site.hpp"
#include "obs/metrics.hpp"

namespace xg::core {
namespace {

const char* TypeName(obs::MetricSample::Type t) {
  switch (t) {
    case obs::MetricSample::Type::kCounter: return "counter";
    case obs::MetricSample::Type::kGauge: return "gauge";
    case obs::MetricSample::Type::kHistogram: return "histogram";
  }
  return "?";
}

/// One sorted `name{k="v",...} type help` line per exported series.
std::vector<std::string> Catalogue(const obs::MetricsRegistry& registry) {
  std::vector<std::string> lines;
  for (const obs::MetricSample& s : registry.Snapshot()) {
    std::string line = s.name + "{";
    for (const auto& [k, v] : s.labels) line += k + "=\"" + v + "\",";
    line += "} ";
    line += TypeName(s.type);
    line += " " + s.help;
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

uint64_t Fnv1a(const std::vector<std::string>& lines) {
  uint64_t h = 14695981039346656037ull;
  for (const std::string& line : lines) {
    for (unsigned char c : line + "\n") {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  return h;
}

void ExpectCatalogue(Fabric& fabric, size_t series, uint64_t hash) {
  const std::vector<std::string> lines = Catalogue(fabric.registry());
  std::string dump;
  for (const std::string& line : lines) dump += line + "\n";
  EXPECT_EQ(lines.size(), series) << dump;
  EXPECT_EQ(Fnv1a(lines), hash) << std::hex << "hash 0x" << Fnv1a(lines)
                                << std::dec << "\n" << dump;
}

TEST(MetricsCatalogue, DefaultFabric) {
  FabricConfig cfg;
  cfg.seed = 7;
  Fabric fabric(cfg);
  fabric.Run(4.0);
  ExpectCatalogue(fabric, 93, 0xed6d93aaa9e8aa86ull);
}

TEST(MetricsCatalogue, ChaosServeAndFailoverFabric) {
  FabricConfig cfg;
  cfg.seed = 7;
  cfg.site_probes = true;
  cfg.failover_site = hpc::PurdueAnvil();
  cfg.serve.enabled = true;
  cfg.fault_plan = fault::FaultPlan(cfg.seed);
  cfg.fault_plan.Partition("unl-gw", "ucsb", 1800.0, 600.0);
  cfg.fault_plan.QueueStall(cfg.site.name, 3600.0, 1800.0);
  cfg.fault_plan.MessageLoss(fault::FaultPlan::LinkTarget("ucsb", "nd"),
                             5400.0, 1200.0, 0.3);
  Fabric fabric(cfg);
  fabric.Run(4.0);
  ExpectCatalogue(fabric, 125, 0x6cbca72c1ae1c14bull);
}

}  // namespace
}  // namespace xg::core
