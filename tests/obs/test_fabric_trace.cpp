// Acceptance tests for the unified observability layer: one telemetry
// reading traced through Fabric::Run covers every pipeline stage, the
// trace exports as valid Chrome trace_event JSON, per-hop durations sum
// to the e2e latency in FabricMetrics, and the registry mirrors agree
// with the legacy counter structs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "json_check.hpp"
#include "obs/export.hpp"

namespace xg::core {
namespace {

using obs::SpanRecord;

std::map<uint64_t, std::set<std::string>> NamesByTrace(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::set<std::string>> out;
  for (const auto& s : spans) out[s.trace_id].insert(s.name);
  return out;
}

const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                           uint64_t trace_id, const std::string& name,
                           uint64_t parent_id) {
  for (const auto& s : spans) {
    if (s.trace_id == trace_id && s.name == name && s.parent_id == parent_id) {
      return &s;
    }
  }
  return nullptr;
}

TEST(FabricTrace, OneReadingTracedThroughAllSevenStages) {
  FabricConfig cfg;
  cfg.seed = 101;
  Fabric fabric(cfg);
  fabric.Run(3.0);
  ASSERT_GE(fabric.metrics().cfd_runs_completed, 1u);

  const std::vector<SpanRecord> spans = fabric.tracer().Snapshot();
  ASSERT_FALSE(spans.empty());

  // §4.4's decomposition: every stage of the journey in ONE trace.
  const std::vector<std::string> stages = {
      "telemetry",      // root: the reading's whole journey
      "sensor.read",    // CUPS measurement at UNL
      "net5g.access",   // the private-5G air hop
      "cspot.append",   // UNL -> UCSB replication
      "laminar.window", // change detection at UCSB
      "pilot.decision", // ND picks up the alert, sizes the task
      "hpc.cfd",        // batch job (queue wait + run)
      "twin.compare",   // prediction folded back into the twin
  };
  const std::map<uint64_t, std::set<std::string>> by_trace =
      NamesByTrace(spans);
  uint64_t full_trace = 0;
  for (const auto& [trace_id, names] : by_trace) {
    const bool all = std::all_of(
        stages.begin(), stages.end(),
        [&names](const std::string& s) { return names.count(s) > 0; });
    if (all) {
      full_trace = trace_id;
      break;
    }
  }
  ASSERT_NE(full_trace, 0u)
      << "no single trace covered all stages; traces seen: "
      << by_trace.size();

  // The same trace also carries the wired-hop and protocol-phase detail.
  const std::set<std::string>& names = by_trace.at(full_trace);
  EXPECT_TRUE(names.count("wan.hop"));
  EXPECT_TRUE(names.count("cspot.get_size"));
  EXPECT_TRUE(names.count("cspot.put"));
  EXPECT_TRUE(names.count("cspot.storage"));
  EXPECT_TRUE(names.count("cfd.solve"));
}

TEST(FabricTrace, HopDurationsSumToEndToEndLatency) {
  FabricConfig cfg;
  cfg.seed = 102;
  Fabric fabric(cfg);
  fabric.Run(1.0);
  const std::vector<SpanRecord> spans = fabric.tracer().Snapshot();
  const std::vector<double>& latencies =
      fabric.metrics().telemetry_latency_ms.samples();
  ASSERT_GE(latencies.size(), 10u);

  size_t checked = 0;
  for (const auto& root : spans) {
    if (root.name != "telemetry" || root.open()) continue;
    // The append under this root; its leaves are the physical hops.
    const SpanRecord* append =
        FindSpan(spans, root.trace_id, "cspot.append", root.span_id);
    ASSERT_NE(append, nullptr);
    EXPECT_EQ(append->duration_us(), root.duration_us());

    std::set<uint64_t> phase_ids;  // get_size / put under this append
    for (const auto& s : spans) {
      if (s.trace_id == root.trace_id && s.parent_id == append->span_id) {
        phase_ids.insert(s.span_id);
      }
    }
    int64_t leaf_us = 0;
    int hops = 0;
    for (const auto& s : spans) {
      if (s.trace_id != root.trace_id || !phase_ids.count(s.parent_id)) continue;
      if (s.name == "net5g.access" || s.name == "wan.hop" ||
          s.name == "cspot.storage") {
        leaf_us += s.duration_us();
        ++hops;
      }
    }
    // Over 5G: (air + wired) x 4 crossings of the two-phase protocol,
    // plus the storage append at the host.
    EXPECT_EQ(hops, 9);
    // Per-hop int64 truncation is sub-us per hop; the sum reproduces the
    // e2e latency.
    EXPECT_NEAR(static_cast<double>(leaf_us),
                static_cast<double>(root.duration_us()), 100.0);
    // And the root duration IS the latency sample FabricMetrics recorded.
    const double root_ms = static_cast<double>(root.duration_us()) / 1e3;
    const bool matches_a_sample =
        std::any_of(latencies.begin(), latencies.end(), [root_ms](double s) {
          return std::fabs(s - root_ms) < 0.01;
        });
    EXPECT_TRUE(matches_a_sample) << "no latency sample near " << root_ms;
    ++checked;
  }
  EXPECT_GE(checked, 10u);
}

TEST(FabricTrace, ExportsValidChromeTraceJson) {
  FabricConfig cfg;
  cfg.seed = 103;
  Fabric fabric(cfg);
  fabric.Run(1.0);
  const std::string json =
      obs::ToChromeTraceJson(fabric.tracer().Snapshot());
  EXPECT_TRUE(xg::testing::JsonChecker(json).Valid());
  EXPECT_NE(json.find("\"net5g.access\""), std::string::npos);
  EXPECT_NE(json.find("\"cspot.append\""), std::string::npos);
}

TEST(FabricTrace, RegistryMirrorsAgreeWithLegacyCounters) {
  FabricConfig cfg;
  cfg.seed = 104;
  Fabric fabric(cfg);
  fabric.Run(2.0);

  std::map<std::string, double> by_name;
  for (const auto& s : fabric.registry().Snapshot()) {
    if (s.labels.empty()) by_name[s.name] = s.value;
  }
  const FabricMetrics& m = fabric.metrics();
  const cspot::RuntimeCounters& rc = fabric.cspot_runtime().counters();
  EXPECT_EQ(by_name.at("xg_fabric_telemetry_frames_sent_total"),
            static_cast<double>(m.telemetry_frames_sent));
  EXPECT_EQ(by_name.at("xg_fabric_telemetry_frames_stored_total"),
            static_cast<double>(m.telemetry_frames_stored));
  EXPECT_EQ(by_name.at("xg_fabric_detection_cycles_total"),
            static_cast<double>(m.detection_cycles));
  EXPECT_EQ(by_name.at("xg_cspot_remote_appends_total"),
            static_cast<double>(rc.remote_appends));
  EXPECT_EQ(by_name.at("xg_cspot_puts_total"), static_cast<double>(rc.puts));
  EXPECT_EQ(by_name.at("xg_cspot_handler_fires_total"),
            static_cast<double>(rc.handler_fires));

  // Labeled component mirrors are present too.
  bool saw_site = false, saw_strategy = false;
  for (const auto& s : fabric.registry().Snapshot()) {
    for (const auto& [k, v] : s.labels) {
      saw_site |= (k == "site");
      saw_strategy |= (k == "strategy");
    }
  }
  EXPECT_TRUE(saw_site);
  EXPECT_TRUE(saw_strategy);

  // The latency histogram observed exactly the SampleSet's samples.
  const auto samples = fabric.registry().Snapshot();
  const auto hist =
      std::find_if(samples.begin(), samples.end(), [](const auto& s) {
        return s.name == "xg_fabric_telemetry_latency_ms";
      });
  ASSERT_NE(hist, samples.end());
  EXPECT_EQ(hist->hist.count, m.telemetry_latency_ms.count());
  EXPECT_NEAR(hist->hist.sum, m.telemetry_latency_ms.sum(), 1e-6);
}

TEST(FabricTrace, ObservabilityCanBeDisabled) {
  FabricConfig cfg;
  cfg.seed = 105;
  cfg.metrics_enabled = false;
  cfg.tracing_enabled = false;
  Fabric fabric(cfg);
  fabric.Run(1.0);
  EXPECT_GT(fabric.metrics().telemetry_frames_stored, 0u);
  EXPECT_EQ(fabric.tracer().span_count(), 0u);
  EXPECT_EQ(fabric.registry().Snapshot().size(), 0u);
}

TEST(FabricTrace, TracingDoesNotPerturbTheSimulation) {
  // Determinism guard: observability must be a pure observer — the same
  // seed with tracing on and off yields identical virtual-time results.
  FabricConfig on;
  on.seed = 106;
  FabricConfig off = on;
  off.metrics_enabled = false;
  off.tracing_enabled = false;
  Fabric a(on), b(off);
  a.Run(2.0);
  b.Run(2.0);
  EXPECT_EQ(a.metrics().telemetry_frames_stored,
            b.metrics().telemetry_frames_stored);
  EXPECT_EQ(a.metrics().alerts_raised, b.metrics().alerts_raised);
  EXPECT_DOUBLE_EQ(a.metrics().telemetry_latency_ms.mean(),
                   b.metrics().telemetry_latency_ms.mean());
}

}  // namespace
}  // namespace xg::core
