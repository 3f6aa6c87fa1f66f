#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xg::obs {
namespace {

using xg::testing::JsonChecker;

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(PrometheusText, CountersGaugesAndLabels) {
  MetricsRegistry reg;
  const uint64_t retries = 3;
  reg.RegisterCounter("xg_cspot_retries_total", {{"path", "unl-ucsb"}},
                      "Append retries", &retries);
  reg.RegisterCallback("xg_hpc_free_nodes", {}, "Idle nodes",
                       [] { return 12.0; });

  const std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# HELP xg_cspot_retries_total Append retries\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xg_cspot_retries_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("xg_cspot_retries_total{path=\"unl-ucsb\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xg_hpc_free_nodes gauge\n"), std::string::npos);
  EXPECT_NE(text.find("xg_hpc_free_nodes 12\n"), std::string::npos);
}

TEST(PrometheusText, HistogramBucketsAreCumulativeWithInf) {
  // Registry histograms record microseconds and export the non-empty
  // buckets' upper edges in milliseconds: 500 us lands in [496, 511] us,
  // 5 ms in [4864, 5119] us and 99 ms in [98304, 102399] us.
  MetricsRegistry reg;
  Histogram h;
  reg.RegisterHistogram("xg_lat_ms", {}, "latency", &h);
  h.Record(500);
  h.Record(5000);
  h.Record(5000);
  h.Record(99000);

  const std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("xg_lat_ms_bucket{le=\"0.511\"} 1\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("xg_lat_ms_bucket{le=\"5.119\"} 3\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("xg_lat_ms_bucket{le=\"102.399\"} 4\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("xg_lat_ms_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("xg_lat_ms_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("xg_lat_ms_sum 109.5\n"), std::string::npos);
}

TEST(PrometheusText, TypeHeaderEmittedOncePerFamily) {
  MetricsRegistry reg;
  const uint64_t one = 1;
  reg.RegisterCounter("xg_fam_total", {{"path", "a"}}, "", &one);
  reg.RegisterCounter("xg_fam_total", {{"path", "b"}}, "", &one);
  const std::string text = ToPrometheusText(reg.Snapshot());
  size_t first = text.find("# TYPE xg_fam_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE xg_fam_total", first + 1), std::string::npos);
}

TEST(MetricsJson, IsValidJsonWithAllInstrumentKinds) {
  MetricsRegistry reg;
  const uint64_t two = 2;
  Histogram h;
  h.Record(1000);
  reg.RegisterCounter("xg_c_total", {{"k", "v\"quoted\""}}, "", &two);
  reg.RegisterCallback("xg_g", {}, "", [] { return 0.25; });
  reg.RegisterHistogram("xg_h_ms", {}, "", &h);
  const std::string json = MetricsToJson(reg.Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"name\":\"xg_c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);
}

TEST(MetricsJson, EmptySnapshotIsEmptyArray) {
  EXPECT_EQ(MetricsToJson({}), "[]");
}

TEST(ChromeTrace, ValidJsonWithThreadNamesAndCompleteEvents) {
  int64_t now = 0;
  Tracer tracer;
  tracer.set_clock([&now] { return now; });

  TraceContext root = tracer.StartTrace(SpanName::kTelemetry);
  now = 40;
  tracer.RecordHop(SpanName::kNet5gAccess, root, 0, 21000,
                   HopPayload{tracer.Label("unl"), tracer.Label("unl-gw"), 64,
                              false});
  ASSERT_EQ(tracer.span_count(), 2u);
  now = 50000;
  tracer.EndSpan(root);
  TraceContext open_span = tracer.StartTrace(SpanName::kTelemetry);
  ASSERT_TRUE(open_span.valid());

  const std::string json = ToChromeTraceJson(tracer.Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Container shape + metadata events naming the component lanes.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"net5g\"}"), std::string::npos);
  // Complete events with explicit duration; hop kept its recorded times.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":21000"), std::string::npos);
  EXPECT_NE(json.find("\"from\":\"unl\""), std::string::npos);
  // The unfinished span is flagged rather than dropped.
  EXPECT_NE(json.find("\"open\":\"true\""), std::string::npos);
}

TEST(ChromeTrace, EmptySnapshot) {
  const std::string json = ToChromeTraceJson({});
  EXPECT_TRUE(JsonChecker(json).Valid());
  EXPECT_EQ(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

}  // namespace
}  // namespace xg::obs
