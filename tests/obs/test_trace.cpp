#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "common/contract.hpp"

namespace xg::obs {
namespace {

/// Tracer bound to a hand-cranked clock, standing in for the virtual
/// simulation clock.
struct ManualClockTracer {
  int64_t now_us = 0;
  Tracer tracer;
  ManualClockTracer() {
    tracer.set_clock([this] { return now_us; });
  }
};

TEST(Tracer, RootAndChildSpansNestUnderTheVirtualClock) {
  ManualClockTracer t;
  t.now_us = 100;
  TraceContext root = t.tracer.StartTrace(SpanName::kTelemetry);
  ASSERT_TRUE(root.valid());

  t.now_us = 150;
  TraceContext child = t.tracer.StartSpan(SpanName::kCspotAppend, root);
  ASSERT_TRUE(child.valid());
  EXPECT_EQ(child.trace_id, root.trace_id);

  t.now_us = 400;
  t.tracer.EndSpan(child);
  t.now_us = 500;
  t.tracer.EndSpan(root);

  auto spans = t.tracer.TraceSpans(root.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  // Ordered by start time: root first.
  EXPECT_EQ(spans[0].name, "telemetry");
  EXPECT_EQ(spans[0].component, "fabric");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].start_us, 100);
  EXPECT_EQ(spans[0].duration_us(), 400);
  EXPECT_EQ(spans[1].name, "cspot.append");
  EXPECT_EQ(spans[1].component, "cspot");
  EXPECT_EQ(spans[1].parent_id, root.span_id);
  EXPECT_EQ(spans[1].duration_us(), 250);
}

TEST(Tracer, EndSpanIsIdempotent) {
  ManualClockTracer t;
  TraceContext root = t.tracer.StartTrace(SpanName::kTelemetry);
  t.now_us = 10;
  t.tracer.EndSpan(root);
  t.now_us = 99;
  t.tracer.EndSpan(root);  // already closed: no-op
  auto spans = t.tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].end_us, 10);
}

TEST(Tracer, InvalidContextPropagatesAsNoOp) {
  ManualClockTracer t;
  TraceContext invalid;
  EXPECT_FALSE(invalid.valid());
  TraceContext child = t.tracer.StartSpan(SpanName::kSensorRead, invalid);
  EXPECT_FALSE(child.valid());
  t.tracer.EndSpan(child);
  t.tracer.Annotate(child, "k", "v");
  t.tracer.AnnotateInt(child, "k", 1);
  TraceContext rec =
      t.tracer.RecordSpan(SpanName::kCspotStorage, invalid, 0, 10);
  EXPECT_FALSE(rec.valid());
  t.tracer.RecordHop(SpanName::kWanHop, invalid, 0, 10, HopPayload{});
  EXPECT_EQ(t.tracer.span_count(), 0u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  ManualClockTracer t;
  t.tracer.set_enabled(false);
  TraceContext root = t.tracer.StartTrace(SpanName::kTelemetry);
  EXPECT_FALSE(root.valid());
  EXPECT_EQ(t.tracer.span_count(), 0u);
}

TEST(Tracer, RecordSpanKeepsExplicitTimes) {
  // WAN hops sample their latency up front; RecordSpan back-fills the
  // exact interval even though the call happens at departure time.
  ManualClockTracer t;
  TraceContext root = t.tracer.StartTrace(SpanName::kTelemetry);
  const HopPayload hop{t.tracer.Label("unl"), t.tracer.Label("unl-gw"), 840,
                       false};
  t.tracer.RecordHop(SpanName::kNet5gAccess, root, 1000, 22000, hop);
  TraceContext job =
      t.tracer.RecordSpan(SpanName::kHpcCfd, root, 30000, 90000);
  ASSERT_TRUE(job.valid());
  auto spans = t.tracer.TraceSpans(root.trace_id);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].start_us, 1000);
  EXPECT_EQ(spans[1].end_us, 22000);
  ASSERT_EQ(spans[1].args.size(), 3u);
  EXPECT_EQ(spans[1].args[0].second, "unl");
  EXPECT_EQ(spans[2].span_id, job.span_id);
  EXPECT_EQ(spans[2].start_us, 30000);
  EXPECT_EQ(spans[2].end_us, 90000);
}

TEST(Tracer, HopPayloadExportsFromToBytesAndLost) {
  ManualClockTracer t;
  TraceContext root = t.tracer.StartTrace(SpanName::kTelemetry);
  const LabelId unl = t.tracer.Label("unl"), gw = t.tracer.Label("unl-gw");
  t.tracer.RecordHop(SpanName::kNet5gAccess, root, 10, 30,
                     HopPayload{unl, gw, 1200, false});
  t.tracer.RecordHop(SpanName::kWanHop, root, 30, 20,
                     HopPayload{gw, unl, 18446744073709551615ull, true});
  const auto spans = t.tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  using Args = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(spans[1].name, "net5g.access");
  EXPECT_EQ(spans[1].component, "net5g");
  EXPECT_EQ(spans[1].args,
            (Args{{"from", "unl"}, {"to", "unl-gw"}, {"bytes", "1200"}}));
  EXPECT_EQ(spans[2].name, "wan.hop");
  EXPECT_EQ(spans[2].component, "wan");
  EXPECT_EQ(spans[2].args, (Args{{"from", "unl-gw"},
                                 {"to", "unl"},
                                 {"bytes", "18446744073709551615"},
                                 {"lost", "true"}}));
  // An end before the start clamps to a zero-length crossing.
  EXPECT_EQ(spans[2].end_us, 30);
  // Later annotations follow the hop payload.
  t.tracer.AnnotateInt(TraceContext{root.trace_id, spans[1].span_id}, "n", 7);
  EXPECT_EQ(t.tracer.Snapshot()[1].args.back(),
            (std::pair<std::string, std::string>{"n", "7"}));
}

TEST(Tracer, AnnotationsAttachToOpenAndClosedSpans) {
  ManualClockTracer t;
  TraceContext root = t.tracer.StartTrace(SpanName::kTelemetry);
  t.tracer.Annotate(root, "while_open", "1");
  t.tracer.EndSpan(root);
  t.tracer.Annotate(root, "after_close", "2");
  auto spans = t.tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].args.size(), 2u);
  EXPECT_EQ(spans[0].args[1].first, "after_close");
}

TEST(Tracer, CapacityBoundsMemoryAndCountsDrops) {
  ManualClockTracer t;
  t.tracer.set_capacity(3);
  for (int i = 0; i < 5; ++i) t.tracer.StartTrace(SpanName::kTelemetry);
  EXPECT_EQ(t.tracer.span_count(), 3u);
  EXPECT_EQ(t.tracer.dropped(), 2u);
  t.tracer.Clear();
  EXPECT_EQ(t.tracer.span_count(), 0u);
  EXPECT_TRUE(t.tracer.TraceIds().empty());
}

TEST(Tracer, OrderingWithinTraceIsByStartTime) {
  ManualClockTracer t;
  t.now_us = 0;
  TraceContext root = t.tracer.StartTrace(SpanName::kTelemetry);
  t.now_us = 300;
  TraceContext late = t.tracer.StartSpan(SpanName::kLaminarWindow, root);
  // Recorded after `late` but starting earlier.
  t.tracer.RecordSpan(SpanName::kSensorRead, root, 100, 200);
  t.tracer.EndSpan(late);
  t.tracer.EndSpan(root);
  auto spans = t.tracer.TraceSpans(root.trace_id);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "telemetry");
  EXPECT_EQ(spans[1].name, "sensor.read");
  EXPECT_EQ(spans[2].name, "laminar.window");
}

TEST(Tracer, SpanNameTableIsUniqueAndNamespacedByComponent) {
  std::set<std::string> names;
  for (int i = 0; i < kSpanNameCount; ++i) {
    const auto n = static_cast<SpanName>(i);
    const std::string name = SpanNameText(n);
    const std::string component = SpanComponent(n);
    EXPECT_TRUE(names.insert(name).second) << name;
    EXPECT_FALSE(component.empty()) << name;
    // Every span but the fabric's root and sensor.read (component
    // "sensors") is named <component>.<what>.
    if (n != SpanName::kTelemetry && n != SpanName::kSensorRead) {
      EXPECT_EQ(name.rfind(component + ".", 0), 0u) << name;
    }
  }
  EXPECT_EQ(SpanNameText(SpanName::kFaultJobKill),
            std::string("fault.job_kill"));
  EXPECT_EQ(SpanNameText(SpanName::kResilBreakerOpen),
            std::string("resil.breaker_open"));
}

TEST(Tracer, TypedAnnotationsExportInToStringText) {
  ManualClockTracer t;
  TraceContext root = t.tracer.StartTrace(SpanName::kTelemetry);
  const std::string long_text(40000, 'x');  // longer than one text chunk
  t.tracer.AnnotateInt(root, "neg", -42);
  t.tracer.AnnotateInt(root, "big", int64_t{1} << 40);
  t.tracer.AnnotateDouble(root, "tenth", 0.1);
  t.tracer.AnnotateDouble(root, "huge", 1.5e20);
  t.tracer.AnnotateDouble(root, "tiny", -2.5e-9);
  t.tracer.AnnotateLabel(root, "node", t.tracer.Label("ucsb"));
  t.tracer.Annotate(root, "empty", "");
  t.tracer.Annotate(root, "long", long_text);
  t.tracer.Annotate(root, "after", "tail");
  const auto spans = t.tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  using Args = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(spans[0].args, (Args{{"neg", std::to_string(-42)},
                                 {"big", std::to_string(int64_t{1} << 40)},
                                 {"tenth", std::to_string(0.1)},
                                 {"huge", std::to_string(1.5e20)},
                                 {"tiny", std::to_string(-2.5e-9)},
                                 {"node", "ucsb"},
                                 {"empty", ""},
                                 {"long", long_text},
                                 {"after", "tail"}}));
}

TEST(Tracer, ForeignLabelIdsAreRejected) {
  // A violation is reported and the record dropped, not exported as a
  // read past the label table.
  contract::ScopedMode mode(contract::Mode::kReturnStatus);
  contract::ResetViolationStats();
  ManualClockTracer t;
  TraceContext root = t.tracer.StartTrace(SpanName::kTelemetry);
  const LabelId unl = t.tracer.Label("unl");
  t.tracer.RecordHop(SpanName::kWanHop, root, 0, 5,
                     HopPayload{unl, unl + 1, 64, false});
  t.tracer.AnnotateLabel(root, "client", unl + 7);
  EXPECT_EQ(contract::ViolationCount(), 2u);
  contract::ResetViolationStats();
  const auto spans = t.tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].args.empty());
}

TEST(Tracer, LabelsAreInternedOnceAndOutliveClear) {
  ManualClockTracer t;
  const LabelId a = t.tracer.Label("unl");
  const LabelId b = t.tracer.Label("ucsb");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.tracer.Label(std::string("unl")), a);
  t.tracer.Clear();
  EXPECT_EQ(t.tracer.Label("ucsb"), b);
  TraceContext root = t.tracer.StartTrace(SpanName::kTelemetry);
  t.tracer.AnnotateLabel(root, "client", a);
  const auto spans = t.tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].second, "unl");
}

TEST(Tracer, SpansAcrossBlocksStayAddressableAndClearKeepsIdsContiguous) {
  ManualClockTracer t;
  std::vector<TraceContext> roots;
  for (int i = 0; i < 3000; ++i) {  // several 1024-span blocks
    t.now_us = i;
    roots.push_back(t.tracer.StartTrace(SpanName::kTelemetry));
    t.tracer.AnnotateInt(roots.back(), "i", i);
  }
  t.now_us = 5000;
  t.tracer.EndSpan(roots[5]);
  t.tracer.EndSpan(roots[2500]);
  t.tracer.Annotate(roots[1024], "late", "yes");
  auto spans = t.tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3000u);
  EXPECT_EQ(spans[5].end_us, 5000);
  EXPECT_EQ(spans[2500].end_us, 5000);
  EXPECT_TRUE(spans[6].open());
  ASSERT_EQ(spans[1024].args.size(), 2u);
  EXPECT_EQ(spans[1024].args[0].second, "1024");
  EXPECT_EQ(spans[1024].args[1].second, "yes");
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].span_id, roots[i].span_id);
  }

  t.tracer.Clear();
  t.tracer.EndSpan(roots[5]);  // cleared: a no-op
  t.now_us = 9000;
  TraceContext next = t.tracer.StartTrace(SpanName::kTelemetry);
  EXPECT_EQ(next.span_id, roots.back().span_id + 1);
  t.tracer.EndSpan(next);
  spans = t.tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].span_id, next.span_id);
  EXPECT_EQ(spans[0].end_us, 9000);
}

TEST(Tracer, TraceIdsAreFirstSeenOrderAcrossInterleavedTraces) {
  ManualClockTracer t;
  TraceContext a = t.tracer.StartTrace(SpanName::kTelemetry);
  TraceContext b = t.tracer.StartTrace(SpanName::kTelemetry);
  t.tracer.StartSpan(SpanName::kSensorRead, a);
  TraceContext c = t.tracer.StartTrace(SpanName::kFaultPartition);
  t.tracer.StartSpan(SpanName::kSensorRead, b);
  t.tracer.StartSpan(SpanName::kSensorRead, a);
  EXPECT_EQ(t.tracer.TraceIds(),
            (std::vector<uint64_t>{a.trace_id, b.trace_id, c.trace_id}));
  EXPECT_EQ(t.tracer.TraceSpans(a.trace_id).size(), 3u);
  EXPECT_EQ(t.tracer.TraceSpans(c.trace_id).size(), 1u);
  EXPECT_TRUE(t.tracer.TraceSpans(999).empty());
}

TEST(Breakdown, DepthAndExclusiveTime) {
  ManualClockTracer t;
  t.now_us = 0;
  TraceContext root = t.tracer.StartTrace(SpanName::kTelemetry);
  t.now_us = 10;
  TraceContext append = t.tracer.StartSpan(SpanName::kCspotAppend, root);
  const HopPayload hop{t.tracer.Label("unl"), t.tracer.Label("ucsb"), 64,
                       false};
  t.tracer.RecordHop(SpanName::kNet5gAccess, append, 10, 40, hop);
  t.tracer.RecordHop(SpanName::kWanHop, append, 40, 60, hop);
  t.now_us = 100;
  t.tracer.EndSpan(append);
  t.now_us = 100;
  t.tracer.EndSpan(root);

  TraceBreakdown b = BreakdownTrace(t.tracer.Snapshot(), root.trace_id);
  EXPECT_EQ(b.trace_id, root.trace_id);
  EXPECT_EQ(b.total_us, 100);
  ASSERT_EQ(b.rows.size(), 4u);
  EXPECT_EQ(b.rows[0].depth, 0);
  EXPECT_EQ(b.rows[1].depth, 1);
  EXPECT_EQ(b.rows[2].depth, 2);
  // Root: 100 total, 90 covered by the append child -> 10 exclusive.
  EXPECT_EQ(b.rows[0].exclusive_us, 10);
  // Append: 90 total, 50 covered by the two hops -> 40 exclusive.
  EXPECT_EQ(b.rows[1].exclusive_us, 40);
  // Leaves keep their full duration.
  EXPECT_EQ(b.rows[2].exclusive_us, 30);
  EXPECT_EQ(b.rows[3].exclusive_us, 20);
  // Exclusive times sum back to the covered end-to-end total.
  int64_t sum = 0;
  for (const auto& row : b.rows) sum += row.exclusive_us;
  EXPECT_EQ(sum, b.total_us);

  const std::string table = FormatBreakdown(b);
  EXPECT_NE(table.find("cspot.append"), std::string::npos);
  EXPECT_NE(table.find("net5g.access"), std::string::npos);
}

TEST(Breakdown, EmptyTraceIsEmpty) {
  TraceBreakdown b = BreakdownTrace({}, 42);
  EXPECT_EQ(b.total_us, 0);
  EXPECT_TRUE(b.rows.empty());
}

}  // namespace
}  // namespace xg::obs
