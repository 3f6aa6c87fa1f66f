#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>

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
  TraceContext root = t.tracer.StartTrace("telemetry", "fabric");
  ASSERT_TRUE(root.valid());

  t.now_us = 150;
  TraceContext child = t.tracer.StartSpan("cspot.append", "cspot", root);
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
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].start_us, 100);
  EXPECT_EQ(spans[0].duration_us(), 400);
  EXPECT_EQ(spans[1].name, "cspot.append");
  EXPECT_EQ(spans[1].parent_id, root.span_id);
  EXPECT_EQ(spans[1].duration_us(), 250);
}

TEST(Tracer, EndSpanIsIdempotent) {
  ManualClockTracer t;
  TraceContext root = t.tracer.StartTrace("a", "x");
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
  TraceContext child = t.tracer.StartSpan("child", "x", invalid);
  EXPECT_FALSE(child.valid());
  t.tracer.EndSpan(child);
  t.tracer.Annotate(child, "k", "v");
  TraceContext rec = t.tracer.RecordSpan("r", "x", invalid, 0, 10);
  EXPECT_FALSE(rec.valid());
  EXPECT_EQ(t.tracer.span_count(), 0u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  ManualClockTracer t;
  t.tracer.set_enabled(false);
  TraceContext root = t.tracer.StartTrace("a", "x");
  EXPECT_FALSE(root.valid());
  EXPECT_EQ(t.tracer.span_count(), 0u);
}

TEST(Tracer, RecordSpanKeepsExplicitTimes) {
  // WAN hops sample their latency up front; RecordSpan back-fills the
  // exact interval even though the call happens at departure time.
  ManualClockTracer t;
  TraceContext root = t.tracer.StartTrace("send", "wan");
  TraceContext hop =
      t.tracer.RecordSpan("net5g.access", "net5g", root, 1000, 22000,
                          {{"from", "unl"}, {"to", "unl-gw"}});
  ASSERT_TRUE(hop.valid());
  auto spans = t.tracer.TraceSpans(root.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].start_us, 1000);
  EXPECT_EQ(spans[1].end_us, 22000);
  ASSERT_EQ(spans[1].args.size(), 2u);
  EXPECT_EQ(spans[1].args[0].second, "unl");
}

TEST(Tracer, AnnotationsAttachToOpenAndClosedSpans) {
  ManualClockTracer t;
  TraceContext root = t.tracer.StartTrace("a", "x");
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
  for (int i = 0; i < 5; ++i) t.tracer.StartTrace("s", "x");
  EXPECT_EQ(t.tracer.span_count(), 3u);
  EXPECT_EQ(t.tracer.dropped(), 2u);
  t.tracer.Clear();
  EXPECT_EQ(t.tracer.span_count(), 0u);
  EXPECT_TRUE(t.tracer.TraceIds().empty());
}

TEST(Tracer, OrderingWithinTraceIsByStartTime) {
  ManualClockTracer t;
  t.now_us = 0;
  TraceContext root = t.tracer.StartTrace("root", "x");
  t.now_us = 300;
  TraceContext late = t.tracer.StartSpan("late", "x", root);
  // Recorded after `late` but starting earlier.
  t.tracer.RecordSpan("early", "x", root, 100, 200);
  t.tracer.EndSpan(late);
  t.tracer.EndSpan(root);
  auto spans = t.tracer.TraceSpans(root.trace_id);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[1].name, "early");
  EXPECT_EQ(spans[2].name, "late");
}

TEST(Breakdown, DepthAndExclusiveTime) {
  ManualClockTracer t;
  t.now_us = 0;
  TraceContext root = t.tracer.StartTrace("telemetry", "fabric");
  t.now_us = 10;
  TraceContext append = t.tracer.StartSpan("cspot.append", "cspot", root);
  t.tracer.RecordSpan("net5g.access", "net5g", append, 10, 40);
  t.tracer.RecordSpan("wan.hop", "wan", append, 40, 60);
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
