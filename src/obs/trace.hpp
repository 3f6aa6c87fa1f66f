// Virtual-clock span tracing (observability pillar 2).
//
// A Tracer records spans against whatever clock it is given — in this
// repository that is `Simulation::Now().micros()`, so spans measure
// *virtual* time exactly: a telemetry reading's journey
//
//   sensor read -> 5G access hop -> CSPOT append -> Laminar window ->
//   pilot decision -> CFD job -> twin compare
//
// becomes one trace whose per-hop durations reproduce the paper's §4.4
// end-to-end latency decomposition. Context propagates as a TraceContext
// (trace id + parent span id) threaded through call chains, callbacks and
// — for the alert path — serialized through the CSPOT alert log.
//
// The span buffer is bounded (`set_capacity`); once full, new spans are
// counted as dropped rather than grown without limit. All operations on a
// disabled tracer, or with an invalid context, are cheap no-ops so
// instrumented code needs no conditionals.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"

namespace xg::obs {

/// Identifies a span within a trace; passed by value through callbacks.
/// A default-constructed context is invalid and disables downstream spans.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0 && span_id != 0; }
};

struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 for a trace root
  std::string name;
  std::string component;
  int64_t start_us = 0;
  int64_t end_us = -1;  ///< < start_us while the span is open
  std::vector<std::pair<std::string, std::string>> args;

  bool open() const { return end_us < start_us; }
  int64_t duration_us() const { return open() ? 0 : end_us - start_us; }
};

class Tracer {
 public:
  /// Returns the current time in microseconds. Bind the simulation clock:
  ///   tracer.set_clock([&sim] { return sim.Now().micros(); });
  using Clock = std::function<int64_t()>;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_clock(Clock clock);
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_capacity(size_t max_spans);

  /// Open a root span in a fresh trace. Returns an invalid context (and
  /// records nothing) when disabled or at capacity.
  TraceContext StartTrace(const std::string& name,
                          const std::string& component);

  /// Open a child span. Invalid `parent` => invalid result, nothing
  /// recorded (so an untraced request stays untraced end to end).
  TraceContext StartSpan(const std::string& name, const std::string& component,
                         const TraceContext& parent);

  /// Close the span identified by `ctx` at the current clock. No-op for
  /// invalid contexts or already-closed spans.
  void EndSpan(const TraceContext& ctx);

  /// Attach a key=value annotation to an open or closed span.
  void Annotate(const TraceContext& ctx, const std::string& key,
                const std::string& value);

  /// Record an already-timed span, e.g. a WAN hop whose latency was
  /// sampled up front and scheduled as one delivery event.
  TraceContext RecordSpan(
      const std::string& name, const std::string& component,
      const TraceContext& parent, int64_t start_us, int64_t end_us,
      std::vector<std::pair<std::string, std::string>> args = {});

  size_t span_count() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Copy of every recorded span (open spans included, `end_us` < start).
  std::vector<SpanRecord> Snapshot() const;
  /// Spans belonging to one trace, ordered by (start_us, span_id).
  std::vector<SpanRecord> TraceSpans(uint64_t trace_id) const;
  /// Trace ids in first-seen order (bounded by the span buffer).
  std::vector<uint64_t> TraceIds() const;
  void Clear();

 private:
  int64_t NowUs() const XG_REQUIRES(mu_);
  TraceContext StartLocked(const std::string& name,
                           const std::string& component, uint64_t trace_id,
                           uint64_t parent_span) XG_REQUIRES(mu_);
  /// Ids are handed out contiguously to *appended* spans (a drop does not
  /// consume an id), so lookup is offset arithmetic from the first span.
  SpanRecord* FindLocked(uint64_t span_id) XG_REQUIRES(mu_);

  mutable Mutex mu_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> dropped_{0};
  Clock clock_ XG_GUARDED_BY(mu_);
  size_t capacity_ XG_GUARDED_BY(mu_) = 1 << 18;
  std::vector<SpanRecord> spans_ XG_GUARDED_BY(mu_);
  uint64_t next_trace_ XG_GUARDED_BY(mu_) = 1;
  uint64_t next_span_ XG_GUARDED_BY(mu_) = 1;
};

// -- critical-path breakdown -------------------------------------------------

struct BreakdownRow {
  std::string name;
  std::string component;
  int64_t start_us = 0;
  int64_t duration_us = 0;
  /// Duration not covered by child spans (clamped at 0 when children
  /// overlap); summing exclusive time over a trace recovers the covered
  /// end-to-end time without double counting nested hops.
  int64_t exclusive_us = 0;
  int depth = 0;
};

struct TraceBreakdown {
  uint64_t trace_id = 0;
  int64_t total_us = 0;  ///< max span end - min span start over the trace
  std::vector<BreakdownRow> rows;
};

/// Per-trace latency decomposition (the paper's §4.4 table): spans in
/// start order with depth from the parent chain and exclusive durations.
TraceBreakdown BreakdownTrace(const std::vector<SpanRecord>& spans,
                              uint64_t trace_id);

/// Human-readable breakdown table for demos and logs.
std::string FormatBreakdown(const TraceBreakdown& b);

// -- null-safe helpers ------------------------------------------------------

inline TraceContext StartSpanIf(Tracer* t, const std::string& name,
                                const std::string& component,
                                const TraceContext& parent) {
  return t ? t->StartSpan(name, component, parent) : TraceContext{};
}
inline void EndSpanIf(Tracer* t, const TraceContext& ctx) {
  if (t) t->EndSpan(ctx);
}
inline void AnnotateIf(Tracer* t, const TraceContext& ctx,
                       const std::string& key, const std::string& value) {
  if (t) t->Annotate(ctx, key, value);
}

}  // namespace xg::obs
