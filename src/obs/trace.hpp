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
// Recording builds no strings. A span is named by a `SpanName` (a static
// name/component table), dynamic labels such as node names are interned
// once in the tracer's label table, WAN hops carry an inline typed
// payload, and annotations keep integers and doubles as numbers. Records
// live in fixed 64 KiB blocks that never move. `Snapshot()` and friends
// turn the store into `SpanRecord`s with today's text; nothing downstream
// of them sees the compact form.
//
// The span store is bounded (`set_capacity`); once full, new spans are
// counted as dropped rather than grown without limit. All operations on a
// disabled tracer, or with an invalid context, are cheap no-ops so
// instrumented code needs no conditionals. A tracer belongs to the thread
// that runs its fabric and carries no lock (XG_SIM_THREAD_CONFINED).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace xg::obs {

/// Identifies a span within a trace; passed by value through callbacks.
/// A default-constructed context is invalid and disables downstream spans.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0 && span_id != 0; }
};

/// Every span the system opens. `SpanNameText` / `SpanComponent` give the
/// exported name and component lane.
enum class SpanName : uint8_t {
  // core::Fabric, one reading's journey: telemetry (the root),
  // sensor.read, twin.observe, laminar.window, pilot.decision, hpc.cfd,
  // cfd.solve, twin.compare.
  kTelemetry, kSensorRead, kTwinObserve, kLaminarWindow, kPilotDecision,
  kHpcCfd, kCfdSolve, kTwinCompare,
  // cspot::Runtime appends: cspot.append, .get_size, .put, .storage.
  kCspotAppend, kCspotGetSize, kCspotPut, kCspotStorage,
  // cspot::Wan link crossings (RecordHop): net5g.access, wan.hop.
  kNet5gAccess, kWanHop,
  // resil.timeline, resil.breaker_open and resil.<DegradedModeName>.
  kResilTimeline, kResilBreakerOpen, kResilStoreForward, kResilStaleServe,
  kResilSiteFailover, kResilOverloadShed,
  // fault.<FaultKindName>: one root span per injected window.
  kFaultPartition, kFaultNodeUnreachable, kFaultMessageLoss, kFaultDuplicate,
  kFaultReorder, kFaultPowerLoss, kFaultRrcDrop, kFaultLinkDegrade,
  kFaultQueueStall, kFaultJobKill,
};
inline constexpr int kSpanNameCount = 30;

const char* SpanNameText(SpanName name);
const char* SpanComponent(SpanName name);

/// Index into a tracer's label table; valid for that tracer's lifetime.
using LabelId = uint32_t;

/// An annotation key. Only a string literal converts to it, so the tracer
/// can keep the pointer instead of a copy.
class SpanKey {
 public:
  template <size_t N>
  consteval SpanKey(const char (&key)[N]) : key_(key) {}  // NOLINT implicit
  const char* c_str() const { return key_; }

 private:
  const char* key_;
};

/// A WAN link crossing, recorded inline with its span.
struct HopPayload {
  LabelId from = 0;
  LabelId to = 0;
  uint64_t bytes = 0;
  bool lost = false;
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

class XG_SIM_THREAD_CONFINED Tracer {
 public:
  /// Returns the current time in microseconds. Bind the simulation clock:
  ///   tracer.set_clock([&sim] { return sim.Now().micros(); });
  using Clock = std::function<int64_t()>;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_clock(Clock clock) { clock_ = std::move(clock); }
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_capacity(size_t max_spans) { capacity_ = max_spans; }

  /// Intern `text` in the label table: the same text always gets the same
  /// id. Ids stay valid for the tracer's lifetime (Clear keeps them).
  LabelId Label(std::string_view text);

  /// Open a root span in a fresh trace. Returns an invalid context (and
  /// records nothing) when disabled or at capacity.
  TraceContext StartTrace(SpanName name);

  /// Open a child span. Invalid `parent` => invalid result, nothing
  /// recorded (so an untraced request stays untraced end to end).
  TraceContext StartSpan(SpanName name, const TraceContext& parent);

  /// Close the span identified by `ctx` at the current clock. No-op for
  /// invalid contexts or already-closed spans.
  void EndSpan(const TraceContext& ctx);

  /// Record an already-timed span, e.g. a CFD job reconstructed from the
  /// pilot's wait/runtime accounting.
  TraceContext RecordSpan(SpanName name, const TraceContext& parent,
                          int64_t start_us, int64_t end_us);

  /// Record one link crossing whose latency was sampled up front. Exports
  /// as args from, to, bytes and (when lost) lost=true.
  void RecordHop(SpanName kind, const TraceContext& parent, int64_t start_us,
                 int64_t end_us, const HopPayload& hop);

  /// Attach a key=value annotation to an open or closed span. Text is
  /// copied; numbers are stored as numbers and exported with
  /// std::to_string; a label exports as its text.
  void Annotate(const TraceContext& ctx, SpanKey key, std::string_view text);
  void AnnotateInt(const TraceContext& ctx, SpanKey key, int64_t value);
  void AnnotateDouble(const TraceContext& ctx, SpanKey key, double value);
  void AnnotateLabel(const TraceContext& ctx, SpanKey key, LabelId label);

  size_t span_count() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// Copy of every recorded span (open spans included, `end_us` < start).
  std::vector<SpanRecord> Snapshot() const;
  /// Spans belonging to one trace, ordered by (start_us, span_id).
  std::vector<SpanRecord> TraceSpans(uint64_t trace_id) const;
  /// Trace ids in first-seen order (bounded by the span store).
  std::vector<uint64_t> TraceIds() const;
  /// Drop every span and reset the drop count; labels stay interned.
  void Clear();

 private:
  /// Append-only array in fixed 64 KiB blocks. An element never moves,
  /// and a freed block is a size malloc recycles for the next tracer.
  template <typename T>
  class Blocks {
   public:
    static constexpr size_t kPerBlock = (size_t{64} << 10) / sizeof(T);
    size_t size() const { return size_; }
    T& operator[](size_t i) { return blocks_[i / kPerBlock][i % kPerBlock]; }
    const T& operator[](size_t i) const {
      return blocks_[i / kPerBlock][i % kPerBlock];
    }
    T& Append() {
      if (size_ == blocks_.size() * kPerBlock) {
        blocks_.push_back(std::make_unique_for_overwrite<T[]>(kPerBlock));
      }
      return (*this)[size_++];
    }
    void Clear() {
      blocks_.clear();
      size_ = 0;
    }

   private:
    std::vector<std::unique_ptr<T[]>> blocks_;
    size_t size_ = 0;
  };

  static constexpr uint32_t kNoArg = UINT32_MAX;
  enum class HopState : uint8_t { kNone, kDelivered, kLost };

  /// One span, 64 bytes. Its id is the store's first id plus its index.
  struct Slot {
    uint64_t trace_id;
    uint64_t parent_id;
    int64_t start_us;
    int64_t end_us;
    uint64_t hop_bytes;
    LabelId hop_from;
    LabelId hop_to;
    uint32_t first_arg;  ///< head of this span's annotation list
    uint32_t last_arg;
    SpanName name;
    HopState hop;
  };
  static_assert(sizeof(Slot) == 64);

  enum class ArgKind : uint8_t { kText, kInt, kDouble, kLabel };
  /// One annotation, 32 bytes, linked in insertion order per span.
  struct Arg {
    const char* key;
    union {
      const char* text;  ///< in the text arena
      int64_t i;
      double d;
      LabelId label;
    };
    uint32_t text_len;
    uint32_t next;
    ArgKind kind;
  };
  static_assert(sizeof(Arg) == 32);

  int64_t NowUs() const { return clock_ ? clock_() : 0; }
  /// Appends a span and returns its slot, or nullptr when at capacity.
  Slot* NewSpan(SpanName name, uint64_t trace_id, uint64_t parent_span,
                int64_t start_us);
  /// Ids are handed out contiguously to *appended* spans (a drop does not
  /// consume an id), so lookup is offset arithmetic from the first span.
  Slot* Find(uint64_t span_id);
  /// Appends an annotation to the span's list; nullptr for unknown spans.
  Arg* AddArg(const TraceContext& ctx, SpanKey key, ArgKind kind);
  SpanRecord Materialize(size_t index) const;

  struct LabelHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  bool enabled_ = true;
  uint64_t dropped_ = 0;
  Clock clock_;
  size_t capacity_ = 1 << 18;
  Blocks<Slot> spans_;
  Blocks<Arg> args_;
  /// Free-text annotations: 16 KiB chunks filled front to back (a longer
  /// text gets a chunk of its own). Chunks never move.
  std::vector<std::unique_ptr<char[]>> text_;
  char* text_next_ = nullptr;
  size_t text_left_ = 0;
  std::vector<std::string> labels_;
  std::unordered_map<std::string, LabelId, LabelHash, std::equal_to<>>
      label_ids_;
  uint64_t first_span_ = 1;  ///< id of spans_[0]
  uint64_t next_trace_ = 1;
  uint64_t next_span_ = 1;
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

inline TraceContext StartSpanIf(Tracer* t, SpanName name,
                                const TraceContext& parent) {
  return t ? t->StartSpan(name, parent) : TraceContext{};
}
inline void EndSpanIf(Tracer* t, const TraceContext& ctx) {
  if (t) t->EndSpan(ctx);
}
inline void AnnotateIf(Tracer* t, const TraceContext& ctx, SpanKey key,
                       std::string_view text) {
  if (t) t->Annotate(ctx, key, text);
}

}  // namespace xg::obs
