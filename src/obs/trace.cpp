#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <unordered_set>

#include "common/contract.hpp"

namespace xg::obs {

namespace {

struct SpanInfo {
  const char* name;
  const char* component;
};

constexpr SpanInfo kSpanTable[] = {
    {"telemetry", "fabric"},
    {"sensor.read", "sensors"},
    {"twin.observe", "twin"},
    {"laminar.window", "laminar"},
    {"pilot.decision", "pilot"},
    {"hpc.cfd", "hpc"},
    {"cfd.solve", "cfd"},
    {"twin.compare", "twin"},
    {"cspot.append", "cspot"},
    {"cspot.get_size", "cspot"},
    {"cspot.put", "cspot"},
    {"cspot.storage", "cspot"},
    {"net5g.access", "net5g"},
    {"wan.hop", "wan"},
    {"resil.timeline", "resil"},
    {"resil.breaker_open", "resil"},
    {"resil.store_forward", "resil"},
    {"resil.stale_serve", "resil"},
    {"resil.site_failover", "resil"},
    {"resil.overload_shed", "resil"},
    {"fault.partition", "fault"},
    {"fault.node_unreachable", "fault"},
    {"fault.message_loss", "fault"},
    {"fault.duplicate", "fault"},
    {"fault.reorder", "fault"},
    {"fault.power_loss", "fault"},
    {"fault.rrc_drop", "fault"},
    {"fault.link_degrade", "fault"},
    {"fault.queue_stall", "fault"},
    {"fault.job_kill", "fault"},
};
static_assert(std::size(kSpanTable) == kSpanNameCount);

constexpr size_t kTextChunk = size_t{16} << 10;

}  // namespace

const char* SpanNameText(SpanName name) {
  return kSpanTable[static_cast<size_t>(name)].name;
}

const char* SpanComponent(SpanName name) {
  return kSpanTable[static_cast<size_t>(name)].component;
}

LabelId Tracer::Label(std::string_view text) {
  const auto it = label_ids_.find(text);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<LabelId>(labels_.size());
  labels_.emplace_back(text);
  label_ids_.emplace(labels_.back(), id);
  return id;
}

Tracer::Slot* Tracer::NewSpan(SpanName name, uint64_t trace_id,
                              uint64_t parent_span, int64_t start_us) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return nullptr;
  }
  ++next_span_;
  Slot& s = spans_.Append();
  s.trace_id = trace_id;
  s.parent_id = parent_span;
  s.start_us = start_us;
  s.end_us = start_us - 1;  // open
  s.hop_bytes = 0;
  s.hop_from = s.hop_to = 0;
  s.first_arg = s.last_arg = kNoArg;
  s.name = name;
  s.hop = HopState::kNone;
  return &s;
}

Tracer::Slot* Tracer::Find(uint64_t span_id) {
  if (span_id < first_span_) return nullptr;
  const uint64_t idx = span_id - first_span_;
  if (idx >= spans_.size()) return nullptr;
  return &spans_[idx];
}

TraceContext Tracer::StartTrace(SpanName name) {
  if (!enabled()) return {};
  const uint64_t trace_id = next_trace_++;
  if (NewSpan(name, trace_id, 0, NowUs()) == nullptr) return {};
  return {trace_id, next_span_ - 1};
}

TraceContext Tracer::StartSpan(SpanName name, const TraceContext& parent) {
  if (!enabled() || !parent.valid()) return {};
  if (NewSpan(name, parent.trace_id, parent.span_id, NowUs()) == nullptr) {
    return {};
  }
  return {parent.trace_id, next_span_ - 1};
}

void Tracer::EndSpan(const TraceContext& ctx) {
  if (!ctx.valid()) return;
  Slot* s = Find(ctx.span_id);
  if (s == nullptr || s->end_us >= s->start_us) return;
  s->end_us = std::max(NowUs(), s->start_us);
}

TraceContext Tracer::RecordSpan(SpanName name, const TraceContext& parent,
                                int64_t start_us, int64_t end_us) {
  if (!enabled() || !parent.valid()) return {};
  Slot* s = NewSpan(name, parent.trace_id, parent.span_id, start_us);
  if (s == nullptr) return {};
  s->end_us = std::max(end_us, start_us);
  return {parent.trace_id, next_span_ - 1};
}

void Tracer::RecordHop(SpanName kind, const TraceContext& parent,
                       int64_t start_us, int64_t end_us,
                       const HopPayload& hop) {
  if (!enabled() || !parent.valid()) return;
  const bool known = hop.from < labels_.size() && hop.to < labels_.size();
  XG_INVARIANT(known, "hop labels come from this tracer's Label()");
  if (!known) return;
  Slot* s = NewSpan(kind, parent.trace_id, parent.span_id, start_us);
  if (s == nullptr) return;
  s->end_us = std::max(end_us, start_us);
  s->hop_bytes = hop.bytes;
  s->hop_from = hop.from;
  s->hop_to = hop.to;
  s->hop = hop.lost ? HopState::kLost : HopState::kDelivered;
}

Tracer::Arg* Tracer::AddArg(const TraceContext& ctx, SpanKey key,
                            ArgKind kind) {
  Slot* s = Find(ctx.span_id);
  if (s == nullptr) return nullptr;
  const auto index = static_cast<uint32_t>(args_.size());
  Arg& a = args_.Append();
  a.key = key.c_str();
  a.text_len = 0;
  a.next = kNoArg;
  a.kind = kind;
  if (s->last_arg == kNoArg) {
    s->first_arg = index;
  } else {
    args_[s->last_arg].next = index;
  }
  s->last_arg = index;
  return &a;
}

void Tracer::Annotate(const TraceContext& ctx, SpanKey key,
                      std::string_view text) {
  if (!ctx.valid()) return;
  Arg* a = AddArg(ctx, key, ArgKind::kText);
  if (a == nullptr) return;
  a->text_len = static_cast<uint32_t>(text.size());
  if (text.empty()) {
    a->text = "";
    return;
  }
  if (text.size() > text_left_) {
    const size_t size = std::max(kTextChunk, text.size());
    text_.push_back(std::make_unique_for_overwrite<char[]>(size));
    text_next_ = text_.back().get();
    text_left_ = size;
  }
  a->text = text_next_;
  std::memcpy(text_next_, text.data(), text.size());
  text_next_ += text.size();
  text_left_ -= text.size();
}

void Tracer::AnnotateInt(const TraceContext& ctx, SpanKey key, int64_t value) {
  if (!ctx.valid()) return;
  if (Arg* a = AddArg(ctx, key, ArgKind::kInt)) a->i = value;
}

void Tracer::AnnotateDouble(const TraceContext& ctx, SpanKey key,
                            double value) {
  if (!ctx.valid()) return;
  if (Arg* a = AddArg(ctx, key, ArgKind::kDouble)) a->d = value;
}

void Tracer::AnnotateLabel(const TraceContext& ctx, SpanKey key,
                           LabelId label) {
  if (!ctx.valid()) return;
  const bool known = label < labels_.size();
  XG_INVARIANT(known, "labels come from this tracer's Label()");
  if (!known) return;
  if (Arg* a = AddArg(ctx, key, ArgKind::kLabel)) a->label = label;
}

SpanRecord Tracer::Materialize(size_t index) const {
  const Slot& s = spans_[index];
  SpanRecord rec;
  rec.trace_id = s.trace_id;
  rec.span_id = first_span_ + index;
  rec.parent_id = s.parent_id;
  rec.name = SpanNameText(s.name);
  rec.component = SpanComponent(s.name);
  rec.start_us = s.start_us;
  rec.end_us = s.end_us;
  if (s.hop != HopState::kNone) {
    rec.args.emplace_back("from", labels_[s.hop_from]);
    rec.args.emplace_back("to", labels_[s.hop_to]);
    rec.args.emplace_back("bytes", std::to_string(s.hop_bytes));
    if (s.hop == HopState::kLost) rec.args.emplace_back("lost", "true");
  }
  for (uint32_t i = s.first_arg; i != kNoArg; i = args_[i].next) {
    const Arg& a = args_[i];
    std::string value;
    switch (a.kind) {
      case ArgKind::kText: value.assign(a.text, a.text_len); break;
      case ArgKind::kInt: value = std::to_string(a.i); break;
      case ArgKind::kDouble: value = std::to_string(a.d); break;
      case ArgKind::kLabel: value = labels_[a.label]; break;
    }
    rec.args.emplace_back(a.key, std::move(value));
  }
  return rec;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> out;
  out.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    out.push_back(Materialize(i));
  }
  return out;
}

std::vector<SpanRecord> Tracer::TraceSpans(uint64_t trace_id) const {
  // (start, index): index order is span id order, the tie-break.
  std::vector<std::pair<int64_t, size_t>> picked;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].trace_id == trace_id) {
      picked.emplace_back(spans_[i].start_us, i);
    }
  }
  std::sort(picked.begin(), picked.end());
  std::vector<SpanRecord> out;
  out.reserve(picked.size());
  for (const auto& p : picked) out.push_back(Materialize(p.second));
  return out;
}

std::vector<uint64_t> Tracer::TraceIds() const {
  std::vector<uint64_t> ids;
  std::unordered_set<uint64_t> seen;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (seen.insert(spans_[i].trace_id).second) {
      ids.push_back(spans_[i].trace_id);
    }
  }
  return ids;
}

void Tracer::Clear() {
  spans_.Clear();
  args_.Clear();
  text_.clear();
  text_next_ = nullptr;
  text_left_ = 0;
  first_span_ = next_span_;
  dropped_ = 0;
}

// ---------------------------------------------------------------------------

TraceBreakdown BreakdownTrace(const std::vector<SpanRecord>& spans,
                              uint64_t trace_id) {
  TraceBreakdown b;
  b.trace_id = trace_id;
  std::vector<const SpanRecord*> trace;
  for (const auto& s : spans) {
    if (s.trace_id == trace_id) trace.push_back(&s);
  }
  if (trace.empty()) return b;
  std::sort(trace.begin(), trace.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->start_us != b->start_us) return a->start_us < b->start_us;
              return a->span_id < b->span_id;
            });

  int64_t min_start = trace.front()->start_us;
  int64_t max_end = min_start;
  std::map<uint64_t, const SpanRecord*> by_id;
  std::map<uint64_t, int64_t> child_time;  // parent span id -> sum child dur
  for (const SpanRecord* s : trace) {
    by_id[s->span_id] = s;
    max_end = std::max(max_end, s->open() ? s->start_us : s->end_us);
  }
  for (const SpanRecord* s : trace) {
    if (s->parent_id != 0 && by_id.count(s->parent_id)) {
      child_time[s->parent_id] += s->duration_us();
    }
  }
  b.total_us = max_end - min_start;

  for (const SpanRecord* s : trace) {
    BreakdownRow row;
    row.name = s->name;
    row.component = s->component;
    row.start_us = s->start_us - min_start;
    row.duration_us = s->duration_us();
    const auto ct = child_time.find(s->span_id);
    row.exclusive_us = std::max<int64_t>(
        0, row.duration_us - (ct == child_time.end() ? 0 : ct->second));
    int depth = 0;
    for (uint64_t p = s->parent_id; p != 0 && depth < 64;) {
      auto it = by_id.find(p);
      if (it == by_id.end()) break;
      ++depth;
      p = it->second->parent_id;
    }
    row.depth = depth;
    b.rows.push_back(std::move(row));
  }
  return b;
}

std::string FormatBreakdown(const TraceBreakdown& b) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "trace %llu: %.3f ms end-to-end\n",
                static_cast<unsigned long long>(b.trace_id),
                static_cast<double>(b.total_us) / 1e3);
  out += line;
  std::snprintf(line, sizeof(line), "  %-10s %-34s %12s %12s %12s\n", "comp",
                "span", "start ms", "dur ms", "excl ms");
  out += line;
  for (const auto& r : b.rows) {
    std::string name(static_cast<size_t>(r.depth) * 2, ' ');
    name += r.name;
    if (name.size() > 34) name.resize(34);
    std::snprintf(line, sizeof(line), "  %-10s %-34s %12.3f %12.3f %12.3f\n",
                  r.component.c_str(), name.c_str(),
                  static_cast<double>(r.start_us) / 1e3,
                  static_cast<double>(r.duration_us) / 1e3,
                  static_cast<double>(r.exclusive_us) / 1e3);
    out += line;
  }
  return out;
}

}  // namespace xg::obs
