// Host-clock spans recorded by the benchmark around its calls into each
// layer. Self time (a span's duration minus its children's) is summed per
// layer as spans close; the first kKeptSpans spans are also kept in memory
// and written as a Chrome trace_event file when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t { kBench, kCore, kCfd, kSim, kServe };
inline constexpr size_t kLayerCount = 5;
inline const char* LayerName(Layer l) {
  static constexpr const char* kNames[kLayerCount] = {"bench", "core", "cfd",
                                                      "sim", "serve"};
  return kNames[static_cast<size_t>(l)];
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept for the trace file, which bounds its size; spans past the
/// limit still count in self time and in spans_dropped.
inline constexpr size_t kKeptSpans = 200000;

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void Begin(const char* name, Layer layer) {
    open_.push_back({name, layer, NowNs(), 0, next_id_++,
                     open_.empty() ? 0 : open_.back().id});
  }

  void End() {
    const int64_t end = NowNs();
    const Open o = open_.back();
    open_.pop_back();
    const int64_t dur = end - o.start_ns;
    self_ns_[static_cast<size_t>(o.layer)] += dur - o.child_ns;
    if (!open_.empty()) open_.back().child_ns += dur;
    ++closed_;
    if (kept_.size() < kKeptSpans) {
      kept_.push_back({o.name, o.layer, o.start_ns, end, o.id, o.parent});
    }
  }

  double SelfMs(Layer l) const {
    return static_cast<double>(self_ns_[static_cast<size_t>(l)]) / 1e6;
  }
  uint64_t closed() const { return closed_; }
  uint64_t dropped() const { return closed_ - kept_.size(); }

  /// Chrome trace_event JSON ("X" complete events, microseconds). Returns
  /// false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const int64_t t0 = kept_.empty() ? 0 : kept_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Kept& s = kept_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
          << LayerName(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.start_ns - t0) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << "}}";
    }
    out << "\n],\"spans_closed\":" << closed_ << ",\"spans_dropped\":"
        << dropped() << "}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Open {
    const char* name;
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
    uint64_t id;
    uint64_t parent;
  };
  struct Kept {
    const char* name;
    Layer layer;
    int64_t start_ns, end_ns;
    uint64_t id, parent;
  };

  uint64_t next_id_ = 1;
  uint64_t closed_ = 0;
  std::vector<Open> open_;
  std::vector<Kept> kept_;
  std::array<int64_t, kLayerCount> self_ns_{};
};

/// RAII span; a null recorder (untraced pass) makes it a no-op.
class Span {
 public:
  Span(SpanRecorder* rec, const char* name, Layer layer) : rec_(rec) {
    if (rec_ != nullptr) rec_->Begin(name, layer);
  }
  ~Span() {
    if (rec_ != nullptr) rec_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench
