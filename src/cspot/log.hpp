// CSPOT append-only logs ("persistent program variables").
//
// Faithful to the published CSPOT semantics:
//  - every log has a fixed element size, stored in its header;
//  - appends are assigned a unique, dense sequence number atomically; this
//    is the *only* atomic primitive the runtime offers (no lock API);
//  - logs keep a bounded history window (circular), like WooF objects;
//  - reads by sequence number are unsynchronized snapshots;
//  - the log is a single-assignment structure: an element, once written at
//    a sequence number, never changes — which is what lets Laminar layer
//    functional dataflow semantics on top.
//
// Two storage backends: in-memory (simulation speed) and file-backed
// (demonstrates crash-survival of program state across power loss). A log
// belongs to the thread that runs its fabric and carries no lock
// (XG_SIM_THREAD_CONFINED): CSPOT's atomic append is atomic because
// nothing else runs between an event's start and end.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/thread_annotations.hpp"

namespace xg::cspot {

using SeqNo = int64_t;
constexpr SeqNo kNoSeq = -1;

struct LogConfig {
  std::string name;
  size_t element_size = 1024;  ///< fixed payload slot size, bytes
  size_t history = 1024;       ///< retained elements (circular window)
};

/// Geometry bounds every storage backend enforces (XG_REQUIRE): a log
/// must have a positive element size and a positive history window, and
/// the element size is capped so a single slot cannot overflow the
/// FileLog slot-offset arithmetic.
constexpr size_t kMaxElementSize = size_t{1} << 30;  // 1 GiB per element

/// Validates geometry; kInvalidArgument on violation.
Status ValidateLogConfig(const LogConfig& config);

/// Storage the runtime and transport talk to. The base owns what both
/// backends share (geometry, sequence counter, retention window); a
/// backend supplies the slot I/O.
class XG_SIM_THREAD_CONFINED LogStorage {
 public:
  virtual ~LogStorage() = default;

  const LogConfig& config() const { return config_; }

  /// Append a payload (must fit the element size). Returns the assigned
  /// sequence number. Sequence numbers start at 0 and are dense.
  Result<SeqNo> Append(const std::vector<uint8_t>& payload);

  /// Read the payload at a sequence number. Fails with kNotFound if the
  /// entry has been evicted from the history window or was never written.
  Result<std::vector<uint8_t>> Get(SeqNo seq) const;

  /// Latest assigned sequence number, or kNoSeq when empty.
  SeqNo Latest() const;

  /// Earliest sequence number still retained, or kNoSeq when empty.
  SeqNo Earliest() const;

  /// Discard every element with seq > `last_retained` (power-loss
  /// truncation to the last durable sequence number). `kNoSeq` empties
  /// the log; a value >= Latest() is a no-op. Subsequent appends reuse
  /// the truncated sequence numbers, preserving density.
  Status TruncateTo(SeqNo last_retained);

  /// Number of retained elements.
  size_t Size() const {
    const SeqNo l = Latest();
    if (l == kNoSeq) return 0;
    return static_cast<size_t>(l - Earliest() + 1);
  }

  /// Call `fn` on each of the most recent `n` payloads in place, oldest
  /// first (fewer if not retained); `fn` must not append to or truncate
  /// this log. The log-scan primitive handlers use for multi-event
  /// synchronization.
  using Visitor = std::function<void(std::span<const uint8_t>)>;
  void VisitTail(size_t n, const Visitor& fn) const;

  /// VisitTail into copies.
  std::vector<std::vector<uint8_t>> Tail(size_t n) const;

 protected:
  explicit LogStorage(LogConfig config) : config_(std::move(config)) {}

  /// Store `seq`'s payload; the counter moves past `seq` only on success.
  virtual Status WriteSlot(SeqNo seq, const std::vector<uint8_t>& payload) = 0;
  /// Call `fn` on retained `seq`'s payload.
  virtual Status ReadSlot(SeqNo seq, const Visitor& fn) const = 0;
  /// Make the counter durable after it moved.
  virtual Status Persist() { return Status::Ok(); }
  /// Drop the payloads of truncated seqs [from, to).
  virtual void Forget(SeqNo /*from*/, SeqNo /*to*/) {}

  LogConfig config_;  ///< immutable once constructed
  SeqNo next_seq_ = 0;
};

/// In-memory circular log.
class MemoryLog : public LogStorage {
 public:
  explicit MemoryLog(LogConfig config);

 private:
  Status WriteSlot(SeqNo seq, const std::vector<uint8_t>& payload) override;
  Status ReadSlot(SeqNo seq, const Visitor& fn) const override;
  void Forget(SeqNo from, SeqNo to) override;

  std::vector<std::vector<uint8_t>> ring_;
};

/// File-backed circular log with a fixed-size binary layout:
/// [header][slot 0][slot 1]...[slot history-1], each slot holding
/// (payload_len, payload bytes padded to element_size). The header records
/// the next sequence number; recovery reads it back after a crash.
class FileLog : public LogStorage {
 public:
  /// Creates or reopens the log at `path`. Reopening validates that the
  /// stored element size matches `config.element_size`.
  static Result<std::unique_ptr<FileLog>> Open(const std::string& path,
                                               LogConfig config);
  ~FileLog() override;

 private:
  FileLog(std::string path, LogConfig config);
  Status WriteSlot(SeqNo seq, const std::vector<uint8_t>& payload) override;
  Status ReadSlot(SeqNo seq, const Visitor& fn) const override;
  Status Persist() override { return WriteHeader(); }
  Status WriteHeader();
  Status ReadHeader();

  std::string path_;  ///< immutable after construction
  std::FILE* file_ = nullptr;  ///< set once in Open()

  size_t SlotBytes() const { return sizeof(uint32_t) + config_.element_size; }
  long SlotOffset(SeqNo seq) const;
};

}  // namespace xg::cspot
