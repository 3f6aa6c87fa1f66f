// A CSPOT node: a named host holding logs and handler registrations.
//
// Handlers are the only computational mechanism in CSPOT: a handler is
// bound to a log and fires once per append, with the appended element.
// There is deliberately no way to trigger on "multiple appends" — handlers
// that need multi-event synchronization scan the logs (LogStorage::Tail).
//
// Logs are named at the edge and addressed by LogId on the data path: a
// name binds to one slot for the node's lifetime, and the slot holds the
// storage, handlers and dedup table of whichever log currently has it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/thread_annotations.hpp"
#include "cspot/log.hpp"

namespace xg::cspot {

/// A log resolved on one node: its slot plus the slot's generation, which
/// DeleteLog bumps so a stale handle misses the slot's next log.
struct LogId {
  uint32_t slot = UINT32_MAX, gen = 0;
};

/// One log's idempotence tokens: token -> assigned seq, in a flat table
/// (linear probing, power-of-two size, at most half full). Token 0 marks
/// an empty cell; the runtime never issues it.
class DedupTable {
 public:
  /// The seq recorded for `token`, kNoSeq when none.
  SeqNo Find(uint64_t token) const;
  /// A token keeps its first seq; re-recording another is an XG_INVARIANT.
  void Record(uint64_t token, SeqNo seq);
  /// Erase every entry whose seq is past `keep` (power-loss truncation).
  void EraseAbove(SeqNo keep) { Rebuild(cells_.size(), keep); }
  size_t size() const { return size_; }

 private:
  struct Cell {
    uint64_t token = 0;
    SeqNo seq = kNoSeq;
  };
  /// The cell holding `token`, or the empty cell where it would go.
  size_t Probe(uint64_t token) const;
  /// Re-place the entries with seq <= `keep` into `cells` cells.
  void Rebuild(size_t cells, SeqNo keep);

  std::vector<Cell> cells_;
  size_t size_ = 0;
};

class XG_SIM_THREAD_CONFINED Node {
 public:
  /// Handler signature: (log name, assigned seq, appended payload).
  using Handler =
      std::function<void(const std::string&, SeqNo, const std::vector<uint8_t>&)>;

  explicit Node(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Power state. A node that is down neither serves requests nor runs
  /// handlers; its persistent logs survive and it can be brought back up.
  bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  /// Power loss with data loss: takes the node down and truncates the
  /// most recent `lose_tail_appends` entries of every log (the volatile
  /// tail that never reached stable storage). Dedup entries pointing past
  /// the new durable frontier are erased with the data — a stale token
  /// surviving its truncated element would make a client's retry ack a
  /// sequence number whose payload no longer exists (silent data loss).
  /// Returns the first truncation failure, Ok otherwise.
  Status PowerFail(size_t lose_tail_appends);

  /// Create a memory-backed log. Fails with kAlreadyExists on name clash.
  Result<LogStorage*> CreateLog(const LogConfig& config);

  /// Install an externally created log (e.g. a FileLog for durability).
  Result<LogStorage*> AdoptLog(std::unique_ptr<LogStorage> log);

  /// Remove a log entirely (also used to recreate with a different
  /// element size — the size-cache invalidation scenario).
  Status DeleteLog(const std::string& log);

  /// The handle of `log`, binding the name to a slot on first use (so a
  /// handle resolved before CreateLog is valid once the log exists).
  LogId Resolve(const std::string& log);
  /// The log behind a handle; nullptr when missing or stale.
  LogStorage* Find(LogId id) const;
  /// The name bound to a handle's slot (empty for a default LogId).
  const std::string& LogName(LogId id) const;
  /// Lookup by name; nullptr when missing.
  LogStorage* GetLog(const std::string& log) const;

  /// Bind a handler to fire on each append to `log`.
  Status RegisterHandler(const std::string& log, Handler handler);
  /// Handlers bound to a log (empty when none or the handle is stale).
  const std::vector<Handler>& HandlersFor(LogId id) const;

  /// The log's dedup table, which the transport uses for exactly-once
  /// appends; nullptr when the handle is stale.
  DedupTable* Dedup(LogId id) {
    return Live(id) != nullptr ? &slots_[id.slot].dedup : nullptr;
  }

 private:
  struct Slot {
    std::string name;
    uint32_t gen = 1;
    std::unique_ptr<LogStorage> storage;
    std::vector<Handler> handlers;
    DedupTable dedup;
  };
  /// The slot behind a live handle, nullptr when stale.
  const Slot* Live(LogId id) const {
    return id.slot < slots_.size() && slots_[id.slot].gen == id.gen
               ? &slots_[id.slot]
               : nullptr;
  }

  std::string name_;
  bool up_ = true;
  /// Indexed by LogId::slot; a deque so slot references survive growth.
  std::deque<Slot> slots_;
  std::map<std::string, uint32_t> slot_of_;  ///< name -> slot, never unbound
};

}  // namespace xg::cspot
