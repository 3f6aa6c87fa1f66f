#include "cspot/node.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/contract.hpp"

namespace xg::cspot {

size_t DedupTable::Probe(uint64_t token) const {
  // Fibonacci hashing spreads sequential tokens as well as hashed ones.
  const size_t mask = cells_.size() - 1;
  size_t i = (token * 0x9E3779B97F4A7C15ull) >> 32 & mask;
  while (cells_[i].token != token && cells_[i].token != 0) i = (i + 1) & mask;
  return i;
}

void DedupTable::Rebuild(size_t cells, SeqNo keep) {
  std::vector<Cell> old = std::exchange(cells_, std::vector<Cell>(cells));
  size_ = 0;
  for (const Cell& c : old) {
    if (c.token == 0 || c.seq > keep) continue;
    cells_[Probe(c.token)] = c;
    ++size_;
  }
}

SeqNo DedupTable::Find(uint64_t token) const {
  if (size_ == 0 || token == 0) return kNoSeq;
  const Cell& c = cells_[Probe(token)];
  return c.token == token ? c.seq : kNoSeq;
}

void DedupTable::Record(uint64_t token, SeqNo seq) {
  XG_INVARIANT(token != 0, "dedup token 0 is reserved");
  if (token == 0) return;
  if (2 * (size_ + 1) > cells_.size()) {
    Rebuild(std::max<size_t>(16, 2 * cells_.size()), INT64_MAX);
  }
  Cell& c = cells_[Probe(token)];
  if (c.token == token) {
    // Exactly-once delivery hinges on a token mapping to one durable
    // sequence number forever: a retry that re-recorded a different seq
    // would mean the same logical append was written (and acked) twice.
    XG_INVARIANT(c.seq == seq,
                 "dedup token re-recorded with a different sequence number");
    return;
  }
  c = Cell{token, seq};
  ++size_;
}

Status Node::PowerFail(size_t lose_tail_appends) {
  up_ = false;
  Status first_error = Status::Ok();
  if (lose_tail_appends == 0) return first_error;
  for (const auto& [name, index] : slot_of_) {
    Slot& slot = slots_[index];
    const SeqNo latest = slot.storage ? slot.storage->Latest() : kNoSeq;
    if (latest == kNoSeq) continue;
    SeqNo keep = latest - static_cast<SeqNo>(lose_tail_appends);
    if (keep < kNoSeq) keep = kNoSeq;
    Status s = slot.storage->TruncateTo(keep);
    if (!s.ok() && first_error.ok()) first_error = s;
    slot.dedup.EraseAbove(keep);
  }
  return first_error;
}

Result<LogStorage*> Node::CreateLog(const LogConfig& config) {
  Status geometry = ValidateLogConfig(config);
  if (!geometry.ok()) return geometry;
  return AdoptLog(std::make_unique<MemoryLog>(config));
}

Result<LogStorage*> Node::AdoptLog(std::unique_ptr<LogStorage> log) {
  const std::string& name = log->config().name;
  if (GetLog(name) != nullptr) {
    return Status(ErrorCode::kAlreadyExists,
                  "log exists on " + name_ + ": " + name);
  }
  Slot& slot = slots_[Resolve(name).slot];
  slot.storage = std::move(log);
  return slot.storage.get();
}

Status Node::DeleteLog(const std::string& log) {
  auto it = slot_of_.find(log);
  if (it == slot_of_.end() || slots_[it->second].storage == nullptr) {
    return Status(ErrorCode::kNotFound, "no log " + log + " on " + name_);
  }
  Slot& slot = slots_[it->second];
  slot = Slot{slot.name, slot.gen + 1, nullptr, {}, {}};
  return Status::Ok();
}

LogId Node::Resolve(const std::string& log) {
  auto [it, added] =
      slot_of_.try_emplace(log, static_cast<uint32_t>(slots_.size()));
  if (added) slots_.emplace_back().name = log;
  return LogId{it->second, slots_[it->second].gen};
}

LogStorage* Node::Find(LogId id) const {
  const Slot* slot = Live(id);
  return slot == nullptr ? nullptr : slot->storage.get();
}

const std::string& Node::LogName(LogId id) const {
  static const std::string kNone;
  return id.slot < slots_.size() ? slots_[id.slot].name : kNone;
}

LogStorage* Node::GetLog(const std::string& log) const {
  auto it = slot_of_.find(log);
  return it == slot_of_.end() ? nullptr : slots_[it->second].storage.get();
}

Status Node::RegisterHandler(const std::string& log, Handler handler) {
  if (GetLog(log) == nullptr) {
    return Status(ErrorCode::kNotFound, "no log " + log + " on " + name_);
  }
  slots_[slot_of_.at(log)].handlers.push_back(std::move(handler));
  return Status::Ok();
}

const std::vector<Node::Handler>& Node::HandlersFor(LogId id) const {
  static const std::vector<Handler> kEmpty;
  const Slot* slot = Live(id);
  return slot == nullptr ? kEmpty : slot->handlers;
}

}  // namespace xg::cspot
