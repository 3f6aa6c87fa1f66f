#include "cspot/log.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/contract.hpp"

namespace xg::cspot {

Status ValidateLogConfig(const LogConfig& config) {
  XG_REQUIRE(config.element_size > 0, kInvalidArgument,
             "log element size must be positive: " + config.name);
  XG_REQUIRE(config.element_size <= kMaxElementSize, kInvalidArgument,
             "log element size exceeds limit: " + config.name);
  XG_REQUIRE(config.history > 0, kInvalidArgument,
             "log history window must be positive: " + config.name);
  return Status::Ok();
}

Result<SeqNo> LogStorage::Append(const std::vector<uint8_t>& payload) {
  XG_REQUIRE(payload.size() <= config_.element_size, kInvalidArgument,
             "payload exceeds element size of log " + config_.name);
  // CSPOT's dense-sequence invariant: Append is the only writer and hands
  // out consecutive numbers; a gap here would break Laminar's replay.
  const SeqNo seq = next_seq_;
  Status s = WriteSlot(seq, payload);
  if (!s.ok()) return s;
  next_seq_ = seq + 1;
  s = Persist();
  if (!s.ok()) return s;
  return seq;
}

Result<std::vector<uint8_t>> LogStorage::Get(SeqNo seq) const {
  if (seq < 0 || seq >= next_seq_) {
    return Status(ErrorCode::kNotFound, "sequence number never written");
  }
  if (seq < Earliest()) {
    return Status(ErrorCode::kNotFound, "element evicted from history");
  }
  std::vector<uint8_t> out;
  Status s = ReadSlot(
      seq, [&out](std::span<const uint8_t> p) { out.assign(p.begin(), p.end()); });
  if (!s.ok()) return s;
  return out;
}

SeqNo LogStorage::Latest() const {
  return next_seq_ == 0 ? kNoSeq : next_seq_ - 1;
}

SeqNo LogStorage::Earliest() const {
  if (next_seq_ == 0) return kNoSeq;
  return std::max(next_seq_ - static_cast<SeqNo>(config_.history), SeqNo{0});
}

Status LogStorage::TruncateTo(SeqNo last_retained) {
  XG_REQUIRE(last_retained >= kNoSeq, kInvalidArgument,
             "truncation point below kNoSeq: " + config_.name);
  if (last_retained + 1 >= next_seq_) return Status::Ok();
  // Rolling back the sequence counter makes Get() reject the dropped seqs.
  const SeqNo new_next = last_retained + 1;
  Forget(std::max(new_next, Earliest()), next_seq_);
  next_seq_ = new_next;
  return Persist();
}

void LogStorage::VisitTail(size_t n, const Visitor& fn) const {
  const SeqNo first =
      std::max(next_seq_ - static_cast<SeqNo>(std::min(n, config_.history)),
               SeqNo{0});
  for (SeqNo s = first; s < next_seq_; ++s) (void)ReadSlot(s, fn);
}

std::vector<std::vector<uint8_t>> LogStorage::Tail(size_t n) const {
  std::vector<std::vector<uint8_t>> out;
  VisitTail(n, [&out](std::span<const uint8_t> payload) {
    out.emplace_back(payload.begin(), payload.end());
  });
  return out;
}

MemoryLog::MemoryLog(LogConfig config) : LogStorage(std::move(config)) {
  // Constructors cannot return a Status; geometry is validated by the
  // creating factories (Node::CreateLog, FileLog::Open). Still guard the
  // zero-history case that would make every ring index undefined.
  XG_INVARIANT(config_.history > 0, "MemoryLog history must be positive");
  if (config_.history == 0) config_.history = 1;
  ring_.resize(config_.history);
}

Status MemoryLog::WriteSlot(SeqNo seq, const std::vector<uint8_t>& payload) {
  ring_[static_cast<size_t>(seq) % config_.history] = payload;
  return Status::Ok();
}

Status MemoryLog::ReadSlot(SeqNo seq, const Visitor& fn) const {
  fn(ring_[static_cast<size_t>(seq) % config_.history]);
  return Status::Ok();
}

void MemoryLog::Forget(SeqNo from, SeqNo to) {
  // A later wrap-around must not expose the dropped payloads as if they
  // were older retained elements.
  for (SeqNo s = from; s < to; ++s) {
    ring_[static_cast<size_t>(s) % config_.history].clear();
  }
}

namespace {
constexpr uint64_t kMagic = 0x43535054'4C4F4731ull;  // "CSPTLOG1"

struct FileHeader {
  uint64_t magic;
  uint64_t element_size;
  uint64_t history;
  int64_t next_seq;
};
}  // namespace

FileLog::FileLog(std::string path, LogConfig config)
    : LogStorage(std::move(config)), path_(std::move(path)) {}

FileLog::~FileLog() {
  if (file_ != nullptr) std::fclose(file_);
}

long FileLog::SlotOffset(SeqNo seq) const {
  const size_t slot = static_cast<size_t>(seq) % config_.history;
  return static_cast<long>(sizeof(FileHeader) + slot * SlotBytes());
}

Status FileLog::WriteHeader() {
  FileHeader h{kMagic, config_.element_size, config_.history, next_seq_};
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fwrite(&h, sizeof(h), 1, file_) != 1 || std::fflush(file_) != 0) {
    return Status(ErrorCode::kInternal, "header write failed: " + path_);
  }
  return Status::Ok();
}

Status FileLog::ReadHeader() {
  FileHeader h{};
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fread(&h, sizeof(h), 1, file_) != 1) {
    return Status(ErrorCode::kInternal, "header read failed: " + path_);
  }
  if (h.magic != kMagic) {
    return Status(ErrorCode::kFailedPrecondition, "not a CSPOT log: " + path_);
  }
  if (h.element_size != config_.element_size || h.history != config_.history) {
    return Status(ErrorCode::kFailedPrecondition,
                  "log geometry mismatch on reopen: " + path_);
  }
  next_seq_ = h.next_seq;
  return Status::Ok();
}

Result<std::unique_ptr<FileLog>> FileLog::Open(const std::string& path,
                                               LogConfig config) {
  Status geometry = ValidateLogConfig(config);
  if (!geometry.ok()) return geometry;
  auto log = std::unique_ptr<FileLog>(new FileLog(path, std::move(config)));
  // Try reopen first (crash recovery path), else create fresh.
  log->file_ = std::fopen(path.c_str(), "r+b");
  if (log->file_ != nullptr) {
    Status s = log->ReadHeader();
    if (!s.ok()) return s;
    return log;
  }
  log->file_ = std::fopen(path.c_str(), "w+b");
  if (log->file_ == nullptr) {
    return Status(ErrorCode::kUnavailable, "cannot create log file: " + path);
  }
  Status s = log->WriteHeader();
  if (!s.ok()) return s;
  return log;
}

Status FileLog::WriteSlot(SeqNo seq, const std::vector<uint8_t>& payload) {
  const auto len = static_cast<uint32_t>(payload.size());
  std::vector<uint8_t> slot(SlotBytes(), 0);
  std::memcpy(slot.data(), &len, sizeof(len));
  std::memcpy(slot.data() + sizeof(len), payload.data(), payload.size());
  if (std::fseek(file_, SlotOffset(seq), SEEK_SET) != 0 ||
      std::fwrite(slot.data(), slot.size(), 1, file_) != 1) {
    return Status(ErrorCode::kUnavailable, "slot write failed: " + path_);
  }
  return Status::Ok();
}

Status FileLog::ReadSlot(SeqNo seq, const Visitor& fn) const {
  uint32_t len = 0;
  if (std::fseek(file_, SlotOffset(seq), SEEK_SET) != 0 ||
      std::fread(&len, sizeof(len), 1, file_) != 1 ||
      len > config_.element_size) {
    return Status(ErrorCode::kInternal, "slot read failed: " + path_);
  }
  std::vector<uint8_t> payload(len);
  if (len > 0 && std::fread(payload.data(), len, 1, file_) != 1) {
    return Status(ErrorCode::kInternal, "payload read failed: " + path_);
  }
  fn(payload);
  return Status::Ok();
}

}  // namespace xg::cspot
