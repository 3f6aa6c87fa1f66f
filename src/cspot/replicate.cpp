#include "cspot/replicate.hpp"

#include "common/logging.hpp"

namespace xg::cspot {

Replicator::Replicator(Runtime& rt, std::string src_node, std::string src_log,
                       std::string dst_node, std::string dst_log,
                       AppendOptions options)
    : rt_(rt), src_node_(std::move(src_node)), src_log_(std::move(src_log)),
      dst_node_(std::move(dst_node)), dst_log_(std::move(dst_log)),
      options_(options) {}

Result<std::unique_ptr<Replicator>> Replicator::Create(
    Runtime& rt, const std::string& src_node, const std::string& src_log,
    const std::string& dst_node, const std::string& dst_log,
    AppendOptions options) {
  Node* src = rt.GetNode(src_node);
  if (src == nullptr || src->GetLog(src_log) == nullptr) {
    return Status(ErrorCode::kNotFound,
                  "source log missing: " + src_node + "/" + src_log);
  }
  auto repl = std::unique_ptr<Replicator>(
      new Replicator(rt, src_node, src_log, dst_node, dst_log, options));
  Replicator* ptr = repl.get();
  Status s = rt.RegisterHandler(
      src_node, src_log,
      [ptr](const std::string&, SeqNo seq,
            const std::vector<uint8_t>& payload) {
        ptr->Forward(seq, payload, /*from_recovery=*/false);
      });
  if (!s.ok()) return s;
  return repl;
}

uint64_t Replicator::TokenFor(SeqNo src_seq,
                              const std::vector<uint8_t>& payload) const {
  // Hashing the payload alongside the seq is load-bearing: after a source
  // power loss truncates the tail, a *new* payload can legitimately reuse
  // a truncated seq. Seq-only tokens would dedup it against the dead
  // element's ack; payload-hashed tokens only dedup true re-ships.
  uint64_t h = StableToken(&src_seq, sizeof(src_seq));
  for (const std::string* s : {&src_node_, &src_log_, &dst_node_, &dst_log_}) {
    h = StableToken(s->data(), s->size(), h);
  }
  return StableToken(payload.data(), payload.size(), h);
}

void Replicator::MarkAcked(SeqNo src_seq) {
  if (src_seq <= report_.last_acked_contiguous) return;
  acked_.insert(src_seq);
  while (acked_.count(report_.last_acked_contiguous + 1)) {
    acked_.erase(++report_.last_acked_contiguous);
  }
}

void Replicator::Forward(SeqNo src_seq, const std::vector<uint8_t>& payload,
                         bool from_recovery) {
  if (src_seq <= report_.last_acked_contiguous || acked_.count(src_seq) ||
      inflight_.count(src_seq)) {
    return;  // already delivered or being delivered
  }
  inflight_.insert(src_seq);
  AppendOptions opts = options_;
  opts.idem_token = TokenFor(src_seq, payload);
  rt_.RemoteAppend(
      src_node_, dst_node_, dst_log_, payload, opts,
      [this, src_seq, from_recovery](Result<SeqNo> r,
                                     const fault::FaultOutcome& outcome) {
        inflight_.erase(src_seq);
        report_.retries += static_cast<uint64_t>(outcome.retries());
        report_.retries_loss += static_cast<uint64_t>(outcome.causes.loss);
        report_.retries_partition +=
            static_cast<uint64_t>(outcome.causes.partition);
        report_.retries_ack_loss +=
            static_cast<uint64_t>(outcome.causes.ack_loss);
        report_.total_backoff_ms += outcome.total_backoff_ms();
        if (!outcome.backoff_ms.empty()) {
          report_.last_backoff_ms = outcome.backoff_ms;
        }
        if (outcome.deduped) ++report_.deduped;
        if (r.ok()) {
          ++report_.shipped;
          if (from_recovery) ++report_.recovery_shipped;
          MarkAcked(src_seq);
        } else {
          ++report_.failed;
          report_.final_status = r.status();
          XG_LOG(kWarn, "replicator")
              << src_log_ << " -> " << dst_node_ << "/" << dst_log_
              << " forward of seq " << src_seq
              << " failed: " << r.status().ToString();
        }
      });
}

void Replicator::Recover(std::function<void(const DeliveryReport&)> done) {
  Node* src = rt_.GetNode(src_node_);
  LogStorage* log = src == nullptr ? nullptr : src->GetLog(src_log_);
  if (log == nullptr) {
    if (done) done(report_);
    return;
  }
  const SeqNo latest = log->Latest();
  SeqNo from = report_.last_acked_contiguous + 1;
  const SeqNo earliest = log->Earliest();
  if (earliest != kNoSeq && from < earliest) from = earliest;
  for (SeqNo s = from; latest != kNoSeq && s <= latest; ++s) {
    if (acked_.count(s) || inflight_.count(s)) continue;
    Result<std::vector<uint8_t>> payload = log->Get(s);
    if (!payload.ok()) continue;  // evicted between Latest() and Get()
    Forward(s, payload.value(), /*from_recovery=*/true);
  }
  // The forwards are asynchronous; the report the callback sees reflects
  // what has completed so far. Tests drive the sim to quiescence first.
  if (done) done(report_);
}

}  // namespace xg::cspot
