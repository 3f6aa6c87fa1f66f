#include "cspot/runtime.hpp"

#include <utility>

#include "common/contract.hpp"

namespace xg::cspot {

Runtime::Runtime(sim::Simulation& sim, uint64_t seed, RuntimeParams params)
    : sim_(sim), wan_(sim, seed ^ 0xA5A5A5A5u), rng_(seed), params_(params) {}

void Runtime::AttachObservability(obs::MetricsRegistry* registry,
                                  obs::Tracer* tracer) {
  tracer_ = tracer;
  wan_.set_tracer(tracer);
  if (registry == nullptr) return;
  registry->RegisterCounter("xg_cspot_remote_appends_total", {},
                            "Remote append operations started",
                            &counters_.remote_appends);
  registry->RegisterCounter("xg_cspot_append_attempts_total", {},
                            "Append protocol attempts (retries)",
                            &counters_.attempts);
  registry->RegisterCounter("xg_cspot_size_requests_total", {},
                            "Get-size round trips", &counters_.size_requests);
  registry->RegisterCounter("xg_cspot_size_cache_hits_total", {},
                            "Element-size cache hits",
                            &counters_.size_cache_hits);
  registry->RegisterCounter("xg_cspot_size_cache_invalidations_total", {},
                            "Stale element-size cache entries invalidated",
                            &counters_.size_cache_invalidations);
  registry->RegisterCounter("xg_cspot_puts_total", {}, "Put round trips",
                            &counters_.puts);
  registry->RegisterCounter("xg_cspot_dedup_hits_total", {},
                            "Idempotent retries absorbed by dedup",
                            &counters_.dedup_hits);
  registry->RegisterCounter("xg_cspot_timeouts_total", {},
                            "Per-phase response timeouts", &counters_.timeouts);
  registry->RegisterCounter("xg_cspot_handler_fires_total", {},
                            "Append handlers dispatched",
                            &counters_.handler_fires);
  registry->RegisterCallback(
      "xg_cspot_wan_messages_sent_total", {}, "WAN messages sent",
      [this] { return static_cast<double>(wan_.messages_sent()); },
      obs::MetricSample::Type::kCounter);
  registry->RegisterCallback(
      "xg_cspot_wan_messages_lost_total", {}, "WAN messages lost",
      [this] { return static_cast<double>(wan_.messages_lost()); },
      obs::MetricSample::Type::kCounter);
}

void Runtime::AttachSlo(obs::slo::LatencyLedger* ledger) {
  slo_ = ledger;
  wan_.set_slo_ledger(ledger);
}

void Runtime::AttachFaultInjector(fault::FaultInjector& injector) {
  wan_.set_fault_injector(&injector);
  injector.OnWindow(
      fault::FaultKind::kPartition,
      [this](const fault::FaultEvent& e, bool begin) {
        const auto [a, b] = fault::FaultPlan::SplitLinkTarget(e.target);
        // A plan naming an unknown link is a plan bug, not a runtime
        // error path; surface it loudly under the contract macros.
        Status s = wan_.SetLinkUp(a, b, !begin);
        XG_INVARIANT(s.ok(), "partition target names no WAN link: " + e.target);
      });
  injector.OnWindow(
      fault::FaultKind::kNodeUnreachable,
      [this](const fault::FaultEvent& e, bool begin) {
        Status s = wan_.SetNodeReachable(e.target, !begin);
        XG_INVARIANT(s.ok(), "unreachable target names no WAN node: " +
                                 e.target);
      });
  injector.OnWindow(
      fault::FaultKind::kPowerLoss,
      [this](const fault::FaultEvent& e, bool begin) {
        Node* node = GetNode(e.target);
        if (node == nullptr) return;
        if (begin) {
          Status s = node->PowerFail(static_cast<size_t>(e.magnitude));
          XG_INVARIANT(s.ok(), "power-loss truncation failed on " + e.target);
        } else {
          node->set_up(true);
        }
      });
}

Node& Runtime::AddNode(const std::string& name) {
  const NodeId id = wan_.AddNode(name);
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  if (nodes_[id] == nullptr) nodes_[id] = std::make_unique<Node>(name);
  return *nodes_[id];
}

Result<LogStorage*> Runtime::CreateLog(const std::string& node,
                                       const LogConfig& cfg) {
  Node* n = GetNode(node);
  if (n == nullptr) return Status(ErrorCode::kNotFound, "no node " + node);
  return n->CreateLog(cfg);
}

void Runtime::FireHandlers(Node& host, const std::string& log, SeqNo seq,
                           const std::vector<uint8_t>& payload) {
  for (const auto& handler : host.HandlersFor(log)) {
    Node* host_ptr = &host;
    sim_.Schedule(sim::SimTime::Millis(params_.handler_delay_ms),
                  [this, host_ptr, handler, log, seq, payload]() {
                    // A node that lost power after the append does not run
                    // the handler; recovery code re-scans the log instead.
                    if (!host_ptr->up()) return;
                    ++counters_.handler_fires;
                    handler(log, seq, payload);
                  });
  }
}

Result<SeqNo> Runtime::LocalAppend(const std::string& node,
                                   const std::string& log,
                                   const std::vector<uint8_t>& payload) {
  Node* n = GetNode(node);
  if (n == nullptr) return Status(ErrorCode::kNotFound, "no node " + node);
  if (!n->up()) return Status(ErrorCode::kUnavailable, node + " is down");
  LogStorage* storage = n->GetLog(log);
  if (storage == nullptr) {
    return Status(ErrorCode::kNotFound, "no log " + log + " on " + node);
  }
  Result<SeqNo> r = storage->Append(payload);
  if (r.ok()) FireHandlers(*n, log, r.value(), payload);
  return r;
}

Status Runtime::RegisterHandler(const std::string& node, const std::string& log,
                                Node::Handler handler) {
  Node* n = GetNode(node);
  if (n == nullptr) return Status(ErrorCode::kNotFound, "no node " + node);
  return n->RegisterHandler(log, std::move(handler));
}

void Runtime::InvalidateSizeCache(const std::string& client,
                                  const std::string& host,
                                  const std::string& log) {
  size_cache_.erase({wan_.Find(client), wan_.Find(host), log});
}

// ---------------------------------------------------------------------------
// Remote append state machine
// ---------------------------------------------------------------------------

struct Runtime::AppendOp {
  NodeId client = kNoNode, host = kNoNode;
  std::string log;
  std::vector<uint8_t> payload;
  AppendOptions opts;
  resil::RetryPolicy policy;  ///< built from opts.retry, shared by attempts
  AppendCallback done;
  uint64_t token = 0;      ///< idempotence token, constant across retries
  int attempt = 0;
  bool finished = false;
  bool deduped = false;    ///< ack came from the host's dedup table
  int64_t started_us = 0;  ///< first-attempt time, for the op deadline
  sim::EventHandle timeout;
  uint64_t phase_id = 0;   ///< guards stale responses from earlier phases
  /// Most specific transport failure observed during the current attempt;
  /// kAckLoss (pure silence) until a send reports otherwise.
  fault::RetryCause attempt_cause = fault::RetryCause::kAckLoss;
  fault::RetryBreakdown causes;    ///< timeout-driven retries by cause
  std::vector<double> backoff_ms;  ///< backoff waited before each retry
  obs::TraceContext span;        ///< cspot.append, whole operation
  obs::TraceContext phase_span;  ///< current get-size / put phase
};

void Runtime::RemoteAppend(const std::string& client, const std::string& host,
                           const std::string& log,
                           std::vector<uint8_t> payload,
                           const AppendOptions& opts, AppendCallback done) {
  ++counters_.remote_appends;
  auto op = std::make_shared<AppendOp>();
  op->client = wan_.Find(client);
  op->host = wan_.Find(host);
  op->log = log;
  op->payload = std::move(payload);
  op->opts = opts;
  op->policy = resil::RetryPolicy(opts.retry);
  op->done = std::move(done);
  op->token = opts.idem_token != 0 ? opts.idem_token : next_token_++;
  op->started_us = sim_.Now().micros();
  op->span = obs::StartSpanIf(tracer_, obs::SpanName::kCspotAppend,
                              opts.trace);
  if (op->span.valid()) {
    tracer_->Annotate(op->span, "path", client + "->" + host);
    tracer_->Annotate(op->span, "log", log);
  }
  if (op->client == kNoNode || op->host == kNoNode) {
    const std::string& missing = op->client == kNoNode ? client : host;
    FinishAttempt(op, Status(ErrorCode::kNotFound, "no node " + missing));
    return;
  }
  StartAttempt(std::move(op));
}

void Runtime::NoteSendFailure(AppendOp& op) {
  switch (wan_.last_send_failure()) {
    case SendFailure::kNoRoute:
    case SendFailure::kCircuitOpen:  // open because the path is down
      op.attempt_cause = fault::RetryCause::kPartition;
      return;
    case SendFailure::kLoss:
      op.attempt_cause = fault::RetryCause::kLoss;
      return;
    case SendFailure::kNone:
      return;
  }
}

void Runtime::ScheduleRetry(std::shared_ptr<AppendOp> op) {
  op->causes.Add(op->attempt_cause);
  op->attempt_cause = fault::RetryCause::kAckLoss;
  // Grandfathered: retry-budget arithmetic, not a stage boundary.
  const double elapsed_ms =  // xglint:allow(stage-stamp)
      static_cast<double>(sim_.Now().micros() - op->started_us) / 1e3;
  if (!op->policy.ShouldAttempt(op->attempt + 1, elapsed_ms)) {
    StartAttempt(std::move(op));  // produces the exhaustion failure now
    return;
  }
  const double backoff = op->policy.BackoffMs(op->attempt + 1, rng_);
  if (backoff <= 0.0) {
    StartAttempt(std::move(op));
    return;
  }
  op->backoff_ms.push_back(backoff);
  if (tracer_ != nullptr) {
    tracer_->AnnotateDouble(op->span, "backoff_ms", backoff);
  }
  sim_.Schedule(sim::SimTime::Millis(backoff),
                [this, op = std::move(op)]() { StartAttempt(op); });
}

void Runtime::StartAttempt(std::shared_ptr<AppendOp> op) {
  if (op->finished) return;
  // Grandfathered: retry-budget arithmetic, not a stage boundary.
  const double elapsed_ms =  // xglint:allow(stage-stamp)
      static_cast<double>(sim_.Now().micros() - op->started_us) / 1e3;
  if (!op->policy.ShouldAttempt(op->attempt + 1, elapsed_ms)) {
    op->finished = true;
    obs::AnnotateIf(tracer_, op->span, "error", "exhausted retries");
    obs::EndSpanIf(tracer_, op->span);
    const Status timeout(ErrorCode::kTimeout, "append to " +
                                                  wan_.NodeName(op->host) +
                                                  "/" + op->log +
                                                  " exhausted retries");
    fault::FaultOutcome outcome;
    outcome.status = timeout;
    outcome.attempts = op->attempt;
    outcome.deduped = op->deduped;
    outcome.causes = op->causes;
    outcome.backoff_ms = op->backoff_ms;
    op->done(timeout, outcome);
    return;
  }
  ++op->attempt;
  ++counters_.attempts;
  ++op->phase_id;

  if (op->opts.use_size_cache) {
    auto cached = size_cache_.find(std::tie(op->client, op->host, op->log));
    if (cached != size_cache_.end()) {
      ++counters_.size_cache_hits;
      PhasePut(std::move(op), cached->second);
      return;
    }
  }
  PhaseGetSize(std::move(op));
}

void Runtime::PhaseGetSize(std::shared_ptr<AppendOp> op) {
  ++counters_.size_requests;
  const uint64_t phase = op->phase_id;
  op->phase_span =
      obs::StartSpanIf(tracer_, obs::SpanName::kCspotGetSize, op->span);

  // Arm the per-phase timeout: if no response lands, retry from scratch
  // (after the policy's backoff).
  op->timeout = sim_.Schedule(sim::SimTime::Millis(op->policy.AttemptTimeoutMs()),
                              [this, op, phase]() {
                                if (op->finished || op->phase_id != phase) return;
                                ++counters_.timeouts;
                                obs::AnnotateIf(tracer_, op->phase_span,
                                                "timeout", "true");
                                obs::EndSpanIf(tracer_, op->phase_span);
                                ScheduleRetry(op);
                              });

  // A synchronous send failure (no route, loss) is deliberately not acted
  // on here: the armed timeout drives the retry at the configured pace.
  // Failing fast would spin retries back-to-back in zero virtual time.
  // The failure kind is noted so the eventual retry is charged to its
  // cause (loss vs. partition) instead of the silent ack-loss bucket.
  const Status req = wan_.Send(op->client, op->host, params_.control_bytes, [this, op, phase]() {
    // Request arrives at the host.
    Node* host = NodeAt(op->host);
    if (host == nullptr || !host->up()) return;  // dropped; timeout drives retry
    LogStorage* storage = host->GetLog(op->log);
    const bool found = storage != nullptr;
    const size_t element_size = found ? storage->config().element_size : 0;
    const Status reply = wan_.Send(op->host, op->client, params_.control_bytes,
              [this, op, phase, found, element_size]() {
                if (op->finished || op->phase_id != phase) return;
                sim_.Cancel(op->timeout);
                obs::EndSpanIf(tracer_, op->phase_span);
                if (!found) {
                  FinishAttempt(op, Status(ErrorCode::kNotFound,
                                           "no log " + op->log + " on " +
                                               wan_.NodeName(op->host)));
                  return;
                }
                size_cache_.insert_or_assign({op->client, op->host, op->log},
                                             element_size);
                ++op->phase_id;
                PhasePut(op, element_size);
              },
              op->phase_span);
    if (!reply.ok()) NoteSendFailure(*op);
  },
  op->phase_span);
  if (!req.ok()) NoteSendFailure(*op);
}

void Runtime::PhasePut(std::shared_ptr<AppendOp> op, size_t assumed_size) {
  ++counters_.puts;
  const uint64_t phase = op->phase_id;
  if (op->payload.size() > assumed_size) {
    FinishAttempt(op, Status(ErrorCode::kInvalidArgument,
                             "payload exceeds element size"));
    return;
  }
  op->phase_span =
      obs::StartSpanIf(tracer_, obs::SpanName::kCspotPut, op->span);

  op->timeout = sim_.Schedule(sim::SimTime::Millis(op->policy.AttemptTimeoutMs()),
                              [this, op, phase]() {
                                if (op->finished || op->phase_id != phase) return;
                                ++counters_.timeouts;
                                obs::AnnotateIf(tracer_, op->phase_span,
                                                "timeout", "true");
                                obs::EndSpanIf(tracer_, op->phase_span);
                                ScheduleRetry(op);
                              });

  const size_t wire_bytes = params_.control_bytes + op->payload.size();
  // As in PhaseGetSize: the timeout, not the synchronous Status, paces
  // retries of lost puts.
  const Status put = wan_.Send(op->client, op->host, wire_bytes, [this, op, phase, assumed_size]() {
    // The payload has crossed the WAN to the repository — the wan_hop
    // SLO boundary — whether or not the host can act on it.
    if (slo_ != nullptr && op->opts.trace.valid()) {
      slo_->Stamp(op->opts.trace.trace_id, obs::slo::Stage::kWanHop,
                  sim_.Now().micros());
    }
    Node* host = NodeAt(op->host);
    if (host == nullptr || !host->up()) return;
    LogStorage* storage = host->GetLog(op->log);

    enum class Verdict { kOk, kNotFound, kSizeMismatch, kDedup, kStorageError };
    Verdict verdict = Verdict::kOk;
    SeqNo seq = kNoSeq;

    if (storage == nullptr) {
      verdict = Verdict::kNotFound;
    } else if (storage->config().element_size != assumed_size) {
      // The client's cached element size is stale: the log was recreated
      // with a different geometry. The append is rejected (the paper's
      // size-cache failure mode).
      verdict = Verdict::kSizeMismatch;
    } else {
      Result<SeqNo> dedup = host->DedupLookup(op->log, op->token);
      if (dedup.ok()) {
        verdict = Verdict::kDedup;
        seq = dedup.value();
      }
    }

    // The persistent append consumes storage time at the host before the
    // ack is generated (the ack carries the durable sequence number).
    const double host_ms = (verdict == Verdict::kOk) ? params_.storage_ms : 0.0;
    if (tracer_ != nullptr && op->phase_span.valid() && host_ms > 0.0) {
      const int64_t now_us = sim_.Now().micros();
      tracer_->RecordSpan(obs::SpanName::kCspotStorage, op->phase_span,
                          now_us, now_us + static_cast<int64_t>(host_ms * 1e3));
    }
    sim_.Schedule(sim::SimTime::Millis(host_ms), [this, op, phase, verdict_in = verdict,
                                                  seq_in = seq]() mutable {
      Verdict verdict = verdict_in;
      SeqNo seq = seq_in;
      Node* host_ptr = NodeAt(op->host);
      if (!host_ptr->up()) return;  // power lost mid-append: no ack
      if (verdict == Verdict::kOk) {
        LogStorage* storage = host_ptr->GetLog(op->log);
        if (storage == nullptr) {
          verdict = Verdict::kNotFound;
        } else {
          Result<SeqNo> r = storage->Append(op->payload);
          if (!r.ok()) {
            verdict = Verdict::kStorageError;
          } else {
            seq = r.value();
            host_ptr->DedupRecord(op->log, op->token, seq);
            FireHandlers(*host_ptr, op->log, seq, op->payload);
            // Durably appended at the host: the cspot_append boundary.
            if (slo_ != nullptr && op->opts.trace.valid()) {
              slo_->Stamp(op->opts.trace.trace_id,
                          obs::slo::Stage::kCspotAppend, sim_.Now().micros());
            }
          }
        }
      }
      const Status ack = wan_.Send(op->host, op->client, params_.control_bytes,
                [this, op, phase, verdict, seq]() {
                  if (op->finished || op->phase_id != phase) return;
                  sim_.Cancel(op->timeout);
                  obs::EndSpanIf(tracer_, op->phase_span);
                  switch (verdict) {
                    case Verdict::kOk:
                      FinishAttempt(op, seq);
                      return;
                    case Verdict::kDedup:
                      ++counters_.dedup_hits;
                      op->deduped = true;
                      FinishAttempt(op, seq);
                      return;
                    case Verdict::kNotFound:
                      FinishAttempt(op, Status(ErrorCode::kNotFound,
                                               "no log " + op->log));
                      return;
                    case Verdict::kSizeMismatch:
                      ++counters_.size_cache_invalidations;
                      size_cache_.erase({op->client, op->host, op->log});
                      ++op->phase_id;
                      StartAttempt(op);  // refreshes the size next attempt
                      return;
                    case Verdict::kStorageError:
                      FinishAttempt(op, Status(ErrorCode::kInternal,
                                               "storage append failed"));
                      return;
                  }
                },
                op->phase_span);
      if (!ack.ok()) NoteSendFailure(*op);
    });
  },
  op->phase_span);
  if (!put.ok()) NoteSendFailure(*op);
}

void Runtime::FinishAttempt(std::shared_ptr<AppendOp> op, Result<SeqNo> result) {
  if (op->finished) return;
  op->finished = true;
  sim_.Cancel(op->timeout);
  // Ack received back at the sensor edge: the replication_ack boundary
  // (dedup-absorbed retries count — the data was durable all along).
  if (result.ok() && slo_ != nullptr && op->opts.trace.valid()) {
    slo_->Stamp(op->opts.trace.trace_id, obs::slo::Stage::kReplicationAck,
                sim_.Now().micros());
  }
  if (tracer_ != nullptr && op->span.valid()) {
    tracer_->AnnotateInt(op->span, "attempts", op->attempt);
    if (op->deduped) tracer_->Annotate(op->span, "deduped", "true");
    if (!result.ok()) {
      tracer_->Annotate(op->span, "error", result.status().ToString());
    }
    tracer_->EndSpan(op->phase_span);
    tracer_->EndSpan(op->span);
  }
  fault::FaultOutcome outcome;
  outcome.status = result.ok() ? Status::Ok() : result.status();
  outcome.attempts = op->attempt;
  outcome.deduped = op->deduped;
  outcome.causes = op->causes;
  outcome.backoff_ms = op->backoff_ms;
  op->done(std::move(result), outcome);
}

// ---------------------------------------------------------------------------
// Remote reads (single round trip each)
// ---------------------------------------------------------------------------

void Runtime::RemoteLatestSeq(const std::string& client,
                              const std::string& host, const std::string& log,
                              SeqCallback done) {
  const NodeId c = wan_.Find(client), h = wan_.Find(host);
  auto cb = std::make_shared<SeqCallback>(std::move(done));
  // Server-side reply sends are (void): a lost reply simply leaves the
  // caller without a callback, exactly as a lost datagram would.
  const Status sent =
      wan_.Send(c, h, params_.control_bytes, [this, c, h, log, cb]() {
        Node* node = NodeAt(h);
        if (node == nullptr || !node->up()) return;
        LogStorage* storage = node->GetLog(log);
        if (storage == nullptr) {
          (void)wan_.Send(h, c, params_.control_bytes, [cb, log]() {
            (*cb)(Status(ErrorCode::kNotFound, "no log " + log));
          });
          return;
        }
        const SeqNo latest = storage->Latest();
        (void)wan_.Send(h, c, params_.control_bytes,
                        [cb, latest]() { (*cb)(latest); });
      });
  if (!sent.ok()) {
    sim_.Schedule(sim::SimTime::Millis(0.0), [cb, sent]() { (*cb)(sent); });
  }
}

void Runtime::RemoteGet(const std::string& client, const std::string& host,
                        const std::string& log, SeqNo seq, ReadCallback done) {
  const NodeId c = wan_.Find(client), h = wan_.Find(host);
  auto cb = std::make_shared<ReadCallback>(std::move(done));
  const Status sent =
      wan_.Send(c, h, params_.control_bytes, [this, c, h, log, seq, cb]() {
        Node* node = NodeAt(h);
        if (node == nullptr || !node->up()) return;
        LogStorage* storage = node->GetLog(log);
        if (storage == nullptr) {
          (void)wan_.Send(h, c, params_.control_bytes, [cb, log]() {
            (*cb)(Status(ErrorCode::kNotFound, "no log " + log));
          });
          return;
        }
        Result<std::vector<uint8_t>> r = storage->Get(seq);
        const size_t bytes =
            params_.control_bytes + (r.ok() ? r.value().size() : 0);
        (void)wan_.Send(h, c, bytes, [cb, r = std::move(r)]() { (*cb)(r); });
      });
  if (!sent.ok()) {
    sim_.Schedule(sim::SimTime::Millis(0.0), [cb, sent]() { (*cb)(sent); });
  }
}

}  // namespace xg::cspot
