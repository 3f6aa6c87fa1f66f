#include "cspot/runtime.hpp"

#include <cstring>
#include <type_traits>
#include <utility>

#include "common/contract.hpp"

namespace xg::cspot {

uint64_t StableToken(const void* data, size_t size, uint64_t h) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  const auto* bytes = static_cast<const uint8_t*>(data);
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= size; i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, bytes + i, sizeof(word));
    h = (h ^ word) * kPrime;
  }
  for (; i < size; ++i) h = (h ^ bytes[i]) * kPrime;
  return h == 0 ? 1 : h;
}

struct Runtime::AppendOp {
  NodeId client = kNoNode, host = kNoNode;
  LogId log;
  std::vector<uint8_t> payload;
  AppendOptions opts;  ///< opts.idem_token is set, constant across retries
  AppendCallback done;
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
  OpKey key{0, 1};
  uint32_t claims = 0;  ///< host steps holding the op
};

/// Ops by slot plus a free list. A slot is recycled, its generation moved
/// on, once its op has finished and no Claim holds it.
struct Runtime::OpPool {
  std::vector<std::unique_ptr<AppendOp>> ops;
  std::vector<uint32_t> free;
  size_t claims = 0;      ///< live Claims across all ops
  bool orphaned = false;  ///< the runtime is gone; the last Claim frees this

  AppendOp& Acquire() {
    if (free.empty()) {
      ops.push_back(std::make_unique<AppendOp>());
      ops.back()->key.slot = static_cast<uint32_t>(ops.size() - 1);
      free.push_back(ops.back()->key.slot);
    }
    const uint32_t slot = free.back();
    free.pop_back();
    return *ops[slot];
  }
  void Recycle(AppendOp& op) {
    const OpKey next{op.key.slot, op.key.gen + 1};
    op = AppendOp{};
    op.key = next;
    free.push_back(next.slot);
  }
};

/// A host step's hold on its op: the op keeps its slot while a Claim is
/// alive, so a late or duplicated request is still served from the op's
/// payload and token after the client finished, as if the message carried
/// them. A Claim lives in a WAN delivery or a scheduled event and goes
/// with it, whether it ran or was dropped.
class Runtime::Claim {
 public:
  Claim(OpPool* pool, AppendOp& op) : pool_(pool), slot_(op.key.slot) {
    ++op.claims;
    ++pool->claims;
  }
  Claim(Claim&& o) noexcept
      : pool_(std::exchange(o.pool_, nullptr)), slot_(o.slot_) {}
  ~Claim() {
    if (pool_ == nullptr) return;
    AppendOp& held = op();
    --pool_->claims;
    if (--held.claims == 0 && held.finished) pool_->Recycle(held);
    if (pool_->orphaned && pool_->claims == 0) {
      std::unique_ptr<OpPool> last(pool_);
    }
  }
  AppendOp& op() const { return *pool_->ops[slot_]; }

 private:
  OpPool* pool_;
  uint32_t slot_;
};

Runtime::Runtime(sim::Simulation& sim, uint64_t seed, RuntimeParams params)
    : sim_(sim), wan_(sim, seed ^ 0xA5A5A5A5u), rng_(seed), params_(params),
      pool_(std::make_unique<OpPool>()) {}

Runtime::~Runtime() {
  // Claims in events the simulation still holds free the pool instead.
  if (pool_->claims > 0) {
    pool_->orphaned = true;
    (void)pool_.release();
  }
}

void Runtime::AttachObservability(obs::MetricsRegistry* registry,
                                  obs::Tracer* tracer) {
  tracer_ = tracer;
  wan_.set_tracer(tracer);
  if (registry == nullptr) return;
  const std::tuple<const char*, const char*, uint64_t*> counters[] = {
      {"remote_appends", "Remote append operations started",
       &counters_.remote_appends},
      {"append_attempts", "Append protocol attempts (retries)",
       &counters_.attempts},
      {"size_requests", "Get-size round trips", &counters_.size_requests},
      {"size_cache_hits", "Element-size cache hits",
       &counters_.size_cache_hits},
      {"size_cache_invalidations",
       "Stale element-size cache entries invalidated",
       &counters_.size_cache_invalidations},
      {"puts", "Put round trips", &counters_.puts},
      {"dedup_hits", "Idempotent retries absorbed by dedup",
       &counters_.dedup_hits},
      {"timeouts", "Per-phase response timeouts", &counters_.timeouts},
      {"handler_fires", "Append handlers dispatched",
       &counters_.handler_fires}};
  for (const auto& [name, help, value] : counters) {
    registry->RegisterCounter(
        std::string("xg_cspot_") + name + "_total", {}, help, value);
  }
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

LogId Runtime::ResolveLog(NodeId host, const std::string& log) {
  Node* n = NodeAt(host);
  return n == nullptr ? LogId{} : n->Resolve(log);
}

Result<LogStorage*> Runtime::CreateLog(const std::string& node,
                                       const LogConfig& cfg) {
  Node* n = GetNode(node);
  if (n == nullptr) return Status(ErrorCode::kNotFound, "no node " + node);
  return n->CreateLog(cfg);
}

void Runtime::FireHandlers(NodeId host, LogId log, SeqNo seq,
                           const std::vector<uint8_t>& payload) {
  const size_t count = NodeAt(host)->HandlersFor(log).size();
  for (size_t i = 0; i < count; ++i) {
    sim_.Schedule(sim::SimTime::Millis(params_.handler_delay_ms),
                  [this, host, log, i, seq, payload]() {
                    // A node that lost power after the append does not run
                    // the handler; recovery code re-scans the log instead.
                    Node& node = *NodeAt(host);
                    const auto& handlers = node.HandlersFor(log);
                    if (!node.up() || i >= handlers.size()) return;
                    ++counters_.handler_fires;
                    // A copy: the handler may register more handlers.
                    Node::Handler handler = handlers[i];
                    handler(node.LogName(log), seq, payload);
                  });
  }
}

Result<SeqNo> Runtime::LocalAppend(NodeId node, LogId log,
                                   const std::vector<uint8_t>& payload) {
  Node* n = NodeAt(node);
  if (!n->up()) return Status(ErrorCode::kUnavailable, n->name() + " is down");
  LogStorage* storage = n->Find(log);
  if (storage == nullptr) {
    return Status(ErrorCode::kNotFound,
                  "no log " + n->LogName(log) + " on " + n->name());
  }
  Result<SeqNo> r = storage->Append(payload);
  if (r.ok()) FireHandlers(node, log, r.value(), payload);
  return r;
}

Result<SeqNo> Runtime::LocalAppend(const std::string& node,
                                   const std::string& log,
                                   const std::vector<uint8_t>& payload) {
  const NodeId id = wan_.Find(node);
  if (id == kNoNode) return Status(ErrorCode::kNotFound, "no node " + node);
  return LocalAppend(id, ResolveLog(id, log), payload);
}

Status Runtime::RegisterHandler(const std::string& node, const std::string& log,
                                Node::Handler handler) {
  Node* n = GetNode(node);
  if (n == nullptr) return Status(ErrorCode::kNotFound, "no node " + node);
  return n->RegisterHandler(log, std::move(handler));
}

// ---------------------------------------------------------------------------
// Remote append state machine
// ---------------------------------------------------------------------------

void Runtime::RemoteAppend(const std::string& client, const std::string& host,
                           const std::string& log,
                           std::vector<uint8_t> payload,
                           const AppendOptions& opts, AppendCallback done) {
  const NodeId c = wan_.Find(client), h = wan_.Find(host);
  if (c == kNoNode || h == kNoNode) {  // fails before the protocol starts
    ++counters_.remote_appends;
    fault::FaultOutcome outcome;
    outcome.status = Status(ErrorCode::kNotFound,
                            "no node " + (c == kNoNode ? client : host));
    outcome.attempts = 0;
    done(outcome.status, outcome);
    return;
  }
  RemoteAppend(c, h, ResolveLog(h, log), std::move(payload), opts,
               std::move(done));
}

void Runtime::RemoteAppend(NodeId client, NodeId host, LogId log,
                           std::vector<uint8_t> payload,
                           const AppendOptions& opts, AppendCallback done) {
  ++counters_.remote_appends;
  AppendOp& op = pool_->Acquire();
  op.client = client;
  op.host = host;
  op.log = log;
  op.payload = std::move(payload);
  op.opts = opts;
  if (op.opts.idem_token == 0) op.opts.idem_token = next_token_++;
  op.done = std::move(done);
  op.started_us = sim_.Now().micros();
  op.span = obs::StartSpanIf(tracer_, obs::SpanName::kCspotAppend,
                             opts.trace);
  if (op.span.valid()) {
    tracer_->Annotate(op.span, "path",
                      wan_.NodeName(client) + "->" + wan_.NodeName(host));
    tracer_->Annotate(op.span, "log", LogName(op));
  }
  StartAttempt(op.key);
}

const std::string& Runtime::LogName(const AppendOp& op) {
  return NodeAt(op.host)->LogName(op.log);
}

Runtime::AppendOp* Runtime::Current(OpKey key, uint64_t phase) {
  AppendOp& op = *pool_->ops[key.slot];
  if (op.key.gen != key.gen || op.finished) return nullptr;
  return phase == 0 || op.phase_id == phase ? &op : nullptr;
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

void Runtime::ScheduleRetry(AppendOp& op) {
  op.causes.Add(op.attempt_cause);
  op.attempt_cause = fault::RetryCause::kAckLoss;
  const resil::RetryPolicy policy(op.opts.retry);
  // Grandfathered: retry-budget arithmetic, not a stage boundary.
  const double elapsed_ms =  // xglint:allow(stage-stamp)
      static_cast<double>(sim_.Now().micros() - op.started_us) / 1e3;
  const double backoff = policy.ShouldAttempt(op.attempt + 1, elapsed_ms)
                             ? policy.BackoffMs(op.attempt + 1, rng_)
                             : 0.0;  // StartAttempt fails it now
  if (backoff <= 0.0) {
    StartAttempt(op.key);
    return;
  }
  op.backoff_ms.push_back(backoff);
  if (tracer_ != nullptr) {
    tracer_->AnnotateDouble(op.span, "backoff_ms", backoff);
  }
  sim_.Schedule(sim::SimTime::Millis(backoff),
                [this, key = op.key]() { StartAttempt(key); });
}

void Runtime::StartAttempt(OpKey key) {
  AppendOp* op = Current(key);
  if (op == nullptr) return;
  // Grandfathered: retry-budget arithmetic, not a stage boundary.
  const double elapsed_ms =  // xglint:allow(stage-stamp)
      static_cast<double>(sim_.Now().micros() - op->started_us) / 1e3;
  if (!resil::RetryPolicy(op->opts.retry)
           .ShouldAttempt(op->attempt + 1, elapsed_ms)) {
    FinishAttempt(*op,
                  Status(ErrorCode::kTimeout, "append to " +
                                                  wan_.NodeName(op->host) +
                                                  "/" + LogName(*op) +
                                                  " exhausted retries"),
                  /*exhausted=*/true);
    return;
  }
  ++op->attempt;
  ++counters_.attempts;
  ++op->phase_id;

  if (op->opts.use_size_cache) {
    auto cached = size_cache_.find({op->client, op->host, op->log.slot});
    if (cached != size_cache_.end()) {
      ++counters_.size_cache_hits;
      PhasePut(*op, cached->second);
      return;
    }
  }
  PhaseGetSize(*op);
}

void Runtime::ArmTimeout(AppendOp& op) {
  // If no response lands, retry from scratch (after the policy's backoff).
  op.timeout = sim_.Schedule(
      sim::SimTime::Millis(op.opts.retry.attempt_timeout_ms),
      [this, key = op.key, phase = op.phase_id]() {
        AppendOp* op = Current(key, phase);
        if (op == nullptr) return;
        ++counters_.timeouts;
        obs::AnnotateIf(tracer_, op->phase_span, "timeout", "true");
        obs::EndSpanIf(tracer_, op->phase_span);
        ScheduleRetry(*op);
      });
}

void Runtime::PhaseGetSize(AppendOp& op) {
  ++counters_.size_requests;
  const uint64_t phase = op.phase_id;
  op.phase_span =
      obs::StartSpanIf(tracer_, obs::SpanName::kCspotGetSize, op.span);
  ArmTimeout(op);

  // A synchronous send failure (no route, loss) is deliberately not acted
  // on here: the armed timeout drives the retry at the configured pace.
  // Failing fast would spin retries back-to-back in zero virtual time.
  // The failure kind is noted so the eventual retry is charged to its
  // cause (loss vs. partition) instead of the silent ack-loss bucket.
  const Status req = wan_.Send(
      op.client, op.host, params_.control_bytes,
      [this, claim = Claim(pool_.get(), op), phase]() {
        // Request arrives at the host.
        AppendOp& op = claim.op();
        Node* host = NodeAt(op.host);
        if (!host->up()) return;  // dropped; the timeout drives the retry
        const LogStorage* storage = host->Find(op.log);
        // 0 stands for "no such log": element sizes are positive.
        const size_t size = storage ? storage->config().element_size : 0;
        const Status reply = wan_.Send(
            op.host, op.client, params_.control_bytes,
            [this, key = op.key, phase, size]() {
              AppendOp* op = Current(key, phase);
              if (op == nullptr) return;
              sim_.Cancel(op->timeout);
              obs::EndSpanIf(tracer_, op->phase_span);
              if (size == 0) {
                FinishAttempt(*op, Status(ErrorCode::kNotFound,
                                          "no log " + LogName(*op) + " on " +
                                              wan_.NodeName(op->host)));
                return;
              }
              size_cache_.insert_or_assign(
                  {op->client, op->host, op->log.slot}, size);
              ++op->phase_id;
              PhasePut(*op, size);
            },
            op.phase_span);
        if (!reply.ok()) NoteSendFailure(op);
      },
      op.phase_span);
  if (!req.ok()) NoteSendFailure(op);
}

void Runtime::PhasePut(AppendOp& op, size_t assumed_size) {
  ++counters_.puts;
  const uint64_t phase = op.phase_id;
  if (op.payload.size() > assumed_size) {
    FinishAttempt(op, Status(ErrorCode::kInvalidArgument,
                             "payload exceeds element size"));
    return;
  }
  op.phase_span = obs::StartSpanIf(tracer_, obs::SpanName::kCspotPut, op.span);
  ArmTimeout(op);
  // As in PhaseGetSize: the timeout, not the synchronous Status, paces
  // retries of lost puts.
  const Status put = wan_.Send(
      op.client, op.host, params_.control_bytes + op.payload.size(),
      [this, claim = Claim(pool_.get(), op), phase, assumed_size]() {
        ServePut(claim.op(), phase, assumed_size);
      },
      op.phase_span);
  if (!put.ok()) NoteSendFailure(op);
}

void Runtime::ServePut(AppendOp& op, uint64_t phase, size_t assumed_size) {
  // The payload has crossed the WAN to the repository — the wan_hop SLO
  // boundary — whether or not the host can act on it.
  if (slo_ != nullptr && op.opts.trace.valid()) {
    slo_->Stamp(op.opts.trace.trace_id, obs::slo::Stage::kWanHop,
                sim_.Now().micros());
  }
  Node* host = NodeAt(op.host);
  if (!host->up()) return;
  const LogStorage* storage = host->Find(op.log);
  Verdict verdict = Verdict::kOk;
  SeqNo seq = kNoSeq;
  if (storage == nullptr) {
    verdict = Verdict::kNotFound;
  } else if (storage->config().element_size != assumed_size) {
    // The client's cached element size is stale: the log was recreated
    // with a different geometry. The append is rejected (the paper's
    // size-cache failure mode).
    verdict = Verdict::kSizeMismatch;
  } else if ((seq = host->Dedup(op.log)->Find(op.opts.idem_token)) !=
             kNoSeq) {
    verdict = Verdict::kDedup;
  }

  // The persistent append consumes storage time at the host before the
  // ack is generated (the ack carries the durable sequence number).
  const double host_ms = (verdict == Verdict::kOk) ? params_.storage_ms : 0.0;
  if (tracer_ != nullptr && op.phase_span.valid() && host_ms > 0.0) {
    const int64_t now_us = sim_.Now().micros();
    tracer_->RecordSpan(obs::SpanName::kCspotStorage, op.phase_span, now_us,
                        now_us + static_cast<int64_t>(host_ms * 1e3));
  }
  sim_.Schedule(
      sim::SimTime::Millis(host_ms),
      [this, claim = Claim(pool_.get(), op), phase, verdict, seq]() {
        AppendOp& op = claim.op();
        Node* host = NodeAt(op.host);
        if (!host->up()) return;  // power lost mid-append: no ack
        Verdict v = verdict;
        SeqNo s = seq;
        LogStorage* storage = v == Verdict::kOk ? host->Find(op.log) : nullptr;
        if (v == Verdict::kOk && storage == nullptr) v = Verdict::kNotFound;
        if (v == Verdict::kOk) {
          Result<SeqNo> r = storage->Append(op.payload);
          if (!r.ok()) {
            v = Verdict::kStorageError;
          } else {
            s = r.value();
            host->Dedup(op.log)->Record(op.opts.idem_token, s);
            FireHandlers(op.host, op.log, s, op.payload);
            // Durably appended at the host: the cspot_append boundary.
            if (slo_ != nullptr && op.opts.trace.valid()) {
              slo_->Stamp(op.opts.trace.trace_id,
                          obs::slo::Stage::kCspotAppend, sim_.Now().micros());
            }
          }
        }
        const Status ack = wan_.Send(
            op.host, op.client, params_.control_bytes,
            [this, key = op.key, phase, v, s]() { OnAck(key, phase, v, s); },
            op.phase_span);
        if (!ack.ok()) NoteSendFailure(op);
      });
}

void Runtime::OnAck(OpKey key, uint64_t phase, Verdict verdict, SeqNo seq) {
  AppendOp* op = Current(key, phase);
  if (op == nullptr) return;
  sim_.Cancel(op->timeout);
  obs::EndSpanIf(tracer_, op->phase_span);
  switch (verdict) {
    case Verdict::kOk:
      FinishAttempt(*op, seq);
      return;
    case Verdict::kDedup:
      ++counters_.dedup_hits;
      op->deduped = true;
      FinishAttempt(*op, seq);
      return;
    case Verdict::kNotFound:
      FinishAttempt(*op, Status(ErrorCode::kNotFound, "no log " + LogName(*op)));
      return;
    case Verdict::kSizeMismatch:
      ++counters_.size_cache_invalidations;
      size_cache_.erase({op->client, op->host, op->log.slot});
      ++op->phase_id;
      StartAttempt(key);  // refreshes the size next attempt
      return;
    case Verdict::kStorageError:
      FinishAttempt(*op, Status(ErrorCode::kInternal, "storage append failed"));
      return;
  }
}

void Runtime::FinishAttempt(AppendOp& op, Result<SeqNo> result,
                            bool exhausted) {
  sim_.Cancel(op.timeout);
  // Ack received back at the sensor edge: the replication_ack boundary
  // (dedup-absorbed retries count — the data was durable all along).
  if (result.ok() && slo_ != nullptr && op.opts.trace.valid()) {
    slo_->Stamp(op.opts.trace.trace_id, obs::slo::Stage::kReplicationAck,
                sim_.Now().micros());
  }
  if (exhausted) {
    obs::AnnotateIf(tracer_, op.span, "error", "exhausted retries");
    obs::EndSpanIf(tracer_, op.span);
  } else if (tracer_ != nullptr && op.span.valid()) {
    tracer_->AnnotateInt(op.span, "attempts", op.attempt);
    if (op.deduped) tracer_->Annotate(op.span, "deduped", "true");
    if (!result.ok()) {
      tracer_->Annotate(op.span, "error", result.status().ToString());
    }
    tracer_->EndSpan(op.phase_span);
    tracer_->EndSpan(op.span);
  }
  op.finished = true;
  fault::FaultOutcome outcome;
  outcome.status = result.ok() ? Status::Ok() : result.status();
  outcome.attempts = op.attempt;
  outcome.deduped = op.deduped;
  outcome.causes = op.causes;
  outcome.backoff_ms = std::move(op.backoff_ms);
  AppendCallback done = std::move(op.done);
  if (op.claims == 0) pool_->Recycle(op);
  done(std::move(result), outcome);
}

// ---------------------------------------------------------------------------
// Remote reads (single round trip each)
// ---------------------------------------------------------------------------

template <typename T, typename Read>
void Runtime::RemoteRead(NodeId c, NodeId h, LogId log,
                         sim::InlineFunction<void(Result<T>)> done,
                         Read read) {
  // Shared: a duplicated delivery runs the completion twice.
  auto cb =
      std::make_shared<sim::InlineFunction<void(Result<T>)>>(std::move(done));
  // Server-side reply sends are (void): a lost reply simply leaves the
  // caller without a callback, exactly as a lost datagram would.
  const Status sent =
      wan_.Send(c, h, params_.control_bytes, [this, c, h, log, cb, read]() {
        Node* node = NodeAt(h);
        if (!node->up()) return;
        const LogStorage* storage = node->Find(log);
        Result<T> r = storage != nullptr
                          ? read(*storage)
                          : Status(ErrorCode::kNotFound,
                                   "no log " + node->LogName(log));
        size_t bytes = params_.control_bytes;
        if (!r.ok()) {
          (void)wan_.Send(h, c, bytes, [cb, s = r.status()]() { (*cb)(s); });
          return;
        }
        if constexpr (!std::is_same_v<T, SeqNo>) bytes += r.value().size();
        auto reply = [cb, v = r.take()]() {
          Result<T> result(v);  // gcc 12 + ASan warn on a temporary here
          (*cb)(std::move(result));
        };
        static_assert(sizeof(reply) <= sim::Callback::kInlineBytes,
                      "a read reply fits the event's inline buffer");
        (void)wan_.Send(h, c, bytes, std::move(reply));
      });
  if (!sent.ok()) {
    sim_.Schedule(sim::SimTime::Millis(0.0), [cb, sent]() { (*cb)(sent); });
  }
}

void Runtime::RemoteLatestSeq(NodeId c, NodeId h, LogId log,
                              SeqCallback done) {
  RemoteRead<SeqNo>(c, h, log, std::move(done), [](const LogStorage& s) {
    return Result<SeqNo>(s.Latest());
  });
}

void Runtime::RemoteGet(NodeId c, NodeId h, LogId log, SeqNo seq,
                        ReadCallback done) {
  RemoteRead<std::vector<uint8_t>>(
      c, h, log, std::move(done),
      [seq](const LogStorage& s) { return s.Get(seq); });
}

}  // namespace xg::cspot
