// The CSPOT distributed runtime: nodes + WAN + the append protocol.
//
// The wire protocol mirrors the published implementation's behaviour
// (Section 4.2 of the paper): appending to a remote log takes TWO round
// trips — the client first requests the log's element size from the hosting
// site, then ships the element. The element-size cache optimization
// (`use_size_cache`) skips the first round trip and halves the latency, at
// the cost of a failure when the server-side log was recreated with a
// different element size (`kFailedPrecondition`, after which the cache entry
// is invalidated and the next attempt refreshes it).
//
// Reliability semantics are CSPOT's: an append either returns an error or
// returns the assigned sequence number; if the ack is lost the operation is
// retried with the same idempotence token and the host's dedup table makes
// the retry return the original sequence number — exactly-once delivery.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/sim.hpp"
#include "common/thread_annotations.hpp"
#include "cspot/node.hpp"
#include "cspot/wan.hpp"
#include "fault/injector.hpp"
#include "fault/outcome.hpp"
#include "obs/metrics.hpp"
#include "obs/slo/ledger.hpp"
#include "obs/trace.hpp"
#include "resil/policy.hpp"

namespace xg::cspot {

struct AppendOptions {
  bool use_size_cache = false;  ///< client-side element-size caching
  /// Retry policy: the attempt cap, the per-attempt (per-phase) response
  /// deadline, and the backoff spacing between attempts. The default is
  /// the seed behaviour — 8 attempts, 400 ms phase timeout, no backoff —
  /// so retries fire one phase-timeout apart unless a caller opts into
  /// exponential spacing via `retry.initial_backoff_ms`.
  resil::RetryPolicyConfig retry;
  /// When valid (and a tracer is attached), the append is traced as a
  /// `cspot.append` span under this parent, with per-phase and per-WAN-hop
  /// child spans.
  obs::TraceContext trace;
  /// Idempotence token for the host's dedup table. 0 (the default) lets
  /// the runtime mint a fresh token; a caller that may re-issue the same
  /// logical append across its own crashes (the replicator) supplies a
  /// stable nonzero token so the re-issue dedups instead of double-writing.
  uint64_t idem_token = 0;
};

/// A stable, nonzero idempotence token for bytes a caller may re-ship:
/// FNV-1a over 8-byte words, then the tail, continued from `h`.
uint64_t StableToken(const void* data, size_t size,
                     uint64_t h = 0xcbf29ce484222325ull);

struct RuntimeParams {
  double storage_ms = 0.2;       ///< persistent append time at the host
  double handler_delay_ms = 0.5; ///< dispatch delay before a handler runs
  size_t control_bytes = 64;     ///< wire size of protocol control messages
};

/// Protocol / reliability counters, inspectable by tests and benches.
struct RuntimeCounters {
  uint64_t remote_appends = 0;
  uint64_t attempts = 0;
  uint64_t size_requests = 0;
  uint64_t size_cache_hits = 0;
  uint64_t size_cache_invalidations = 0;
  uint64_t puts = 0;
  uint64_t dedup_hits = 0;
  uint64_t timeouts = 0;
  uint64_t handler_fires = 0;
};

class XG_SIM_THREAD_CONFINED Runtime {
 public:
  Runtime(sim::Simulation& sim, uint64_t seed,
          RuntimeParams params = RuntimeParams{});
  ~Runtime();

  sim::Simulation& simulation() { return sim_; }
  Wan& wan() { return wan_; }
  const RuntimeCounters& counters() const { return counters_; }

  /// Mirror the runtime counters into `registry` (read at snapshot time —
  /// the counter struct stays the single source of truth) and trace
  /// appends against `tracer`. Either may be nullptr; both must outlive
  /// this runtime.
  void AttachObservability(obs::MetricsRegistry* registry,
                           obs::Tracer* tracer);
  obs::Tracer* tracer() const { return tracer_; }

  /// SLO deadline accounting: traced appends stamp their budget's
  /// wan_hop (put arrival at the host), cspot_append (durable append
  /// complete) and replication_ack (ack back at the client) boundaries;
  /// the WAN stamps the air-segment boundaries. The ledger must outlive
  /// this runtime. nullptr detaches.
  void AttachSlo(obs::slo::LatencyLedger* ledger);

  /// Couple a fault injector to the transport: WAN message faults (loss,
  /// duplication, reordering) apply per Send, and window actuators are
  /// registered for kPartition / kNodeUnreachable (link state) and
  /// kPowerLoss (node down + tail truncation, back up at window end).
  /// The injector must outlive this runtime; call before Arm().
  void AttachFaultInjector(fault::FaultInjector& injector);

  /// Create a node (also registered with the WAN). The data-path calls
  /// below take NodeIds (`wan().Find`) and LogIds (`ResolveLog`) resolved
  /// once by the caller; their name-taking edges resolve on each call.
  Node& AddNode(const std::string& name);
  Node* GetNode(const std::string& name) { return NodeAt(wan_.Find(name)); }
  Node* NodeAt(NodeId id) {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }
  /// `log`'s handle on `host` (Node::Resolve); no log if `host` is unknown.
  LogId ResolveLog(NodeId host, const std::string& log);

  /// Create a memory-backed log on a node.
  Result<LogStorage*> CreateLog(const std::string& node, const LogConfig& cfg);

  /// Local append: assigns a sequence number and fires handlers after the
  /// dispatch delay. Fails when the node is powered down. The id form
  /// takes an existing node.
  Result<SeqNo> LocalAppend(NodeId node, LogId log,
                            const std::vector<uint8_t>& payload);
  Result<SeqNo> LocalAppend(const std::string& node, const std::string& log,
                            const std::vector<uint8_t>& payload);

  /// Bind a handler on a node's log.
  Status RegisterHandler(const std::string& node, const std::string& log,
                         Node::Handler handler);

  /// Append completion: the assigned seq (or error) plus the unified
  /// failure-surface outcome (attempt count, dedup absorption).
  using AppendCallback =
      sim::InlineFunction<void(Result<SeqNo>, const fault::FaultOutcome&)>;
  using ReadCallback =
      sim::InlineFunction<void(Result<std::vector<uint8_t>>)>;
  using SeqCallback = sim::InlineFunction<void(Result<SeqNo>)>;

  /// Asynchronous remote append (two-phase protocol, retry + dedup).
  /// `done` fires exactly once, in virtual time. Both nodes must exist.
  void RemoteAppend(NodeId client, NodeId host, LogId log,
                    std::vector<uint8_t> payload, const AppendOptions& opts,
                    AppendCallback done);
  void RemoteAppend(const std::string& client, const std::string& host,
                    const std::string& log, std::vector<uint8_t> payload,
                    const AppendOptions& opts, AppendCallback done);

  /// One-round-trip remote reads.
  void RemoteLatestSeq(NodeId client, NodeId host, LogId log,
                       SeqCallback done);
  void RemoteGet(NodeId client, NodeId host, LogId log, SeqNo seq,
                 ReadCallback done);

 private:
  struct AppendOp;
  struct OpPool;
  class Claim;
  /// A client-side callback's address of its op. The generation moves on
  /// when the slot is recycled, so a late reply, timeout or backoff finds
  /// no op instead of the slot's next one.
  struct OpKey {
    uint32_t slot = 0, gen = 0;
  };
  enum class Verdict : uint8_t {
    kOk, kNotFound, kSizeMismatch, kDedup, kStorageError
  };

  /// The op at `key` if unfinished and in `phase` (0: any), else nullptr.
  AppendOp* Current(OpKey key, uint64_t phase = 0);
  const std::string& LogName(const AppendOp& op);
  void StartAttempt(OpKey key);
  /// Charge the attempt's observed retry cause, then re-enter StartAttempt
  /// after the policy's backoff (immediately when backoff is disabled).
  void ScheduleRetry(AppendOp& op);
  /// Classify the WAN's most recent send failure into the op's cause slot.
  void NoteSendFailure(AppendOp& op);
  void ArmTimeout(AppendOp& op);
  void PhaseGetSize(AppendOp& op);
  void PhasePut(AppendOp& op, size_t assumed_size);
  /// The put at the host, whose caller holds a Claim on `op`.
  void ServePut(AppendOp& op, uint64_t phase, size_t assumed_size);
  void OnAck(OpKey key, uint64_t phase, Verdict verdict, SeqNo seq);
  /// Hand the outcome to the completion; recycle the slot unless claimed.
  void FinishAttempt(AppendOp& op, Result<SeqNo> result,
                     bool exhausted = false);
  void FireHandlers(NodeId host, LogId log, SeqNo seq,
                    const std::vector<uint8_t>& payload);
  template <typename T, typename Read>
  void RemoteRead(NodeId client, NodeId host, LogId log,
                  sim::InlineFunction<void(Result<T>)> done, Read read);

  sim::Simulation& sim_;
  Wan wan_;
  Rng rng_;
  RuntimeParams params_;
  std::vector<std::unique_ptr<Node>> nodes_;  ///< indexed by NodeId
  /// Element size by (client, host, log slot). A log name keeps its slot
  /// across DeleteLog, so a recreated log hits its stale entry.
  std::map<std::tuple<NodeId, NodeId, uint32_t>, size_t> size_cache_;
  std::unique_ptr<OpPool> pool_;  ///< left to its last Claim if we die first
  RuntimeCounters counters_;
  obs::Tracer* tracer_ = nullptr;
  obs::slo::LatencyLedger* slo_ = nullptr;
  uint64_t next_token_ = 1;
};

}  // namespace xg::cspot
