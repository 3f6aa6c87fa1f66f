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

  /// Create a node (also registered with the WAN). The calls below take
  /// node names and resolve each to its WAN NodeId once, on entry.
  Node& AddNode(const std::string& name);
  Node* GetNode(const std::string& name) { return NodeAt(wan_.Find(name)); }

  /// Create a memory-backed log on a node.
  Result<LogStorage*> CreateLog(const std::string& node, const LogConfig& cfg);

  /// Local append: assigns a sequence number and fires handlers after the
  /// dispatch delay. Fails when the node is powered down.
  Result<SeqNo> LocalAppend(const std::string& node, const std::string& log,
                            const std::vector<uint8_t>& payload);

  /// Bind a handler on a node's log.
  Status RegisterHandler(const std::string& node, const std::string& log,
                         Node::Handler handler);

  /// Append completion: the assigned seq (or error) plus the unified
  /// failure-surface outcome (attempt count, dedup absorption).
  using AppendCallback =
      std::function<void(Result<SeqNo>, const fault::FaultOutcome&)>;
  using ReadCallback = std::function<void(Result<std::vector<uint8_t>>)>;
  using SeqCallback = std::function<void(Result<SeqNo>)>;

  /// Asynchronous remote append (two-phase protocol, retry + dedup).
  /// `done` fires exactly once, in virtual time.
  void RemoteAppend(const std::string& client, const std::string& host,
                    const std::string& log, std::vector<uint8_t> payload,
                    const AppendOptions& opts, AppendCallback done);

  /// One-round-trip remote reads.
  void RemoteLatestSeq(const std::string& client, const std::string& host,
                       const std::string& log, SeqCallback done);
  void RemoteGet(const std::string& client, const std::string& host,
                 const std::string& log, SeqNo seq, ReadCallback done);

  /// Drop a client's cached element size (test hook).
  void InvalidateSizeCache(const std::string& client, const std::string& host,
                           const std::string& log);

 private:
  struct AppendOp;

  void StartAttempt(std::shared_ptr<AppendOp> op);
  /// Charge the attempt's observed retry cause, then re-enter StartAttempt
  /// after the policy's backoff (immediately when backoff is disabled).
  void ScheduleRetry(std::shared_ptr<AppendOp> op);
  /// Classify the WAN's most recent send failure into the op's cause slot.
  void NoteSendFailure(AppendOp& op);
  void PhaseGetSize(std::shared_ptr<AppendOp> op);
  void PhasePut(std::shared_ptr<AppendOp> op, size_t assumed_size);
  void FinishAttempt(std::shared_ptr<AppendOp> op, Result<SeqNo> result);
  void FireHandlers(Node& host, const std::string& log, SeqNo seq,
                    const std::vector<uint8_t>& payload);
  Node* NodeAt(NodeId id) {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }

  sim::Simulation& sim_;
  Wan wan_;
  Rng rng_;
  RuntimeParams params_;
  std::vector<std::unique_ptr<Node>> nodes_;  ///< indexed by NodeId
  /// Element size by (client, host, log).
  std::map<std::tuple<NodeId, NodeId, std::string>, size_t, std::less<>>
      size_cache_;
  RuntimeCounters counters_;
  obs::Tracer* tracer_ = nullptr;
  obs::slo::LatencyLedger* slo_ = nullptr;
  uint64_t next_token_ = 1;
};

}  // namespace xg::cspot
