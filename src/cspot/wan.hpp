// Simulated wide-area network connecting CSPOT nodes.
//
// Replaces the testbed's physical paths (private 5G air interface at UNL,
// commodity Internet between UNL, UCSB and ND). Links carry per-message
// latency = base one-way + Gaussian jitter + serialization time, may drop
// messages (loss), and can be taken down to model partitions. Routing is
// shortest-hop over the link graph. Send takes dense NodeIds and reads a
// cached route table and per-pair state; names are for wiring, fault plans,
// status messages and observability labels.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/sim.hpp"
#include "common/thread_annotations.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/slo/ledger.hpp"
#include "obs/trace.hpp"
#include "resil/breaker.hpp"

namespace xg::cspot {

struct LinkParams {
  double one_way_ms = 5.0;       ///< mean propagation + processing latency
  double jitter_ms = 0.3;        ///< per-message latency stddev
  double min_ms = 0.05;          ///< latency floor
  double loss_prob = 0.0;        ///< independent per-message loss
  double bandwidth_mbps = 100.0; ///< serialization rate
  /// Physical-path segment kind, used to attribute traced hops to a
  /// component ("5g-air" spans are charged to net5g, the rest to wan).
  std::string kind = "internet";
  /// For "5g-air" links: fraction of the crossing spent in the uplink
  /// scheduling-request/grant cycle before the frame occupies PRBs (the
  /// paper attributes most of the air RTT to SR+grant). Splits the SLO
  /// rrc_grant / cell_egress stage boundary; ignored on wired links.
  double grant_fraction = 0.6;
};

/// Why the most recent Send failed (kNone after a success). A Status alone
/// cannot carry this — every transport failure is kUnavailable — and the
/// retry-cause accounting in `fault::FaultOutcome` needs the distinction.
enum class SendFailure { kNone, kNoRoute, kLoss, kCircuitOpen };

/// Dense endpoint index, assigned by Wan::AddNode in insertion order.
using NodeId = uint32_t;
inline constexpr NodeId kNoNode = UINT32_MAX;

class XG_SIM_THREAD_CONFINED Wan {
 public:
  Wan(sim::Simulation& sim, uint64_t seed);

  /// Register an endpoint (idempotent) and return its id.
  NodeId AddNode(const std::string& name);
  /// The id of `name`, kNoNode when it was never added.
  NodeId Find(const std::string& name) const;
  bool HasNode(const std::string& name) const { return Find(name) != kNoNode; }
  const std::string& NodeName(NodeId id) const { return nodes_[id]; }

  /// Add a bidirectional link between existing nodes.
  Status AddLink(const std::string& a, const std::string& b, LinkParams p);

  /// Take a link down / bring it up (network partition injection).
  Status SetLinkUp(const std::string& a, const std::string& b, bool up);

  /// Take every link of a node down (site-level partition). kNotFound when
  /// `name` is not a node.
  Status SetNodeReachable(const std::string& name, bool reachable);
  bool NodeReachable(const std::string& name) const;

  /// Observability: when a tracer is attached and `trace` is valid, each
  /// link crossing of a Send is recorded as a child hop span with the
  /// exact sampled per-link latency (the per-hop decomposition of §4.4).
  /// Node names are interned in the tracer's label table here and in
  /// AddNode, so a hop span carries two label ids and builds no strings.
  void set_tracer(obs::Tracer* tracer);

  /// SLO deadline accounting: when a ledger is attached, every surviving
  /// "5g-air" crossing of a traced Send stamps the rrc_grant / cell_egress
  /// stage boundaries on the message's budget (first stamp wins, so
  /// protocol retries and acks cannot move the boundary). Must outlive
  /// this Wan.
  void set_slo_ledger(obs::slo::LatencyLedger* ledger) { slo_ = ledger; }

  /// Chaos hook: when set, each Send consults the injector's message-kind
  /// events (loss / duplicate / reorder, keyed by the endpoints' canonical
  /// FaultPlan::LinkTarget) before scheduling the delivery. Must outlive
  /// this Wan.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Send `bytes` from `from` to `to`; `deliver` runs at the destination
  /// after the sampled path latency. Fails with kUnavailable when no
  /// route exists or the message is lost on a link — natural loss and
  /// injected loss alike (`deliver` never runs in that case). An injected
  /// duplicate delivers twice; the runtime's dedup tokens make that safe.
  /// An endpoint of kNoNode has no route.
  [[nodiscard]] Status Send(
      NodeId from, NodeId to, size_t bytes, sim::Callback deliver,
      const obs::TraceContext& trace = obs::TraceContext{});

  /// Mean end-to-end one-way latency (no jitter/loss), for diagnostics.
  Result<double> MeanPathLatencyMs(const std::string& from,
                                   const std::string& to,
                                   size_t bytes = 0) const;

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_lost() const { return messages_lost_; }
  uint64_t messages_fast_failed() const { return messages_fast_failed_; }

  /// Failure kind of the most recent Send on this Wan (single-threaded
  /// simulation: read it immediately after a failed Send returns).
  SendFailure last_send_failure() const { return last_send_failure_; }

  /// Opt-in: give every endpoint pair a circuit breaker. While a pair's
  /// breaker is open, Send fails fast with kUnavailable ("circuit open")
  /// instead of sampling the path; after the cooldown the next Send is
  /// admitted as a half-open probe. Off for a bare Wan; core::Fabric
  /// always enables it.
  void EnableCircuitBreakers(resil::BreakerConfig cfg);

  /// The breaker guarding the (a, b) endpoint pair, nullptr when breakers
  /// are disabled or no traffic has crossed the pair yet.
  resil::CircuitBreaker* breaker(const std::string& a, const std::string& b);

  /// Export `xg_resil_breaker_*` series for every breaker (created lazily,
  /// so registration happens as pairs first see traffic). Must outlive
  /// this Wan.
  void set_metrics_registry(obs::MetricsRegistry* registry) {
    registry_ = registry;
  }

 private:
  struct Link {
    NodeId a, b;
    LinkParams params;
    bool up = true;
    bool air = false;  ///< params.kind == "5g-air"
  };

  /// State shared by both directions of an unordered endpoint pair.
  struct Pair {
    std::string target;  ///< FaultPlan::LinkTarget, built on first use
    /// Created on first traffic; boxed because metric callbacks hold it.
    std::unique_ptr<resil::CircuitBreaker> breaker;
  };

  /// Indexes into links_ along the shortest-hop route, empty if none.
  /// Rebuilds the route table first after a topology change.
  const std::vector<uint32_t>& Route(NodeId from, NodeId to) const;

  /// The pair's state, its fault target filled in.
  Pair& PairFor(NodeId a, NodeId b);

  /// Lazily create (and instrument) the breaker for an endpoint pair.
  resil::CircuitBreaker& BreakerFor(Pair& pair);

  sim::Simulation& sim_;
  Rng rng_;
  obs::Tracer* tracer_ = nullptr;
  obs::slo::LatencyLedger* slo_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  obs::MetricsRegistry* registry_ = nullptr;
  std::vector<std::string> nodes_;  ///< names, indexed by NodeId
  std::unordered_map<std::string, NodeId> ids_;
  std::vector<bool> reachable_;     ///< indexed by NodeId
  /// Tracer label of each node name, indexed by NodeId; empty untraced.
  std::vector<obs::LabelId> node_labels_;
  std::vector<Link> links_;
  /// routes_[from * N + to]. Any change to nodes, links or their state
  /// clears routes_valid_. The rebuild's breadth-first search scans links_
  /// in index order, which fixes the tie-break between equal-hop routes.
  mutable std::vector<std::vector<uint32_t>> routes_;
  mutable bool routes_valid_ = false;
  /// Unordered pairs {lo <= hi}, at hi * (hi + 1) / 2 + lo; growing the
  /// node count never moves an existing pair.
  std::vector<Pair> pairs_;
  uint64_t messages_sent_ = 0;
  uint64_t messages_lost_ = 0;
  uint64_t messages_fast_failed_ = 0;
  SendFailure last_send_failure_ = SendFailure::kNone;
  bool breakers_enabled_ = false;
  resil::BreakerConfig breaker_cfg_;
  obs::TraceContext resil_root_;  ///< parent of resil.breaker_open spans
};

}  // namespace xg::cspot
