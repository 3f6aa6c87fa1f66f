// Laminar dataflow programs over the CSPOT runtime.
//
// A program is a DAG of typed operands. Every operand lives on a CSPOT
// node and owns an output log there; each edge materializes as an input
// log on the consumer's host, fed by (remote) appends of serialized
// tokens. Firing follows strict applicative semantics: an operand fires
// for iteration k exactly once, when *all* of its inputs hold a token for
// iteration k. Because CSPOT handlers can only trigger on single appends,
// multi-input synchronization is implemented the CSPOT way — the handler
// scans the input logs (LogStorage::Tail) and checks the output log to
// make the firing idempotent.
//
// This inherits CSPOT's failure model wholesale: if a host crashes after
// an input token is appended but before the operand fires, re-delivering
// any input token (or a recovery rescan) re-evaluates the firing rule and
// the output log's single-assignment property keeps the result exactly
// once.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "cspot/runtime.hpp"
#include "laminar/value.hpp"

namespace xg::laminar {

enum class OpKind {
  kSource,
  kConst,
  kMap,
  kZip,
  kWindow,
  kFilter,
  kSink,
  kReduce,
};

const char* OpKindName(OpKind k);

using MapFn = std::function<Value(const Value&)>;
using ZipFn = std::function<Value(const std::vector<Value>&)>;
using PredicateFn = std::function<bool(const Value&)>;
using SinkFn = std::function<void(int64_t iteration, const Value&)>;
using ReduceFn = std::function<Value(const Value& acc, const Value& x)>;

class Program {
 public:
  /// `name` scopes the CSPOT log names so multiple programs can share
  /// nodes.
  Program(cspot::Runtime& rt, std::string name);

  // -- graph construction (before Deploy) --------------------------------

  /// External input; tokens enter via Inject().
  int AddSource(const std::string& op, const std::string& host,
                ValueType type);

  /// Emits the same constant for every iteration any consumer needs; in
  /// this implementation consts are folded into firing (no log traffic).
  int AddConst(const std::string& op, const std::string& host, Value v);

  int AddMap(const std::string& op, const std::string& host, int input,
             ValueType output_type, MapFn fn);

  int AddZip(const std::string& op, const std::string& host,
             const std::vector<int>& inputs, ValueType output_type, ZipFn fn);

  /// Sliding window over a numeric input: fires at iteration k >= n-1 with
  /// the vector of input values for iterations [k-n+1, k].
  int AddWindow(const std::string& op, const std::string& host, int input,
                size_t n);

  /// Passes the token through when the predicate holds; otherwise the
  /// iteration is absent downstream (strict semantics: consumers simply
  /// never fire for it).
  int AddFilter(const std::string& op, const std::string& host, int input,
                PredicateFn fn);

  /// Stateful fold: out(0) = f(init, in(0)), out(k) = f(out(k-1), in(k)).
  /// Fires strictly in iteration order; the accumulator is recovered from
  /// the output log itself (no hidden state — crash-consistent like
  /// everything else built on CSPOT logs).
  int AddReduce(const std::string& op, const std::string& host, int input,
                Value init, ReduceFn fn);

  int AddSink(const std::string& op, const std::string& host, int input,
              SinkFn fn);

  // -- deployment and execution ------------------------------------------

  /// Type-check the graph, create all logs, register all handlers.
  Status Deploy();

  /// Append a token into a source operand (runs through CSPOT, so the
  /// injection is durable and triggers downstream firing in virtual time).
  Status Inject(int source, int64_t iteration, const Value& v);

  // -- introspection -------------------------------------------------------

  /// Value an operand produced for an iteration, if it fired.
  Result<Value> OutputAt(int op, int64_t iteration) const;

  /// Number of firings recorded in an operand's output log.
  int64_t FiringCount(int op) const;

  const std::string& name() const { return name_; }
  size_t operand_count() const { return ops_.size(); }

 private:
  struct Operand {
    std::string name;
    std::string host;
    OpKind kind = OpKind::kSource;
    ValueType output_type = ValueType::kNone;
    std::vector<int> inputs;
    MapFn map;
    ZipFn zip;
    PredicateFn predicate;
    SinkFn sink;
    ReduceFn reduce;
    Value constant;  ///< const value, or reduce initializer
    size_t window = 0;
    std::vector<int> consumers;
    // Resolved by Deploy: the host and the operand's logs on it.
    cspot::NodeId host_id = cspot::kNoNode;
    cspot::LogId out_log;
    std::vector<cspot::LogId> in_logs;  ///< per input slot
  };

  int AddOperand(Operand op);
  std::string OutLog(int op) const;
  std::string InLog(int op, size_t slot) const;
  ValueType InputType(const Operand& op, size_t slot) const;
  /// The log `log` on `o`'s host; nullptr when missing.
  cspot::LogStorage* Storage(const Operand& o, cspot::LogId log) const;

  /// Try to fire `op` for `iteration`; no-op unless all inputs present and
  /// the output log lacks the iteration.
  void TryFire(int op, int64_t iteration);

  /// Look up the token an input slot holds for an iteration.
  Result<Value> InputAt(int op, size_t slot, int64_t iteration) const;

  /// Emit a token from `op`: append to the output log and forward to
  /// every consumer's input log.
  /// Enforces the single-assignment contract: emitting a second, different
  /// token for an (operand, iteration) pair is rejected with kAlreadyExists.
  Status Emit(int op, int64_t iteration, const Value& v);

  cspot::Runtime& rt_;
  std::string name_;
  std::vector<Operand> ops_;
  bool deployed_ = false;
};

}  // namespace xg::laminar
