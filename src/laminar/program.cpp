#include "laminar/program.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "common/logging.hpp"

namespace xg::laminar {

namespace {
constexpr size_t kTokenLogElement = 4096;
constexpr size_t kTokenLogHistory = 4096;
}  // namespace

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kSource: return "source";
    case OpKind::kConst: return "const";
    case OpKind::kMap: return "map";
    case OpKind::kZip: return "zip";
    case OpKind::kWindow: return "window";
    case OpKind::kFilter: return "filter";
    case OpKind::kSink: return "sink";
    case OpKind::kReduce: return "reduce";
  }
  return "?";
}

Program::Program(cspot::Runtime& rt, std::string name)
    : rt_(rt), name_(std::move(name)) {}

int Program::AddOperand(Operand op) {
  ops_.push_back(std::move(op));
  const int id = static_cast<int>(ops_.size()) - 1;
  for (int in : ops_[static_cast<size_t>(id)].inputs) {
    if (in >= 0 && in < id) {
      ops_[static_cast<size_t>(in)].consumers.push_back(id);
    }
  }
  return id;
}

int Program::AddSource(const std::string& op, const std::string& host,
                       ValueType type) {
  Operand o;
  o.name = op;
  o.host = host;
  o.kind = OpKind::kSource;
  o.output_type = type;
  return AddOperand(std::move(o));
}

int Program::AddConst(const std::string& op, const std::string& host, Value v) {
  Operand o;
  o.name = op;
  o.host = host;
  o.kind = OpKind::kConst;
  o.output_type = v.type();
  o.constant = std::move(v);
  return AddOperand(std::move(o));
}

int Program::AddMap(const std::string& op, const std::string& host, int input,
                    ValueType output_type, MapFn fn) {
  Operand o;
  o.name = op;
  o.host = host;
  o.kind = OpKind::kMap;
  o.output_type = output_type;
  o.inputs = {input};
  o.map = std::move(fn);
  return AddOperand(std::move(o));
}

int Program::AddZip(const std::string& op, const std::string& host,
                    const std::vector<int>& inputs, ValueType output_type,
                    ZipFn fn) {
  Operand o;
  o.name = op;
  o.host = host;
  o.kind = OpKind::kZip;
  o.output_type = output_type;
  o.inputs = inputs;
  o.zip = std::move(fn);
  return AddOperand(std::move(o));
}

int Program::AddWindow(const std::string& op, const std::string& host,
                       int input, size_t n) {
  Operand o;
  o.name = op;
  o.host = host;
  o.kind = OpKind::kWindow;
  o.output_type = ValueType::kDoubleVector;
  o.inputs = {input};
  o.window = n;
  return AddOperand(std::move(o));
}

int Program::AddFilter(const std::string& op, const std::string& host,
                       int input, PredicateFn fn) {
  Operand o;
  o.name = op;
  o.host = host;
  o.kind = OpKind::kFilter;
  o.inputs = {input};
  o.predicate = std::move(fn);
  return AddOperand(std::move(o));
}

int Program::AddReduce(const std::string& op, const std::string& host,
                       int input, Value init, ReduceFn fn) {
  Operand o;
  o.name = op;
  o.host = host;
  o.kind = OpKind::kReduce;
  o.output_type = init.type();
  o.inputs = {input};
  o.constant = std::move(init);
  o.reduce = std::move(fn);
  return AddOperand(std::move(o));
}

int Program::AddSink(const std::string& op, const std::string& host, int input,
                     SinkFn fn) {
  Operand o;
  o.name = op;
  o.host = host;
  o.kind = OpKind::kSink;
  o.inputs = {input};
  o.sink = std::move(fn);
  return AddOperand(std::move(o));
}

std::string Program::OutLog(int op) const {
  return "lam." + name_ + "." + ops_[static_cast<size_t>(op)].name + ".out";
}

std::string Program::InLog(int op, size_t slot) const {
  return "lam." + name_ + "." + ops_[static_cast<size_t>(op)].name + ".in" +
         std::to_string(slot);
}

ValueType Program::InputType(const Operand& op, size_t slot) const {
  const int producer = op.inputs[slot];
  return ops_[static_cast<size_t>(producer)].output_type;
}

Status Program::Deploy() {
  if (deployed_) {
    return Status(ErrorCode::kFailedPrecondition, "already deployed");
  }

  // Type-check: window/filter constrain their input; sinks accept any.
  for (const Operand& op : ops_) {
    for (size_t s = 0; s < op.inputs.size(); ++s) {
      const int in = op.inputs[s];
      if (in < 0 || in >= static_cast<int>(ops_.size())) {
        return Status(ErrorCode::kInvalidArgument,
                      "operand " + op.name + " has dangling input");
      }
      const ValueType t = InputType(op, s);
      if (op.kind == OpKind::kWindow && t != ValueType::kDouble &&
          t != ValueType::kInt) {
        return Status(ErrorCode::kInvalidArgument,
                      "window input must be numeric: " + op.name);
      }
    }
    if (op.kind == OpKind::kFilter) {
      // A filter is type-transparent.
      const_cast<Operand&>(op).output_type = InputType(op, 0);
    }
  }

  // Create logs and handlers.
  const cspot::LogConfig base{"", kTokenLogElement, kTokenLogHistory};
  for (size_t i = 0; i < ops_.size(); ++i) {
    Operand& op = ops_[i];
    if (rt_.GetNode(op.host) == nullptr) {
      return Status(ErrorCode::kNotFound, "no CSPOT node " + op.host);
    }
    op.host_id = rt_.wan().Find(op.host);
    if (op.kind != OpKind::kSink && op.kind != OpKind::kConst) {
      cspot::LogConfig out = base;
      out.name = OutLog(static_cast<int>(i));
      auto r = rt_.CreateLog(op.host, out);
      if (!r.ok()) return r.status();
      op.out_log = rt_.ResolveLog(op.host_id, out.name);
    }
    op.in_logs.resize(op.inputs.size());
    for (size_t s = 0; s < op.inputs.size(); ++s) {
      if (ops_[static_cast<size_t>(op.inputs[s])].kind == OpKind::kConst) {
        continue;  // consts are folded, no log
      }
      cspot::LogConfig in = base;
      in.name = InLog(static_cast<int>(i), s);
      auto r = rt_.CreateLog(op.host, in);
      if (!r.ok()) return r.status();
      op.in_logs[s] = rt_.ResolveLog(op.host_id, in.name);
      const int op_id = static_cast<int>(i);
      Status hs = rt_.RegisterHandler(
          op.host, in.name,
          [this, op_id](const std::string&, cspot::SeqNo,
                        const std::vector<uint8_t>& payload) {
            auto token = DeserializeToken(payload);
            if (!token.ok()) return;
            TryFire(op_id, token.value().iteration);
          });
      if (!hs.ok()) return hs;
    }
  }
  deployed_ = true;
  return Status::Ok();
}

Status Program::Inject(int source, int64_t iteration, const Value& v) {
  if (!deployed_) return Status(ErrorCode::kFailedPrecondition, "not deployed");
  if (source < 0 || source >= static_cast<int>(ops_.size()) ||
      ops_[static_cast<size_t>(source)].kind != OpKind::kSource) {
    return Status(ErrorCode::kInvalidArgument, "not a source operand");
  }
  if (v.type() != ops_[static_cast<size_t>(source)].output_type) {
    return Status(ErrorCode::kInvalidArgument,
                  std::string("type mismatch injecting ") +
                      ValueTypeName(v.type()));
  }
  return Emit(source, iteration, v);
}

Result<Value> Program::InputAt(int op, size_t slot, int64_t iteration) const {
  const Operand& o = ops_[static_cast<size_t>(op)];
  const Operand& producer = ops_[static_cast<size_t>(o.inputs[slot])];
  if (producer.kind == OpKind::kConst) return producer.constant;
  const cspot::LogStorage* log =
      slot < o.in_logs.size() ? Storage(o, o.in_logs[slot]) : nullptr;
  if (log == nullptr) return Status(ErrorCode::kNotFound, "input log missing");
  for (const auto& bytes : log->Tail(kTokenLogHistory)) {
    auto token = DeserializeToken(bytes);
    if (token.ok() && token.value().iteration == iteration) {
      return token.value().value;
    }
  }
  return Status(ErrorCode::kNotFound, "no token for iteration");
}

Result<Value> Program::OutputAt(int op, int64_t iteration) const {
  const Operand& o = ops_[static_cast<size_t>(op)];
  if (o.kind == OpKind::kConst) return o.constant;
  const cspot::LogStorage* log = Storage(o, o.out_log);
  if (log == nullptr) return Status(ErrorCode::kNotFound, "no output log");
  for (const auto& bytes : log->Tail(kTokenLogHistory)) {
    auto token = DeserializeToken(bytes);
    if (token.ok() && token.value().iteration == iteration) {
      return token.value().value;
    }
  }
  return Status(ErrorCode::kNotFound, "operand did not fire for iteration");
}

cspot::LogStorage* Program::Storage(const Operand& o, cspot::LogId log) const {
  cspot::Node* node = rt_.NodeAt(o.host_id);
  return node == nullptr ? nullptr : node->Find(log);
}

int64_t Program::FiringCount(int op) const {
  const Operand& o = ops_[static_cast<size_t>(op)];
  const cspot::LogStorage* log = Storage(o, o.out_log);
  if (log == nullptr) return 0;
  return log->Latest() + 1;
}

void Program::TryFire(int op, int64_t iteration) {
  Operand& o = ops_[static_cast<size_t>(op)];

  // Idempotence: skip when the output log already holds this iteration.
  if (o.kind != OpKind::kSink) {
    auto existing = OutputAt(op, iteration);
    if (existing.ok()) return;
  }

  if (o.kind == OpKind::kReduce) {
    // Fire strictly in iteration order, recovering the accumulator from
    // the output log (out(k-1)); an input token may unblock a run of
    // later iterations that arrived out of order.
    for (;;) {
      // Next unfired iteration = latest output + 1.
      int64_t next = 0;
      const cspot::LogStorage* out_log = Storage(o, o.out_log);
      if (out_log != nullptr && out_log->Latest() != cspot::kNoSeq) {
        // The output log stores tokens in firing order; the latest
        // token's iteration is the last fired.
        auto latest = out_log->Get(out_log->Latest());
        if (latest.ok()) {
          auto tok = DeserializeToken(latest.value());
          if (tok.ok()) next = tok.value().iteration + 1;
        }
      }
      auto in = InputAt(op, 0, next);
      if (!in.ok()) return;
      const Value acc =
          next == 0 ? o.constant : OutputAt(op, next - 1).value_or(o.constant);
      // A failed emit must break the loop: `next` would not advance and the
      // recovery scan would retry the same iteration forever.
      if (!Emit(op, next, o.reduce(acc, in.value())).ok()) return;
    }
  }

  if (o.kind == OpKind::kWindow) {
    // Needs the input tokens for the whole trailing window.
    if (iteration + 1 < static_cast<int64_t>(o.window)) {
      // Not enough history yet; also re-check whether this token completed
      // the window for a *later* iteration that arrived out of order.
    }
    // A token for iteration k can complete windows ending at k..k+n-1.
    for (int64_t end = iteration;
         end < iteration + static_cast<int64_t>(o.window); ++end) {
      if (end + 1 < static_cast<int64_t>(o.window)) continue;
      if (OutputAt(op, end).ok()) continue;
      std::vector<double> window;
      bool complete = true;
      for (int64_t k = end - static_cast<int64_t>(o.window) + 1; k <= end;
           ++k) {
        auto v = InputAt(op, 0, k);
        if (!v.ok()) {
          complete = false;
          break;
        }
        auto num = v.value().ToNumber();
        if (!num.ok()) {
          complete = false;
          break;
        }
        window.push_back(num.value());
      }
      if (complete) {
        if (!Emit(op, end, Value(std::move(window))).ok()) return;
      }
    }
    return;
  }

  // Strict firing: all inputs must hold iteration `iteration`.
  std::vector<Value> args(o.inputs.size());
  for (size_t s = 0; s < o.inputs.size(); ++s) {
    auto v = InputAt(op, s, iteration);
    if (!v.ok()) return;
    args[s] = v.take();
  }

  switch (o.kind) {
    case OpKind::kMap:
      if (Status es = Emit(op, iteration, o.map(args[0])); !es.ok()) return;
      return;
    case OpKind::kZip:
      if (Status es = Emit(op, iteration, o.zip(args)); !es.ok()) return;
      return;
    case OpKind::kFilter:
      if (o.predicate(args[0])) {
        if (Status es = Emit(op, iteration, args[0]); !es.ok()) return;
      }
      return;
    case OpKind::kSink:
      o.sink(iteration, args[0]);
      return;
    case OpKind::kSource:
    case OpKind::kConst:
    case OpKind::kWindow:
    case OpKind::kReduce:
      return;  // handled elsewhere
  }
}

Status Program::Emit(int op, int64_t iteration, const Value& v) {
  Operand& o = ops_[static_cast<size_t>(op)];
  // Laminar's single-assignment invariant: an (operand, iteration) pair is
  // bound at most once. Re-binding would let consumers observe two different
  // values for the same logical token, breaking deterministic replay.
  XG_REQUIRE(!OutputAt(op, iteration).ok(), kAlreadyExists,
             "operand " + o.name + " already emitted iteration " +
                 std::to_string(iteration));
  const std::vector<uint8_t> payload = SerializeToken(Token{iteration, v});
  auto r = rt_.LocalAppend(o.host_id, o.out_log, payload);
  if (!r.ok()) {
    XG_LOG(kWarn, "laminar") << "emit failed on " << o.name << ": "
                             << r.status().ToString();
    return r.status();
  }
  // Forward the token to each consumer's input log (remote append when the
  // consumer lives on a different CSPOT node; CSPOT handles retries).
  for (int consumer : o.consumers) {
    const Operand& c = ops_[static_cast<size_t>(consumer)];
    size_t slot = 0;
    for (size_t s = 0; s < c.inputs.size(); ++s) {
      if (c.inputs[s] == op) {
        slot = s;
        const cspot::LogId in_log = c.in_logs[slot];
        if (c.host == o.host) {
          auto lr = rt_.LocalAppend(c.host_id, in_log, payload);
          if (!lr.ok()) {
            XG_LOG(kWarn, "laminar")
                << "local forward failed: " << lr.status().ToString();
          }
        } else {
          rt_.RemoteAppend(o.host_id, c.host_id, in_log, payload,
                           cspot::AppendOptions{},
                           [](Result<cspot::SeqNo>,
                              const fault::FaultOutcome&) {});
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace xg::laminar
