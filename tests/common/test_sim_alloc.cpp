// Allocation gate for the event kernel, the WAN message path, the span
// store, the SLO ledger, the advisory server and the CSPOT append path:
// once warmed up, a schedule+step cycle (or a Wan::Send and its delivery)
// whose capture fits the inline buffer must not touch the heap, and
// neither may recording spans inside an already allocated block, opening,
// stamping and closing a reading's budget, serving an advisory request
// from the cache, or evaluating the change detector on a full window; a
// remote append allocates only its stored copy, and a default fabric day
// stays under a pinned allocation count.
// The global operator new is replaced by a counting one, which is why this
// test is its own executable.
#include "common/rng.hpp"
#include "common/sim.hpp"
#include "core/fabric.hpp"
#include "cspot/runtime.hpp"
#include "cspot/wan.hpp"
#include "laminar/change_detect.hpp"
#include "obs/slo/ledger.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Not inlined: gcc would otherwise pair the inlined free() with the
// operator new at each call site and warn about a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace xg::sim {
namespace {

// Hold model: each firing schedules its replacement at a random delay, so
// the pending count stays constant. The capture is 24 bytes.
struct HoldEvent {
  Simulation* sim;
  Rng* rng;
  uint64_t fired;
  void operator()() const {
    sim->Schedule(SimTime::Micros(rng->UniformInt(1, 1000)),
                  HoldEvent{sim, rng, fired + 1});
  }
};
static_assert(sizeof(HoldEvent) == 24);

TEST(SimulationAlloc, SteadyStateHoldDoesNotAllocate) {
  constexpr int kPending = 137;
  Simulation sim;
  Rng rng(17);
  for (int i = 0; i < kPending; ++i) HoldEvent{&sim, &rng, 0}();
  for (int i = 0; i < 10'000; ++i) sim.Step();  // warm-up

  const uint64_t before = g_allocations.load();
  size_t steps = 0;
  for (int i = 0; i < 100'000; ++i) steps += sim.Step() ? 1 : 0;
  const uint64_t allocated = g_allocations.load() - before;

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(steps, 100'000u);
  EXPECT_EQ(sim.pending(), static_cast<size_t>(kPending));
}

TEST(SimulationAlloc, OversizedCaptureAllocatesOncePerEvent) {
  Simulation sim;
  sim.Schedule(SimTime::Micros(1), [] {});
  sim.Run();  // leaves one free slot and heap capacity for one key

  std::array<uint64_t, 8> big{};
  big[7] = 5;
  uint64_t sum = 0;
  const uint64_t before = g_allocations.load();
  sim.Schedule(SimTime::Micros(1), [big, &sum] { sum += big[7]; });
  EXPECT_EQ(g_allocations.load() - before, 1u);
  sim.Run();
  EXPECT_EQ(sum, 5u);
}

// A 48-byte delivery capture: the largest that stays inline.
struct Delivery {
  uint64_t* delivered;
  uint64_t pad[5];
  void operator()() const { *delivered += 1 + pad[4]; }
};
static_assert(sizeof(Delivery) == Callback::kInlineBytes);

TEST(WanAlloc, SteadyStateSendDoesNotAllocate) {
  Simulation sim;
  cspot::Wan wan(sim, 3);
  const cspot::NodeId a = wan.AddNode("a");
  wan.AddNode("b");
  const cspot::NodeId c = wan.AddNode("c");
  cspot::LinkParams p;
  p.jitter_ms = 0.5;
  ASSERT_TRUE(wan.AddLink("a", "b", p).ok());
  ASSERT_TRUE(wan.AddLink("b", "c", p).ok());
  wan.EnableCircuitBreakers(resil::BreakerConfig{});

  uint64_t delivered = 0;
  auto send_and_deliver = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(wan.Send(a, c, 64, Delivery{&delivered, {}}).ok());
      ASSERT_TRUE(sim.Step());
    }
  };
  send_and_deliver(100);  // warm-up: route table, breaker, fault target

  const uint64_t before = g_allocations.load();
  send_and_deliver(10'000);
  const uint64_t allocated = g_allocations.load() - before;

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(delivered, 10'100u);
  EXPECT_NE(wan.breaker("a", "c"), nullptr);
}

TEST(TracerAlloc, SteadyStateSpansDoNotAllocate) {
  obs::Tracer tracer;
  int64_t now_us = 0;
  tracer.set_clock([&now_us] { return now_us; });
  const obs::HopPayload hop{tracer.Label("unl"), tracer.Label("ucsb"), 840,
                            false};
  const obs::TraceContext root = tracer.StartTrace(obs::SpanName::kTelemetry);
  tracer.AnnotateInt(root, "stations", 6);  // allocates the first arg block

  // 600 more spans and 300 annotations: inside the blocks already held.
  constexpr int kRounds = 300;
  const uint64_t before = g_allocations.load();
  for (int i = 0; i < kRounds; ++i) {
    now_us += 10;
    const obs::TraceContext span =
        tracer.StartSpan(obs::SpanName::kCspotAppend, root);
    tracer.AnnotateInt(span, "attempts", i);
    tracer.RecordHop(obs::SpanName::kWanHop, span, now_us, now_us + 4, hop);
    tracer.EndSpan(span);
  }
  const uint64_t allocated = g_allocations.load() - before;

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(tracer.span_count(), 1u + 2 * kRounds);
  const obs::SpanRecord last = tracer.Snapshot().back();
  EXPECT_EQ(last.name, "wan.hop");
  ASSERT_EQ(last.args.size(), 3u);
  EXPECT_EQ(last.args[0].second, "unl");
  EXPECT_EQ(last.args[2].second, "840");
}

TEST(TracerAlloc, TracedWanSendDoesNotAllocate) {
  Simulation sim;
  obs::Tracer tracer;
  tracer.set_clock([&sim] { return sim.Now().micros(); });
  cspot::Wan wan(sim, 3);
  const cspot::NodeId a = wan.AddNode("a");
  wan.AddNode("b");
  wan.set_tracer(&tracer);  // labels for the nodes so far
  const cspot::NodeId c = wan.AddNode("c");
  cspot::LinkParams p;
  ASSERT_TRUE(wan.AddLink("a", "b", p).ok());
  ASSERT_TRUE(wan.AddLink("b", "c", p).ok());
  const obs::TraceContext root = tracer.StartTrace(obs::SpanName::kTelemetry);

  uint64_t delivered = 0;
  auto send_and_deliver = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(wan.Send(a, c, 64, Delivery{&delivered, {}}, root).ok());
      ASSERT_TRUE(sim.Step());
    }
  };
  send_and_deliver(100);  // warm-up: route table, fault target, span block

  const uint64_t before = g_allocations.load();
  send_and_deliver(300);  // 600 hop spans, still inside the first block
  const uint64_t allocated = g_allocations.load() - before;

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(delivered, 400u);
  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 801u);
  EXPECT_EQ(spans.back().args[0].second, "b");
  EXPECT_EQ(spans.back().args[1].second, "c");
  EXPECT_EQ(spans.back().args[2].second, "64");
}

TEST(LedgerAlloc, SteadyStateClosesDoNotAllocate) {
  using obs::slo::CloseReason;
  using obs::slo::Stage;
  obs::slo::LatencyLedger ledger;
  // The fabric's pattern: each reading opens, stamps its way to the
  // repository and retires the previous reading's budget.
  auto reading = [&ledger](uint64_t id) {
    const int64_t t0 = static_cast<int64_t>(id) * 300'000'000;
    ledger.SweepExpired(t0);
    ledger.Open(id, t0);
    ledger.Stamp(id, Stage::kRrcGrant, t0 + 11'000);
    ledger.Stamp(id, Stage::kWanHop, t0 + 45'000);
    ledger.Stamp(id, Stage::kCspotAppend, t0 + 56'000);
    ledger.Stamp(id, Stage::kReplicationAck, t0 + 85'000);
    ledger.CloseIfIdle(id - 1, id % 5 == 0 ? CloseReason::kBuffered
                                           : CloseReason::kDelivered);
  };
  uint64_t id = 1;
  for (; id <= 2 * obs::slo::kRecentCapacity; ++id) reading(id);  // warm-up

  const uint64_t before = g_allocations.load();
  for (const uint64_t end = id + 10'000; id < end; ++id) reading(id);
  const uint64_t allocated = g_allocations.load() - before;

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(ledger.in_flight(), 1u);
  EXPECT_EQ(ledger.closed_total(), id - 2);
  EXPECT_EQ(ledger.StageHistogram(Stage::kWanHop).count(),
            ledger.closed_by_reason(CloseReason::kDelivered));
}

// A server whose one cached result stays fresh for the whole test.
struct WarmServer {
  Simulation sim;
  serve::AdvisoryServer server{sim, Config()};
  serve::FieldConditions conditions{3.1, 180.0, 20.0, 50.0};
  uint64_t responses[serve::kServeStatusCount] = {};

  static serve::ServeConfig Config() {
    serve::ServeConfig cfg;
    cfg.enabled = true;
    cfg.cache.fresh_us = cfg.cache.validity_us = int64_t{1} << 50;
    return cfg;
  }
  WarmServer() { server.Publish(conditions, std::vector<uint8_t>(64, 1), 0); }

  void Submit(int64_t budget_us) {
    serve::AdvisoryServer::Request req;
    req.conditions = conditions;
    req.budget = obs::slo::DeadlineBudget(sim.Now().micros(), budget_us);
    server.Submit(req, [this](const serve::AdvisoryServer::Response& r) {
      ++responses[static_cast<int>(r.status)];
    });
  }
  uint64_t served(serve::ServeStatus s) const {
    return responses[static_cast<int>(s)];
  }
};

TEST(ServeAlloc, FreshHitSubmitDoesNotAllocate) {
  WarmServer w;
  auto submit_and_serve = [&w](int n) {
    for (int i = 0; i < n; ++i) {
      w.Submit(10'000'000);
      ASSERT_TRUE(w.sim.Step());  // the sojourn event answers it
    }
  };
  submit_and_serve(100);  // warm-up: request slab, event slots

  const uint64_t before = g_allocations.load();
  submit_and_serve(10'000);
  const uint64_t allocated = g_allocations.load() - before;

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(w.served(serve::ServeStatus::kServedFresh), 10'100u);
  EXPECT_EQ(w.sim.pending(), 0u);
}

TEST(ServeAlloc, ShedFastPathDoesNotAllocate) {
  WarmServer w;
  // A budget shorter than one modeled service time: admission sheds on
  // the deadline and the stale fast path answers synchronously.
  const int64_t budget_us = w.server.config().admission.service_us / 2;
  for (int i = 0; i < 100; ++i) w.Submit(budget_us);  // warm-up

  const uint64_t before = g_allocations.load();
  for (int i = 0; i < 10'000; ++i) w.Submit(budget_us);
  const uint64_t allocated = g_allocations.load() - before;

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(w.served(serve::ServeStatus::kServedStaleShed), 10'100u);
  EXPECT_EQ(w.server.admission().shed_deadline(), 10'100u);
  EXPECT_EQ(w.sim.pending(), 0u);
}

// Two nodes and one log whose history outlasts the test, so every append
// stores its payload in a fresh ring slot: one allocation, the stored copy.
struct AppendRig {
  Simulation sim;
  obs::Tracer tracer;
  cspot::Runtime rt{sim, 5};
  cspot::NodeId client = cspot::kNoNode, host = cspot::kNoNode;
  cspot::LogId log;
  uint64_t acked = 0;

  explicit AppendRig(bool traced) {
    rt.AddNode("c");
    rt.AddNode("s");
    client = rt.wan().Find("c");
    host = rt.wan().Find("s");
    cspot::LinkParams p;
    p.jitter_ms = 0.5;
    EXPECT_TRUE(rt.wan().AddLink("c", "s", p).ok());
    EXPECT_TRUE(rt.CreateLog("s", cspot::LogConfig{"log", 512, 4096}).ok());
    log = rt.ResolveLog(host, "log");
    if (traced) {
      tracer.set_clock([this] { return sim.Now().micros(); });
      rt.AttachObservability(nullptr, &tracer);
    }
  }
  // One two-phase append through its ack; the caller built the payload.
  void Append(std::vector<uint8_t> payload, const obs::TraceContext& trace) {
    cspot::AppendOptions opts;
    opts.trace = trace;
    rt.RemoteAppend(client, host, log, std::move(payload), opts,
                    [this](Result<cspot::SeqNo> r, const fault::FaultOutcome&) {
                      acked += r.ok() ? 1 : 0;
                    });
    sim.Run();
  }
};

void ExpectAppendAllocatesOnlyTheStoredCopy(bool traced) {
  AppendRig rig(traced);
  const obs::TraceContext root =
      traced ? rig.tracer.StartTrace(obs::SpanName::kTelemetry)
             : obs::TraceContext{};
  // Warm-up: op pool, event slots, route, the first span, argument and
  // text blocks, and the dedup table grown to 256 cells (it doubles again
  // at 128 tokens).
  for (int i = 0; i < 65; ++i) {
    rig.Append(std::vector<uint8_t>(476, static_cast<uint8_t>(i)), root);
  }
  // 60 more appends: 8 spans each traced, still inside the first block.
  constexpr int kAppends = 60;
  uint64_t total = 0, worst = 0;
  for (int i = 0; i < kAppends; ++i) {
    std::vector<uint8_t> payload(476, static_cast<uint8_t>(i));
    const uint64_t before = g_allocations.load();
    rig.Append(std::move(payload), root);
    const uint64_t allocated = g_allocations.load() - before;
    total += allocated;
    worst = std::max(worst, allocated);
  }
  EXPECT_EQ(worst, 1u);
  EXPECT_EQ(total, static_cast<uint64_t>(kAppends));
  EXPECT_EQ(rig.acked, 125u);
  EXPECT_EQ(rig.rt.counters().size_requests, 125u);
  if (traced) {
    EXPECT_EQ(rig.tracer.span_count(), 1u + 8 * 125);
  }
}

TEST(CspotAlloc, SteadyStateRemoteAppendAllocatesOnlyThePayload) {
  ExpectAppendAllocatesOnlyTheStoredCopy(/*traced=*/false);
}

TEST(CspotAlloc, SteadyStateTracedRemoteAppendAllocatesOnlyThePayload) {
  ExpectAppendAllocatesOnlyTheStoredCopy(/*traced=*/true);
}

// The detection cycle's statistics: once the detector's scratch has grown
// to a full window, an evaluation reads the series in place and allocates
// nothing, whether it alarms or not.
TEST(LaminarAlloc, EvaluateOnAFullWindowDoesNotAllocate) {
  laminar::ChangeDetector detector;
  Rng rng(3);
  std::vector<double> steady(2 * detector.config().window);
  std::vector<double> front = steady;
  for (size_t i = 0; i < steady.size(); ++i) {
    steady[i] = rng.Gaussian(3.0, 0.4);
    front[i] = rng.Gaussian(i < steady.size() / 2 ? 2.0 : 5.0, 0.3);
  }
  (void)detector.Evaluate(steady);  // warm-up: grows the scratch

  int changed = 0;
  const uint64_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    changed += detector.Evaluate(steady).changed;
    changed += detector.Evaluate(front).changed;
  }
  const uint64_t allocated = g_allocations.load() - before;

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(changed, 100);  // the front alarms every time, steady never
}

// One default 24 h day (seed 1, 287 frames). Measured: 3018 allocations
// inside Run. Before telemetry frames took resolved log ids, pooled append
// ops and a flat dedup table, the same day made 13964 (about 48 a frame);
// before the change detector read its windows in place with reused
// sorting scratch, 4541; before the escalation moved its boundary and
// result instead of copying them, the twin updated its stations in place,
// remote-read replies fit the event's inline buffer and each result read
// the latest frame once, 4079.
TEST(FabricAlloc, DefaultDayAllocationBound) {
  constexpr uint64_t kBound = 3100;
  core::FabricConfig cfg;
  cfg.seed = 1;
  core::Fabric fabric(cfg);
  const uint64_t before = g_allocations.load();
  fabric.Run(24.0);
  const uint64_t allocated = g_allocations.load() - before;

  EXPECT_LE(allocated, kBound);
  EXPECT_EQ(fabric.metrics().telemetry_frames_stored, 287u);
}

}  // namespace
}  // namespace xg::sim
