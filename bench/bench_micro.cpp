// Microbenchmarks (google-benchmark) for the hot paths of each substrate:
// log appends, the radio scheduler's slot loop, the statistical tests, the
// discrete-event kernel, the WAN message path, the CSPOT append protocol
// and the span store. CFD kernels are timed by bench_cfd_kernels.
//
// Uses a custom main instead of benchmark_main: every run is mirrored
// through the shared emitter into BENCH_micro.json so regression tooling
// gets the same machine-readable artifact as the other bench drivers
// without needing --benchmark_out flags.
#include <benchmark/benchmark.h>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_json.hpp"

#include "common/rng.hpp"
#include "common/sim.hpp"
#include "cspot/log.hpp"
#include "cspot/runtime.hpp"
#include "cspot/wan.hpp"
#include "laminar/stats_tests.hpp"
#include "net5g/cell.hpp"
#include "net5g/iperf.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace {

using namespace xg;

void BM_MemoryLogAppend(benchmark::State& state) {
  cspot::MemoryLog log(cspot::LogConfig{"b", 1024, 4096});
  std::vector<uint8_t> payload(1024, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_MemoryLogAppend);

void BM_MemoryLogGet(benchmark::State& state) {
  cspot::MemoryLog log(cspot::LogConfig{"b", 1024, 4096});
  std::vector<uint8_t> payload(1024, 7);
  for (int i = 0; i < 4096; ++i) {
    if (!log.Append(payload).ok()) std::abort();
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Get(rng.UniformInt(0, 4095)));
  }
}
BENCHMARK(BM_MemoryLogGet);

void BM_CellSlotLoop(benchmark::State& state) {
  const int users = static_cast<int>(state.range(0));
  net5g::CellConfig cfg = net5g::Make5GTddCell(40.0);
  net5g::Cell cell(cfg, 2);
  const net5g::UeProfile ue =
      net5g::MakeUeProfile(net5g::DeviceType::kRaspberryPi, cfg);
  for (int u = 0; u < users; ++u) (void)cell.AttachUe(ue);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.RunUplink(1, 0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          cfg.SlotsPerSec());
}
BENCHMARK(BM_CellSlotLoop)->Arg(1)->Arg(2)->Arg(8);

void BM_SpectralEfficiency(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net5g::SpectralEfficiency(rng.Uniform(0.0, 30.0), true));
  }
}
BENCHMARK(BM_SpectralEfficiency);

void BM_WelchTTest(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> a, b;
  for (int i = 0; i < 6; ++i) {
    a.push_back(rng.Gaussian(3, 1));
    b.push_back(rng.Gaussian(3.5, 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(laminar::WelchTTest(a, b));
  }
}
BENCHMARK(BM_WelchTTest);

void BM_KolmogorovSmirnov(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> a, b;
  for (int i = 0; i < 6; ++i) {
    a.push_back(rng.Gaussian(3, 1));
    b.push_back(rng.Gaussian(3.5, 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(laminar::KolmogorovSmirnov(a, b));
  }
}
BENCHMARK(BM_KolmogorovSmirnov);

// Steady-state hold model of the event kernel: state.range(0) events stay
// pending; each iteration runs the earliest, which schedules its replacement
// at a random delay, so one iteration is one schedule+step. The 24-byte
// capture is the size of a typical [this, id, flags] callback.
struct HoldEvent {
  sim::Simulation* sim;
  Rng* rng;
  uint64_t fired;
  void operator()() const {
    // A modulo by a constant, not Rng::UniformInt's two divisions, so the
    // kernel dominates the timing.
    const auto delay = static_cast<int64_t>(1 + rng->NextU64() % 1000);
    sim->Schedule(sim::SimTime::Micros(delay), HoldEvent{sim, rng, fired + 1});
  }
};
static_assert(sizeof(HoldEvent) == 24);

void BM_SimulationHold(benchmark::State& state) {
  sim::Simulation sim;
  Rng rng(6);
  for (int64_t i = 0; i < state.range(0); ++i) HoldEvent{&sim, &rng, 0}();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Step());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulationHold)->Arg(137);

/// One untraced Wan::Send over a 2-hop route with breakers on, plus the
/// step that delivers it.
void BM_WanSend(benchmark::State& state) {
  sim::Simulation sim;
  cspot::Wan wan(sim, 8);
  const cspot::NodeId a = wan.AddNode("a");
  wan.AddNode("b");
  const cspot::NodeId c = wan.AddNode("c");
  cspot::LinkParams p;
  p.jitter_ms = 0.5;
  (void)wan.AddLink("a", "b", p);
  (void)wan.AddLink("b", "c", p);
  wan.EnableCircuitBreakers(resil::BreakerConfig{});
  uint64_t delivered = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wan.Send(a, c, 64, [&delivered] { ++delivered; }));
    sim.Step();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WanSend);

/// One untraced steady-state two-phase remote append of a telemetry-sized
/// payload over one link: get-size, put, the host's storage delay and the
/// ack, run to the completion. The caller's payload copy is part of the
/// cost, as a caller serializes each frame. Every 2^16 appends the log is
/// recreated (untimed) so its dedup table does not grow without bound.
void BM_CspotAppend(benchmark::State& state) {
  sim::Simulation sim;
  cspot::Runtime rt(sim, 9);
  rt.AddNode("c");
  rt.AddNode("s");
  cspot::LinkParams p;
  p.jitter_ms = 0.5;
  (void)rt.wan().AddLink("c", "s", p);
  const cspot::LogConfig log_cfg{"log", 512, 64};
  (void)rt.CreateLog("s", log_cfg);
  const cspot::NodeId c = rt.wan().Find("c"), s = rt.wan().Find("s");
  cspot::LogId log = rt.ResolveLog(s, "log");
  const std::vector<uint8_t> frame(476, 7);
  uint64_t acked = 0, appends = 0;
  for (auto _ : state) {
    rt.RemoteAppend(c, s, log, frame, cspot::AppendOptions{},
                    [&acked](Result<cspot::SeqNo> r,
                             const fault::FaultOutcome&) {
                      acked += r.ok() ? 1 : 0;
                    });
    sim.Run();
    if ((++appends & 0xFFFF) == 0) {
      state.PauseTiming();
      (void)rt.GetNode("s")->DeleteLog("log");
      (void)rt.CreateLog("s", log_cfg);
      log = rt.ResolveLog(s, "log");
      state.ResumeTiming();
    }
  }
  if (acked != appends) state.SkipWithError("an append failed");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CspotAppend);

/// One traced span on the virtual clock: Arg 0 opens a child span, adds an
/// integer annotation and closes it; Arg 1 records one WAN hop. The store
/// is cleared every 2^16 spans (untimed) so it never reaches capacity; the
/// blocks it then reallocates are part of the cost.
void BM_TracerSpan(benchmark::State& state) {
  obs::Tracer tracer;
  int64_t now_us = 0;
  tracer.set_clock([&now_us] { return now_us; });
  const obs::HopPayload hop{tracer.Label("unl"), tracer.Label("ucsb"), 840,
                            false};
  obs::TraceContext root = tracer.StartTrace(obs::SpanName::kTelemetry);
  const bool record_hop = state.range(0) == 1;
  int64_t n = 0;
  for (auto _ : state) {
    ++now_us;
    if (record_hop) {
      tracer.RecordHop(obs::SpanName::kWanHop, root, now_us, now_us + 4, hop);
    } else {
      const obs::TraceContext span =
          tracer.StartSpan(obs::SpanName::kCspotAppend, root);
      tracer.AnnotateInt(span, "attempts", n);
      tracer.EndSpan(span);
    }
    if (++n % (1 << 16) == 0) {
      state.PauseTiming();
      tracer.Clear();
      root = tracer.StartTrace(obs::SpanName::kTelemetry);
      state.ResumeTiming();
    }
  }
  benchmark::DoNotOptimize(tracer.span_count());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerSpan)->ArgName("hop")->Arg(0)->Arg(1);

/// One fresh-hit advisory request: Submit (quantize, hash, admit, park in
/// the request slab) plus the step that runs its sojourn event, looks the
/// key up in a warm cache and answers. The result never ages out, so every
/// iteration is a fresh hit.
void BM_ServeSubmit(benchmark::State& state) {
  sim::Simulation sim;
  serve::ServeConfig cfg;
  cfg.enabled = true;
  cfg.cache.fresh_us = cfg.cache.validity_us = int64_t{1} << 50;
  serve::AdvisoryServer server(sim, cfg);
  serve::AdvisoryServer::Request req;
  req.conditions = serve::FieldConditions{3.1, 180.0, 20.0, 50.0};
  server.Publish(req.conditions, std::vector<uint8_t>(64, 1), 0);
  uint64_t fresh = 0;
  for (auto _ : state) {
    req.budget = obs::slo::DeadlineBudget(sim.Now().micros(), 10'000'000);
    server.Submit(req, [&fresh](const serve::AdvisoryServer::Response& r) {
      fresh += r.status == serve::ServeStatus::kServedFresh ? 1 : 0;
    });
    sim.Step();
  }
  if (fresh != static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("a request was not a fresh hit");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeSubmit);

void BM_RngGaussian(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Gaussian());
  }
}
BENCHMARK(BM_RngGaussian);

/// Hands every run to the library's display reporter, which honours
/// --benchmark_format and --benchmark_color (by default colouring only a
/// terminal), while collecting the runs so the JSON artifact can be
/// written after the benchmarks finish. Construct after Initialize.
class CollectingReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& report) override {
    collected_.insert(collected_.end(), report.begin(), report.end());
    display_->ReportRuns(report);
  }
  void Finalize() override { display_->Finalize(); }
  const std::vector<Run>& collected() const { return collected_; }

 private:
  // Owned by the library.
  benchmark::BenchmarkReporter* display_ =
      benchmark::CreateDefaultDisplayReporter();
  std::vector<Run> collected_;
};

int WriteArtifact(const std::vector<benchmark::BenchmarkReporter::Run>& runs,
                  const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_micro: cannot open " << path << "\n";
    return 1;
  }
  bench::JsonWriter jw(out);
  jw.BeginObject();
  jw.Field("schema", "xg-bench-micro-v1");
  jw.Key("benchmarks");
  jw.BeginArray();
  for (const auto& r : runs) {
    if (r.error_occurred) continue;
    jw.BeginObject();
    jw.Field("name", r.benchmark_name());
    jw.Field("iterations", static_cast<int64_t>(r.iterations));
    jw.Field("real_time", r.GetAdjustedRealTime());
    jw.Field("cpu_time", r.GetAdjustedCPUTime());
    jw.Field("time_unit",
             std::string(benchmark::GetTimeUnitString(r.time_unit)));
    for (const auto& [counter_name, counter] : r.counters) {
      jw.Field(counter_name, static_cast<double>(counter));
    }
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();
  out << "\n";
  out.close();
  if (!out || !jw.Complete()) {
    std::cerr << "bench_micro: write to " << path << " failed\n";
    return 1;
  }
  std::cout << "Data written to " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const int rc = WriteArtifact(reporter.collected(), "BENCH_micro.json");
  benchmark::Shutdown();
  return rc;
}
