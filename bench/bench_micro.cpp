// Microbenchmarks (google-benchmark) for the hot paths of each substrate:
// log appends, the radio scheduler's slot loop, the statistical tests, and
// the discrete-event kernel. CFD kernels are timed by bench_cfd_kernels.
//
// Uses a custom main instead of benchmark_main: every run is mirrored
// through the shared emitter into BENCH_micro.json so regression tooling
// gets the same machine-readable artifact as the other bench drivers
// without needing --benchmark_out flags.
#include <benchmark/benchmark.h>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench/bench_json.hpp"

#include "common/rng.hpp"
#include "common/sim.hpp"
#include "cspot/log.hpp"
#include "laminar/stats_tests.hpp"
#include "net5g/cell.hpp"
#include "net5g/iperf.hpp"

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

void BM_SimulationEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    Rng rng(6);
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(sim::SimTime::Micros(rng.UniformInt(0, 100000)), [] {});
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulationEventChurn);

void BM_RngGaussian(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Gaussian());
  }
}
BENCHMARK(BM_RngGaussian);

/// Prints the standard console report while collecting every run, so the
/// JSON artifact can be written after the benchmarks finish.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    collected_.insert(collected_.end(), report.begin(), report.end());
    benchmark::ConsoleReporter::ReportRuns(report);
  }
  const std::vector<Run>& collected() const { return collected_; }

 private:
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
