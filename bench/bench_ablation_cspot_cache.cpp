// Ablation (paper Section 4.2 discussion): the CSPOT element-size cache.
//
// The production protocol fetches the log's element size before every
// append (reliability over latency). Earlier CSPOT versions cached the
// size client-side, which "effectively halves the message latency, but
// causes the append to fail if the log element size is changed on the
// server side without a client cache update." Both behaviours are
// reproduced here, including the stale-cache recovery cost.
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "cspot/topology.hpp"
#include "obs/histogram.hpp"

using namespace xg;
using namespace xg::cspot;

namespace {

SampleSet MeasureAppends(Runtime& rt, sim::Simulation& sim, const char* client,
                         const char* host, bool use_cache, int count,
                         obs::Histogram* hist = nullptr) {
  SampleSet lat;
  AppendOptions opts;
  opts.use_size_cache = use_cache;
  const std::vector<uint8_t> payload(1024, 1);
  int i = 0;
  std::function<void()> next = [&]() {
    if (i >= count) return;
    ++i;
    const auto t0 = sim.Now();
    rt.RemoteAppend(client, host, "log", payload, opts,
                    [&, t0](Result<SeqNo> r, const xg::fault::FaultOutcome&) {
                      if (r.ok() && i > 1) {
                        lat.Add((sim.Now() - t0).millis());
                        if (hist != nullptr) {
                          hist->Record((sim.Now() - t0).micros());
                        }
                      }
                      next();
                    });
  };
  next();
  sim.Run();
  return lat;
}

}  // namespace

int main() {
  Table table({"Path", "Protocol", "Avg (ms)", "SD (ms)"});
  struct Path {
    const char* name;
    const char* client;
    const char* host;
  } paths[] = {
      {"UNL->UCSB (5G+Int.)", "unl", "ucsb"},
      {"UNL->UCSB (Internet)", "unl-wired", "ucsb"},
      {"UCSB->ND (Internet)", "ucsb", "nd"},
  };
  struct MeasuredRow {
    const char* path;
    bool cache;
    SampleSet lat;
    std::shared_ptr<obs::Histogram> hist;
  };
  std::vector<MeasuredRow> measured;
  for (const Path& path : paths) {
    for (bool cache : {false, true}) {
      sim::Simulation sim;
      Runtime rt(sim, 31337);
      BuildXgTopology(rt);
      if (!rt.CreateLog(path.host, LogConfig{"log", 1024, 256}).ok()) {
        std::abort();
      }
      auto hist = std::make_shared<obs::Histogram>();
      const SampleSet lat = MeasureAppends(rt, sim, path.client, path.host,
                                           cache, 30, hist.get());
      measured.push_back({path.name, cache, lat, hist});
      table.AddRow({path.name,
                    cache ? "size cache (1 RTT)" : "two-phase (2 RTT)",
                    Table::Num(lat.mean(), 1), Table::Num(lat.stddev(), 1)});
    }
  }
  table.Print(std::cout, "Ablation A: element-size caching halves append "
                         "latency (paper Section 4.2)");

  // The failure mode: server recreates the log with a new element size.
  sim::Simulation sim;
  Runtime rt(sim, 999);
  BuildXgTopology(rt);
  if (!rt.CreateLog("ucsb", LogConfig{"log", 1024, 256}).ok()) std::abort();
  (void)MeasureAppends(rt, sim, "unl-wired", "ucsb", true, 5);  // warm cache
  Node* ucsb = rt.GetNode("ucsb");
  if (!ucsb->DeleteLog("log").ok()) std::abort();
  if (!ucsb->CreateLog(LogConfig{"log", 2048, 256}).ok()) std::abort();
  const auto t0 = sim.Now();
  double recovery_ms = -1.0;
  AppendOptions stale_opts;
  stale_opts.use_size_cache = true;
  stale_opts.retry.max_attempts = 8;
  stale_opts.retry.attempt_timeout_ms = 400.0;
  rt.RemoteAppend("unl-wired", "ucsb", "log", std::vector<uint8_t>(1024, 2),
                  stale_opts,
                  [&](Result<SeqNo> r, const xg::fault::FaultOutcome&) {
                    if (r.ok()) recovery_ms = (sim.Now() - t0).millis();
                  });
  sim.Run();
  std::cout << "\nStale-cache scenario: server recreated the log with a new "
               "element size.\n"
            << "  cache invalidations: "
            << rt.counters().size_cache_invalidations << "\n"
            << "  recovery append latency: " << recovery_ms
            << " ms (mismatch round trip + refreshed two-phase append)\n"
            << "Expected: ~3 round trips instead of 1 — the reliability "
               "cost that made the paper\nkeep the two-phase protocol in "
               "production.\n";

  std::ofstream jout("BENCH_ablation_cspot_cache.json");
  if (!jout) {
    std::cerr << "bench_ablation_cspot_cache: cannot open "
                 "BENCH_ablation_cspot_cache.json\n";
    return 1;
  }
  bench::JsonWriter jw(jout);
  jw.BeginObject();
  jw.Field("schema", "xg-bench-ablation-cspot-cache-v1");
  jw.Key("paths");
  jw.BeginArray();
  for (const MeasuredRow& row : measured) {
    jw.BeginObject();
    jw.Field("path", row.path);
    jw.Field("protocol", row.cache ? "size_cache" : "two_phase");
    jw.Field("mean_ms", row.lat.mean());
    jw.Field("stddev_ms", row.lat.stddev());
    jw.Field("p50_ms", row.hist->Percentile(50.0) / 1e3);
    jw.Field("p99_ms", row.hist->Percentile(99.0) / 1e3);
    jw.Field("count", row.hist->count());
    jw.EndObject();
  }
  jw.EndArray();
  jw.Key("stale_cache");
  jw.BeginObject();
  jw.Field("invalidations", rt.counters().size_cache_invalidations);
  jw.Field("recovery_ms", recovery_ms);
  jw.EndObject();
  jw.EndObject();
  jout << "\n";
  jout.close();
  if (!jout || !jw.Complete()) {
    std::cerr << "bench_ablation_cspot_cache: write to "
                 "BENCH_ablation_cspot_cache.json failed\n";
    return 1;
  }
  std::cout << "Data written to BENCH_ablation_cspot_cache.json\n";
  return 0;
}
