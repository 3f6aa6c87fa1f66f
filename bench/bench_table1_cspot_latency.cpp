// Table 1 reproduction: CSPOT message latency for a 1 KB payload over the
// three prototype paths, measured exactly as in the paper — 30 back-to-back
// appends, first discarded (connection start-up), each acknowledged with a
// sequence number after the element is durable at the end of the log.
//
// Paper values: UNL->UCSB (5G+Int.) 101 +/- 17 ms; UNL->UCSB (Internet)
// 17 +/- 0.8 ms; UCSB->ND (Internet) 92 +/- 1 ms.
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>

#include "bench/bench_json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "cspot/topology.hpp"
#include "obs/histogram.hpp"

using namespace xg;
using namespace xg::cspot;

namespace {

struct PathMeasure {
  SampleSet lat;
  obs::Histogram hist;  ///< microsecond domain, p50/p99 source
};

void MeasurePath(const char* client, const char* host, uint64_t seed,
                 PathMeasure& out) {
  sim::Simulation sim;
  Runtime rt(sim, seed);
  BuildXgTopology(rt);
  if (!rt.CreateLog(host, LogConfig{"bench", 1024, 128}).ok()) std::abort();
  const std::vector<uint8_t> payload(1024, 0x5A);
  int i = 0;
  std::function<void()> next = [&]() {
    if (i >= 30) return;
    ++i;
    const auto t0 = sim.Now();
    rt.RemoteAppend(client, host, "bench", payload, AppendOptions{},
                    [&, t0](Result<SeqNo> r, const xg::fault::FaultOutcome&) {
                      if (!r.ok()) return;
                      if (i > 1) {
                        out.lat.Add((sim.Now() - t0).millis());
                        out.hist.Record((sim.Now() - t0).micros());
                      }
                      next();
                    });
  };
  next();
  sim.Run();
}

}  // namespace

int main() {
  struct Row {
    const char* name;
    const char* client;
    const char* host;
    double paper_mean, paper_sd;
  } rows[] = {
      {"UNL->UCSB (5G+Int.)", "unl", "ucsb", 101.0, 17.0},
      {"UNL->UCSB (Internet)", "unl-wired", "ucsb", 17.0, 0.8},
      {"UCSB->ND (Internet)", "ucsb", "nd", 92.0, 1.0},
  };

  Table table({"Path", "Latency Avg. (ms)", "Latency SD (ms)", "p50 (ms)",
               "p99 (ms)", "Paper Avg.", "Paper SD"});
  std::vector<PathMeasure> measures(3);
  uint64_t seed = 1001;
  for (size_t i = 0; i < 3; ++i) {
    const Row& row = rows[i];
    PathMeasure& pm = measures[i];
    MeasurePath(row.client, row.host, seed++, pm);
    table.AddRow({row.name, Table::Num(pm.lat.mean(), 0),
                  Table::Num(pm.lat.stddev(), 1),
                  Table::Num(pm.hist.Percentile(50.0) / 1e3, 1),
                  Table::Num(pm.hist.Percentile(99.0) / 1e3, 1),
                  Table::Num(row.paper_mean, 0),
                  Table::Num(row.paper_sd, 1)});
  }
  table.Print(std::cout, "Table 1: CSPOT Message Latency for 1KB payload "
                         "(30 appends, first discarded)");
  if (table.WriteCsv("table1_latency.csv")) {
    std::cout << "Data written to table1_latency.csv\n";
  }

  std::ofstream jout("BENCH_table1_cspot_latency.json");
  if (!jout) {
    std::cerr << "bench_table1: cannot open BENCH_table1_cspot_latency.json\n";
    return 1;
  }
  bench::JsonWriter jw(jout);
  jw.BeginObject();
  jw.Field("schema", "xg-bench-table1-v1");
  jw.Key("paths");
  jw.BeginArray();
  for (size_t i = 0; i < 3; ++i) {
    const Row& row = rows[i];
    const PathMeasure& pm = measures[i];
    jw.BeginObject();
    jw.Field("path", row.name);
    jw.Field("client", row.client);
    jw.Field("host", row.host);
    jw.Field("mean_ms", pm.lat.mean());
    jw.Field("stddev_ms", pm.lat.stddev());
    jw.Field("p50_ms", pm.hist.Percentile(50.0) / 1e3);
    jw.Field("p99_ms", pm.hist.Percentile(99.0) / 1e3);
    jw.Field("max_ms", static_cast<double>(pm.hist.max_us()) / 1e3);
    jw.Field("count", pm.hist.count());
    jw.Field("paper_mean_ms", row.paper_mean);
    jw.Field("paper_stddev_ms", row.paper_sd);
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();
  jout << "\n";
  jout.close();
  if (!jout || !jw.Complete()) {
    std::cerr << "bench_table1: write to BENCH_table1_cspot_latency.json "
                 "failed\n";
    return 1;
  }
  std::cout << "Data written to BENCH_table1_cspot_latency.json\n";
  std::cout << "\nNote: each append costs two protocol round trips "
               "(element-size fetch, then the element itself);\nthe 5G "
               "path's large SD comes from uplink scheduling-grant jitter "
               "on the air interface.\n";
  return 0;
}
