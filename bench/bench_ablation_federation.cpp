// Ablation (paper Section 4.3): multi-site federation.
//
// "Future deployments of xGFabric will make use of varying HPC sites in
// order to exploit the changing availability and performance of different
// facilities." We compare pinning all CFD tasks to Notre Dame against
// selecting the best site per task (estimated wait + modeled runtime),
// with and without the Section 4.3 batch-rendering constraint, over a
// contended week.
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "hpc/federation.hpp"
#include "obs/histogram.hpp"

using namespace xg;
using namespace xg::hpc;

namespace {

enum class Policy { kPinNd, kBestSite, kBestRenderable };

const char* PolicyName(Policy p) {
  switch (p) {
    case Policy::kPinNd: return "pin to ND-CRC";
    case Policy::kBestSite: return "best site";
    case Policy::kBestRenderable: return "best renderable site";
  }
  return "?";
}

struct Outcome {
  SampleSet completion_s;
  std::shared_ptr<obs::Histogram> completion_hist =
      std::make_shared<obs::Histogram>();
  std::map<std::string, int> placements;
};

Outcome RunWeek(Policy policy, uint64_t seed) {
  sim::Simulation sim;
  SiteSelector selector(sim, CfdPerfModel{}, seed);
  selector.AddSite(NotreDameCRC());
  selector.AddSite(PurdueAnvil());
  selector.AddSite(TaccStampede3());
  selector.StartBackgroundLoadAll(sim::SimTime::Hours(8 * 24));
  sim.RunUntil(sim::SimTime::Hours(6));  // queues warm up

  Outcome out;
  // One CFD task per hour for a week.
  sim::Periodic(sim, sim::SimTime::Minutes(7), sim::SimTime::Hours(1), [&]() {
    if (sim.Now() > sim::SimTime::Hours(7 * 24)) return false;
    std::string site = "ND-CRC";
    if (policy != Policy::kPinNd) {
      auto best =
          selector.Best(1, policy == Policy::kBestRenderable);
      if (best.ok()) site = best.value().site;
    }
    BatchScheduler* sched = selector.Scheduler(site);
    if (sched == nullptr) return true;
    ++out.placements[site];
    JobSpec spec;
    spec.name = "xg-cfd";
    spec.nodes = 1;
    spec.runtime_s = CfdPerfModel{}.TotalTime(sched->site().cores_per_node, 1);
    spec.walltime_s = spec.runtime_s * 2.0;
    const sim::SimTime submitted = sim.Now();
    sched->Submit(spec, nullptr, [&out, submitted, &sim](const JobInfo& info) {
      out.completion_s.Add((info.end_time - submitted).seconds());
      out.completion_hist->Record((info.end_time - submitted).micros());
    });
    return true;
  });
  sim.RunUntil(sim::SimTime::Hours(8 * 24));
  return out;
}

}  // namespace

int main() {
  struct Labeled {
    Policy policy;
    Outcome o;
  };
  std::vector<Labeled> runs;
  Table table({"Placement policy", "Tasks", "Completion mean (s)",
               "p50 (s)", "p99 (s)", "ND", "ANVIL", "Stampede3"});
  for (Policy p : {Policy::kPinNd, Policy::kBestSite,
                   Policy::kBestRenderable}) {
    Outcome o = RunWeek(p, 60606);
    runs.push_back({p, o});
    table.AddRow({PolicyName(p), Table::Num(o.completion_s.count(), 0),
                  Table::Num(o.completion_s.mean(), 0),
                  Table::Num(o.completion_hist->Percentile(50.0) / 1e6, 0),
                  Table::Num(o.completion_hist->Percentile(99.0) / 1e6, 0),
                  Table::Num(o.placements["ND-CRC"], 0),
                  Table::Num(o.placements["ANVIL"], 0),
                  Table::Num(o.placements["Stampede3"], 0)});
  }
  table.Print(std::cout,
              "Ablation: multi-site placement over a contended week "
              "(1 CFD task/hour)");
  std::cout << "\nExpected: site selection spreads tasks with demand and "
               "cuts tail completion times;\nthe batch-rendering constraint "
               "(Section 4.3) removes ANVIL from the pool and gives up\n"
               "part of that gain.\n";

  std::ofstream jout("BENCH_ablation_federation.json");
  if (!jout) {
    std::cerr << "bench_ablation_federation: cannot open "
                 "BENCH_ablation_federation.json\n";
    return 1;
  }
  bench::JsonWriter jw(jout);
  jw.BeginObject();
  jw.Field("schema", "xg-bench-ablation-federation-v1");
  jw.Key("policies");
  jw.BeginArray();
  for (Labeled& run : runs) {
    jw.BeginObject();
    jw.Field("policy", PolicyName(run.policy));
    jw.Field("tasks", static_cast<uint64_t>(run.o.completion_s.count()));
    jw.Field("completion_mean_s", run.o.completion_s.mean());
    jw.Field("completion_p50_s",
             run.o.completion_hist->Percentile(50.0) / 1e6);
    jw.Field("completion_p99_s",
             run.o.completion_hist->Percentile(99.0) / 1e6);
    jw.Key("placements");
    jw.BeginObject();
    jw.Field("nd_crc", run.o.placements["ND-CRC"]);
    jw.Field("anvil", run.o.placements["ANVIL"]);
    jw.Field("stampede3", run.o.placements["Stampede3"]);
    jw.EndObject();
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();
  jout << "\n";
  jout.close();
  if (!jout || !jw.Complete()) {
    std::cerr << "bench_ablation_federation: write to "
                 "BENCH_ablation_federation.json failed\n";
    return 1;
  }
  std::cout << "Data written to BENCH_ablation_federation.json\n";
  return 0;
}
