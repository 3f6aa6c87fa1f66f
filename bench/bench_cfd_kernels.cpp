// CFD kernel benchmark: per-kernel hot-path timing for the solver's step
// on one thread, at every lane width this CPU runs (cfd/lanes.hpp). Emits
// a machine-readable BENCH_cfd.json artifact so CI and regression tooling
// can track kernel performance.
//
// Per width it times three things on one solver: `steps` calls of Step()
// (the per-kernel table; every Step() computes the Poisson residual and
// the max divergence), then `steps` steps through one Run(steps), the way
// the fabric and perfbench step a solve (those diagnostics only on the
// last step): the production step time `run_step_ms` and the pressure
// solve's phases ("sor.*" kernels) come from that window.
//
// The run is also a correctness gate: the exit status is nonzero if any
// timed step leaves a Poisson residual above 1e-10 * max|b|, if the fields
// after the run at any width differ bitwise from the SSE2 width's, or if
// the artifact cannot be written.
//
// Usage:
//   bench_cfd_kernels [--smoke] [--out PATH] [--steps N]
//
// --smoke shrinks the mesh and step count so the whole run finishes in
// well under a second; CI runs it as the kernel gate.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "cfd/lanes.hpp"
#include "cfd/mesh.hpp"
#include "cfd/solver.hpp"
#include "common/table.hpp"
#include "obs/kerneltimer.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace xg;

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr const char* kKernels[] = {"advect",   "diffuse_force",  "sor",
                                    "residual", "project",        "max_divergence"};

/// Phases of the pressure solve (cfd::PoissonSolver), all inside "sor".
constexpr const char* kSorPhases[] = {"sor.forward_y", "sor.forward_z",
                                      "sor.sweep_x",   "sor.inverse_z",
                                      "sor.inverse_y", "sor.transpose"};

/// Total milliseconds and calls of one timed kernel over a window.
struct KernelTotal {
  double ms = 0.0;
  uint64_t calls = 0;
  double MeanMs() const { return calls > 0 ? ms / calls : 0.0; }
};

/// A timed step whose Poisson residual exceeds this share of max|b| fails
/// the run.
constexpr double kResidualTolerance = 1e-10;

struct RunResult {
  cfd::LaneWidth width = cfd::LaneWidth::kSse2;
  /// Per Step() call.
  double step_ms = 0.0;
  double cells_per_sec = 0.0;
  /// Per step of one Run(steps).
  double run_step_ms = 0.0;
  /// Worst residual / max|b| over the timed steps.
  double residual_ratio = 0.0;
  /// Over the Step() window, parallel to kKernels.
  std::vector<KernelTotal> kernels;
  /// Over the Run() window, parallel to kSorPhases.
  std::vector<KernelTotal> sor_phases;
  /// FNV-1a over the bits of u, v, w, T and p after the run.
  uint64_t field_hash = 0;
};

/// FNV-1a over the bit patterns of every value, so -0.0 and 0.0 differ.
void HashInto(uint64_t& h, std::span<const double> field) {
  for (double x : field) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

cfd::Boundary BenchBoundary() {
  cfd::Boundary bc;
  bc.wind_speed_ms = 4.0;
  bc.wind_dir_deg = 225.0;
  bc.exterior_temp_c = 21.0;
  bc.interior_temp_c = 26.0;
  return bc;
}

RunResult TimeSolver(const cfd::Mesh& mesh, cfd::LaneWidth width, int warmup,
                     int steps) {
  cfd::Solver solver(mesh, cfd::SolverParams{});
  solver.set_lane_width(width);
  obs::MetricsRegistry registry;
  obs::KernelTimer timer(&registry, &NowUs);
  solver.set_kernel_timer(&timer);
  solver.Initialize(BenchBoundary());
  solver.Run(warmup);

  // Count only a timed window: snapshot per-kernel totals around it.
  const auto totals = [&](std::span<const char* const> names) {
    std::vector<KernelTotal> t;
    for (const char* k : names) t.push_back({timer.TotalMs(k), timer.Count(k)});
    return t;
  };
  const auto since = [](std::vector<KernelTotal> after,
                        const std::vector<KernelTotal>& before) {
    for (size_t k = 0; k < after.size(); ++k) {
      after[k].ms -= before[k].ms;
      after[k].calls -= before[k].calls;
    }
    return after;
  };
  const std::vector<KernelTotal> kernels_before = totals(kKernels);
  RunResult r;
  r.width = solver.lane_width();
  const int64_t t0 = NowUs();
  for (int s = 0; s < steps; ++s) {
    const cfd::StepStats st = solver.Step();
    const double ratio = st.poisson_rhs > 0
                             ? st.poisson_residual / st.poisson_rhs
                             : st.poisson_residual;
    // Written so a NaN ratio sticks and fails the gate.
    if (!(ratio <= r.residual_ratio)) r.residual_ratio = ratio;
  }
  const int64_t t1 = NowUs();
  r.kernels = since(totals(kKernels), kernels_before);

  const std::vector<KernelTotal> phases_before = totals(kSorPhases);
  const int64_t t2 = NowUs();
  solver.Run(steps);
  const int64_t t3 = NowUs();
  r.sor_phases = since(totals(kSorPhases), phases_before);

  const double secs = static_cast<double>(t1 - t0) / 1e6;
  r.step_ms = secs / steps * 1e3;
  r.run_step_ms = static_cast<double>(t3 - t2) / 1e3 / steps;
  r.cells_per_sec =
      secs > 0 ? steps * static_cast<double>(mesh.cell_count()) / secs : 0.0;
  r.field_hash = 14695981039346656037ull;
  for (const std::span<const double> f :
       {solver.u(), solver.v(), solver.w(), solver.temperature(),
        solver.pressure()}) {
    HashInto(r.field_hash, f);
  }
  return r;
}

int Fail(const std::string& msg) {
  std::cerr << "bench_cfd_kernels: " << msg << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_cfd.json";
  int steps_override = 0;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && a + 1 < argc) {
      out_path = argv[++a];
    } else if (arg == "--steps" && a + 1 < argc) {
      steps_override = std::atoi(argv[++a]);
    } else {
      return Fail("unknown argument: " + arg +
                  " (usage: [--smoke] [--out PATH] [--steps N])");
    }
  }

  cfd::MeshParams mp;
  if (smoke) {
    mp.nx = 20;
    mp.ny = 16;
    mp.nz = 8;
  } else {
    mp.nx = 48;
    mp.ny = 40;
    mp.nz = 12;
  }
  cfd::Mesh mesh(mp);
  const int warmup = smoke ? 1 : 3;
  int steps = smoke ? 4 : 30;
  if (steps_override > 0) steps = steps_override;

  std::vector<RunResult> runs;
  for (cfd::LaneWidth width : cfd::HostLaneWidths()) {
    runs.push_back(TimeSolver(mesh, width, warmup, steps));
  }
  const cfd::LaneWidth selected = cfd::HostLaneWidth();
  std::cout << "Lane width selected from the CPU: "
            << cfd::LaneWidthName(selected) << "\n\n";

  Table step({"Width", "Step (ms)", "Run step (ms)", "Mcells/s",
              "Field hash", "= sse2"});
  for (const RunResult& r : runs) {
    step.AddRow({std::string(cfd::LaneWidthName(r.width)),
                 Table::Num(r.step_ms, 3), Table::Num(r.run_step_ms, 3),
                 Table::Num(r.cells_per_sec / 1e6, 2), Hex(r.field_hash),
                 r.field_hash == runs.front().field_hash ? "yes" : "NO"});
  }
  step.Print(std::cout, "Full Step() throughput");

  std::vector<std::string> head = {"Kernel"};
  for (const RunResult& r : runs) {
    head.push_back(std::string(cfd::LaneWidthName(r.width)) + " (ms)");
  }
  const auto per_call = [&](std::span<const char* const> names,
                            std::vector<KernelTotal> RunResult::*field,
                            const char* title) {
    Table t(head);
    for (size_t k = 0; k < names.size(); ++k) {
      std::vector<std::string> row = {names[k]};
      for (const RunResult& r : runs) {
        row.push_back(Table::Num((r.*field)[k].MeanMs(), 4));
      }
      t.AddRow(row);
    }
    t.Print(std::cout, title);
  };
  per_call(kKernels, &RunResult::kernels, "Per-kernel mean per Step() call");
  per_call(kSorPhases, &RunResult::sor_phases,
           "Pressure-solve phases, mean per call within Run()");
  double worst_residual = 0.0;
  bool hashes_match = true;
  for (const RunResult& r : runs) {
    if (!(r.residual_ratio <= worst_residual)) {
      worst_residual = r.residual_ratio;
    }
    hashes_match = hashes_match && r.field_hash == runs.front().field_hash;
  }
  std::cout << "Worst Poisson residual / max|b|: " << worst_residual
            << " (limit " << kResidualTolerance << ")\n";

  const auto write_kernels = [](bench::JsonWriter& jw, const char* key,
                                 std::span<const char* const> names,
                                 const std::vector<KernelTotal>& totals) {
    jw.Key(key);
    jw.BeginArray();
    for (size_t k = 0; k < names.size(); ++k) {
      jw.BeginObject();
      jw.Field("name", names[k]);
      jw.Field("total_ms", totals[k].ms);
      jw.Field("calls", totals[k].calls);
      jw.Field("mean_ms", totals[k].MeanMs());
      jw.EndObject();
    }
    jw.EndArray();
  };
  const auto write_run = [&](bench::JsonWriter& jw, const RunResult& r) {
    jw.Field("step_ms", r.step_ms);
    jw.Field("run_step_ms", r.run_step_ms);
    jw.Field("cells_per_sec", r.cells_per_sec);
    write_kernels(jw, "kernels", kKernels, r.kernels);
    write_kernels(jw, "sor_phases", kSorPhases, r.sor_phases);
    jw.Field("max_poisson_residual_ratio", r.residual_ratio);
  };

  std::ofstream out(out_path);
  if (!out) return Fail("cannot open " + out_path + " for writing");
  bench::JsonWriter jw(out);
  jw.BeginObject();
  jw.Field("schema", "xg-bench-cfd-v5");
  jw.Field("smoke", smoke);
  jw.Key("mesh");
  jw.BeginObject();
  jw.Field("nx", mesh.nx());
  jw.Field("ny", mesh.ny());
  jw.Field("nz", mesh.nz());
  jw.Field("cells", static_cast<uint64_t>(mesh.cell_count()));
  jw.EndObject();
  jw.Field("steps", steps);
  jw.Field("warmup_steps", warmup);
  jw.Field("lane_width", std::string(cfd::LaneWidthName(selected)));
  // The selected width's run, at the top level as in earlier schemas.
  write_run(jw, runs.back());
  jw.Field("widths_match_sse2", hashes_match);
  jw.Key("widths");
  jw.BeginArray();
  for (const RunResult& r : runs) {
    jw.BeginObject();
    jw.Field("lane_width", std::string(cfd::LaneWidthName(r.width)));
    write_run(jw, r);
    jw.Field("field_hash", Hex(r.field_hash));
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();
  if (!jw.Complete()) return Fail("internal error: unbalanced JSON");
  out << "\n";
  out.close();
  if (!out) return Fail("write to " + out_path + " failed");
  std::cout << "Data written to " << out_path << "\n";
  if (!(worst_residual <= kResidualTolerance)) {
    return Fail("Poisson residual above tolerance");
  }
  if (!hashes_match) {
    return Fail("fields differ bitwise between lane widths");
  }
  return 0;
}
