// Benchmark binary: runs one workload for one seed and prints one
// JSON object with the host fingerprint, the correctness verdict, and the
// end-to-end, workload-specific and per-layer metrics. perfbench/run.py
// builds it, runs it, and turns that object into the benchmark's result.
//
// Usage:
//   xgbench --workload day-full|day-fast|serve-drift --seed N --seconds S
//           --trace 0|1 [--trace-out PATH]
#include <cpuid.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string CpuModel() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

/// Pins the process to the highest-numbered CPU it may run on; the fabric
/// and the kFull solver are serial, and one core keeps run-to-run spread
/// down. Returns the CPU, or -1 when pinning failed.
int PinToOneCore(int* allowed) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  *allowed = CPU_COUNT(&set);
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

void PrintMetrics(std::ostream& out, const char* key, const Metrics& m) {
  out << Quote(key) << ":{";
  for (size_t i = 0; i < m.all().size(); ++i) {
    const Metric& x = m.all()[i];
    out << (i ? "," : "") << Quote(x.name) << ":{\"value\":" << Number(x.value)
        << ",\"unit\":" << Quote(x.unit) << "}";
  }
  out << "}";
}

void PrintStrings(std::ostream& out, const char* key,
                  const std::vector<std::string>& list) {
  out << Quote(key) << ":[";
  for (size_t i = 0; i < list.size(); ++i) {
    out << (i ? "," : "") << Quote(list[i]);
  }
  out << "]";
}

int Usage(const std::string& why) {
  std::cerr << "xgbench: " << why
            << "\nusage: xgbench --workload day-full|day-fast|serve-drift "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::optional<uint64_t> seed;
  std::optional<double> seconds;
  std::optional<bool> trace;
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  try {
    for (int a = 1; a + 1 < argc; a += 2) {
      const std::string k = argv[a], v = argv[a + 1];
      if (k == "--workload") {
        workload = v;
      } else if (k == "--seed") {
        seed = std::stoull(v);
      } else if (k == "--seconds") {
        seconds = std::stod(v);
      } else if (k == "--trace" && (v == "0" || v == "1")) {
        trace = v == "1";
      } else if (k == "--trace-out") {
        trace_out = v;
      } else {
        return Usage("bad argument " + k + " " + v);
      }
    }
  } catch (const std::exception&) {
    return Usage("--seed and --seconds take numbers");
  }
  if (workload != "day-full" && workload != "day-fast" &&
      workload != "serve-drift") {
    return Usage("unknown workload '" + workload + "'");
  }
  if (!seed || !seconds || !trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (!(*seconds > 0.0)) return Usage("--seconds must be positive");
  const Options opt{workload, *seed, *seconds, *trace, trace_out};

  int allowed = 0;
  const int pinned = PinToOneCore(&allowed);

  Outcome o;
  try {
    o = opt.workload == "serve-drift" ? RunServeDrift(opt)
                                      : RunDay(opt, opt.workload == "day-full");
  } catch (const std::exception& e) {
    o.errors.push_back(std::string("exception: ") + e.what());
  }

  std::ostringstream out;
  out << "{\"host\":{\"cores\":" << allowed << ",\"cpu\":" << Quote(CpuModel())
      << ",\"compiler\":" << Quote(PERFBENCH_COMPILER)
      << ",\"build_type\":" << Quote(PERFBENCH_BUILD_TYPE)
      << ",\"pinned_cpu\":" << pinned << "}"
      << ",\"workload\":" << Quote(opt.workload)
      << ",\"seed\":" << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
      << ",\"correct\":" << (o.errors.empty() ? "true" : "false")
      << ",\"attempted\":" << o.attempted << ",\"failed\":" << o.failed
      << ",";
  PrintStrings(out, "bypassed", o.bypassed);
  out << ",";
  PrintStrings(out, "errors", o.errors);
  out << ",";
  PrintMetrics(out, "e2e", o.e2e);
  out << ",";
  PrintMetrics(out, "report", o.report);
  if (opt.trace) {
    out << ",";
    PrintMetrics(out, "layers", o.layers);
  }
  out << "}\n";
  std::cout << out.str() << std::flush;
  return o.errors.empty() ? 0 : 1;
}
