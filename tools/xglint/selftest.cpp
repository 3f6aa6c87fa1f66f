// Embedded fixtures for the xglint rule engine: each snippet is linted as
// if it lived at `path`, and must produce exactly the expected rule names
// in order. Every rule carries at least one positive, one negative, and
// (where suppression matters) one `xglint:allow` case; the lexer's
// literal/comment handling has its own regression fixtures because the
// string-literal false positives (a rule token quoted in a message or a
// doc comment) were the main failure mode of the line-regex v1.
#include <cstdio>
#include <string>
#include <vector>

// Implemented in xglint.cpp: lints `source` as if at `path`, appending the
// fired rule names to `rules` in reporting order.
void LintSourceForTest(const std::string& path, const std::string& source,
                       std::vector<std::string>& rules);

namespace {

struct SelfTestCase {
  const char* name;
  const char* path;
  const char* source;
  std::vector<std::string> expect;  ///< expected rule names, in order
};

const std::vector<SelfTestCase>& Cases() {
  static const std::vector<SelfTestCase> cases = {
      // --- unbounded-retry -------------------------------------------------
      {"unbounded retry around a send is flagged", "src/x/retry.cpp",
       "void Pump() {\n"
       "  while (true) {\n"
       "    transport.Send(frame);\n"
       "  }\n"
       "}\n",
       {"unbounded-retry"}},
      {"for(;;) around an append is flagged", "src/x/retry.cpp",
       "void Pump() {\n"
       "  for (;;) {\n"
       "    rt.Append(bytes);\n"
       "  }\n"
       "}\n",
       {"unbounded-retry"}},
      {"attempt cap in the body is accepted", "src/x/retry.cpp",
       "void Pump() {\n"
       "  while (true) {\n"
       "    if (++attempt > policy.max_attempts) break;\n"
       "    transport.Send(frame);\n"
       "  }\n"
       "}\n",
       {}},
      {"deadline in the body is accepted", "src/x/retry.cpp",
       "void Pump() {\n"
       "  while (true) {\n"
       "    if (now >= deadline) return;\n"
       "    transport.Send(frame);\n"
       "  }\n"
       "}\n",
       {}},
      {"unconditional loop without a send is not a retry loop",
       "src/x/worker.cpp",
       "void Loop() {\n"
       "  for (;;) {\n"
       "    cv.Wait(mu);\n"
       "    if (shutdown) return;\n"
       "  }\n"
       "}\n",
       {}},
      {"suppression comment silences the retry rule", "src/x/retry.cpp",
       "void Pump() {\n"
       "  while (true) {  // xglint:allow(unbounded-retry)\n"
       "    transport.Send(frame);\n"
       "  }\n"
       "}\n",
       {}},
      {"retry loop outside src/ is out of scope", "tests/x/retry.cpp",
       "void Pump() {\n"
       "  while (true) {\n"
       "    transport.Send(frame);\n"
       "  }\n"
       "}\n",
       {}},
      {"send named in a string does not make a retry loop", "src/x/retry.cpp",
       "void Spin() {\n"
       "  while (true) {\n"
       "    Log(\"would Send(frame) here\");\n"
       "    if (Poll()) return;\n"
       "  }\n"
       "}\n",
       {}},

      // --- stage-stamp -----------------------------------------------------
      {"latency delta off Now() in pipeline code is flagged", "src/x/path.cpp",
       "void Store() {\n"
       "  const double latency_ms = (sim_.Now() - t0).millis();\n"
       "}\n",
       {"stage-stamp"}},
      {"elapsed delta wrapped across lines is flagged", "src/x/path.cpp",
       "void Retry() {\n"
       "  const double elapsed_ms =\n"
       "      static_cast<double>(sim_.Now().micros() - started_us) / 1e3;\n"
       "}\n",
       {"stage-stamp"}},
      {"Now() delta without a latency sink is not a stage boundary",
       "src/x/accrue.cpp",
       "void Accrue() {\n"
       "  const double dt = (sim_.Now() - last_accrual_).seconds();\n"
       "}\n",
       {}},
      {"stage-stamp suppression works", "src/x/path.cpp",
       "void Store() {\n"
       "  const double latency_ms =\n"
       "      (sim_.Now() - t0).millis();  // xglint:allow(stage-stamp)\n"
       "}\n",
       {}},
      {"stage-stamp suppression on the line above works", "src/x/path.cpp",
       "void Store() {\n"
       "  // xglint:allow(stage-stamp)\n"
       "  const double latency_ms = (sim_.Now() - t0).millis();\n"
       "}\n",
       {}},
      {"obs layer computes deltas from stamps and is exempt",
       "src/obs/slo/ledger.cpp",
       "void Close() {\n"
       "  const double latency_ms = (clock_.Now() - opened).millis();\n"
       "}\n",
       {}},

      // --- raw-sleep -------------------------------------------------------
      {"raw sleep under src/ is flagged", "src/x/poll.cpp",
       "void Poll() {\n"
       "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
       "}\n",
       {"raw-sleep"}},
      {"raw sleep suppression works", "src/x/poll.cpp",
       "void Poll() {\n"
       "  usleep(100);  // xglint:allow(raw-sleep)\n"
       "}\n",
       {}},
      {"sleep in a comment is ignored", "src/x/poll.cpp",
       "// a long sleep_for here would be wrong\n"
       "void Poll() {}\n",
       {}},
      {"sleep outside src/ is out of scope", "bench/x/poll.cpp",
       "void Poll() { usleep(100); }\n",
       {}},

      // --- unchecked-value -------------------------------------------------
      {"value() without a guard is flagged", "src/x/use.cpp",
       "void Use() {\n"
       "  auto r = Fetch();\n"
       "  Consume(r.value());\n"
       "}\n",
       {"unchecked-value"}},
      {"ok() guard in scope is accepted", "src/x/use.cpp",
       "void Use() {\n"
       "  auto r = Fetch();\n"
       "  if (!r.ok()) return;\n"
       "  Consume(r.value());\n"
       "}\n",
       {}},
      {"guard in the previous function does not carry over", "src/x/use.cpp",
       "void A() {\n"
       "  if (!r.ok()) return;\n"
       "}\n"
       "void B() {\n"
       "  Consume(r.value());\n"
       "}\n",
       {"unchecked-value"}},
      {"value() in a string literal is ignored", "src/x/use.cpp",
       "void Doc() {\n"
       "  Log(\"call r.value() only after ok()\");\n"
       "}\n",
       {}},
      {"unchecked-value suppression works", "src/x/use.cpp",
       "void Use() {\n"
       "  Consume(r.value());  // xglint:allow(unchecked-value)\n"
       "}\n",
       {}},

      // --- naked-new -------------------------------------------------------
      {"naked new is flagged", "src/x/alloc.cpp",
       "void Alloc() {\n"
       "  auto* p = new Widget(1, 2);\n"
       "}\n",
       {"naked-new"}},
      {"new wrapped in unique_ptr across a line break is accepted",
       "src/x/alloc.cpp",
       "void Alloc() {\n"
       "  auto p = std::unique_ptr<Widget>(\n"
       "      new Widget(1, 2));\n"
       "}\n",
       {}},
      {"make_unique is accepted", "src/x/alloc.cpp",
       "void Alloc() {\n"
       "  auto p = std::make_unique<Widget>(1, 2);\n"
       "}\n",
       {}},
      {"new in a comment is ignored", "src/x/alloc.cpp",
       "// allocating with new Widget() here would leak\n"
       "void Alloc() {}\n",
       {}},

      // --- bool-send -------------------------------------------------------
      {"bool-returning Send declaration is flagged", "src/x/wire.hpp",
       "class Wire {\n"
       " public:\n"
       "  bool Send(const Frame& f);\n"
       "};\n",
       {"bool-send"}},
      {"qualified bool TrySend definition is flagged", "src/x/wire.cpp",
       "bool Wire::TrySend(Frame f) { return true; }\n",
       {"bool-send"}},
      {"SendCount is a near-miss, not a send API", "src/x/wire.hpp",
       "class Wire {\n"
       " public:\n"
       "  bool SendCountExceeded(int n);\n"
       "};\n",
       {}},
      {"bool Send in comments and strings is ignored", "src/x/wire.cpp",
       "// the old `bool Send(Frame)` API is gone\n"
       "const char* kDoc = \"bool Send(\";\n",
       {}},
      {"bool send outside src/ is out of scope", "tests/x/wire.hpp",
       "bool Send(const Frame& f);\n",
       {}},

      // --- include-hygiene -------------------------------------------------
      {"parent-relative include is flagged", "src/x/a.cpp",
       "#include \"../common/sim.hpp\"\n",
       {"include-hygiene"}},
      {"project-root-relative include is accepted", "src/x/a.cpp",
       "#include \"common/sim.hpp\"\n",
       {}},

      // --- wall-clock ------------------------------------------------------
      {"steady_clock outside the sim is flagged", "src/x/t.cpp",
       "void Mark() {\n"
       "  auto t = std::chrono::steady_clock::now();\n"
       "}\n",
       {"wall-clock"}},
      {"the simulation clock source is exempt", "src/common/sim.cpp",
       "void Tick() {\n"
       "  auto t = std::chrono::steady_clock::now();\n"
       "}\n",
       {}},
      {"the linter's own directory is exempt", "tools/xglint/lexer.cpp",
       "void Mark() {\n"
       "  auto t = std::chrono::steady_clock::now();\n"
       "}\n",
       {}},
      {"clock tokens in strings and comments are ignored", "src/x/t.cpp",
       "// system_clock is banned here\n"
       "const char* kMsg = \"steady_clock\";\n",
       {}},

      // --- unannotated-mutex -----------------------------------------------
      {"std::mutex member is flagged", "src/x/reg.hpp",
       "class Registry {\n"
       " private:\n"
       "  std::mutex mu_;\n"
       "};\n",
       {"unannotated-mutex"}},
      {"raw sync header include is flagged", "src/x/reg.hpp",
       "#include <mutex>\n",
       {"unannotated-mutex"}},
      {"std::lock_guard over std::mutex is flagged twice", "src/x/reg.cpp",
       "void Touch() {\n"
       "  std::lock_guard<std::mutex> lk(mu_);\n"
       "}\n",
       {"unannotated-mutex", "unannotated-mutex"}},
      {"xg::Mutex member is the annotated vocabulary", "src/x/reg.hpp",
       "class Registry {\n"
       " private:\n"
       "  mutable Mutex mu_;\n"
       "  uint64_t count_ XG_GUARDED_BY(mu_) = 0;\n"
       "};\n",
       {}},
      {"unannotated-mutex suppression works (the shim itself)",
       "src/common/x.hpp",
       "class Shim {\n"
       " private:\n"
       "  std::mutex mu_;  // xglint:allow(unannotated-mutex)\n"
       "};\n",
       {}},
      {"std::mutex in a comment or string is ignored", "src/x/reg.hpp",
       "// a std::mutex here would be invisible to the analysis\n"
       "const char* kNote = \"std::mutex\";\n",
       {}},
      {"raw mutex outside src/ is out of scope", "tests/x/reg.hpp",
       "std::mutex mu;\n",
       {}},

      // --- hash-order ------------------------------------------------------
      {"unordered_map iteration into a stream is flagged", "src/x/dump.cpp",
       "void Dump(const std::unordered_map<std::string, int>& counts) {\n"
       "  for (const auto& kv : counts) {\n"
       "    out << kv.first << \"=\" << kv.second;\n"
       "  }\n"
       "}\n",
       {"hash-order"}},
      {"unordered_set iteration into push_back is flagged", "src/x/dump.cpp",
       "void Collect(const std::unordered_set<int>& live) {\n"
       "  for (int id : live) {\n"
       "    order.push_back(id);\n"
       "  }\n"
       "}\n",
       {"hash-order"}},
      {"order-independent accumulation over unordered_map is accepted",
       "src/x/sum.cpp",
       "int Sum(const std::unordered_map<std::string, int>& counts) {\n"
       "  int total = 0;\n"
       "  for (const auto& kv : counts) {\n"
       "    total += kv.second;\n"
       "  }\n"
       "  return total;\n"
       "}\n",
       {}},
      {"iterating a std::map is ordered and accepted", "src/x/dump.cpp",
       "void Dump(const std::map<std::string, int>& counts) {\n"
       "  for (const auto& kv : counts) {\n"
       "    out << kv.first;\n"
       "  }\n"
       "}\n",
       {}},
      {"hash-order suppression works", "src/x/dump.cpp",
       "void Dump(const std::unordered_map<std::string, int>& counts) {\n"
       "  // xglint:allow(hash-order)\n"
       "  for (const auto& kv : counts) {\n"
       "    out << kv.first;\n"
       "  }\n"
       "}\n",
       {}},

      // --- unseeded-rng ----------------------------------------------------
      {"raw mt19937 under src/ is flagged", "src/x/jitter.cpp",
       "void Jitter() {\n"
       "  std::mt19937 gen;\n"
       "}\n",
       {"unseeded-rng"}},
      {"random_device seeding is flagged along with the engine",
       "src/x/jitter.cpp",
       "void Jitter() {\n"
       "  std::mt19937 gen(std::random_device{}());\n"
       "}\n",
       {"unseeded-rng", "unseeded-rng"}},
      {"the seed-discipline implementation is exempt", "src/common/rng.hpp",
       "class Rng {\n"
       "  std::mt19937_64 engine_;\n"
       "};\n",
       {}},
      {"rng outside src/ is out of scope", "tests/x/jitter.cpp",
       "std::mt19937 gen(std::random_device{}());\n",
       {}},

      // --- raw-thread ------------------------------------------------------
      {"std::thread outside the pool is flagged", "src/x/bg.cpp",
       "void Start() {\n"
       "  std::thread t(Run);\n"
       "  t.join();\n"
       "}\n",
       {"raw-thread"}},
      {"detach is flagged", "src/x/bg.cpp",
       "void Start() {\n"
       "  worker.detach();\n"
       "}\n",
       {"raw-thread"}},
      {"the pool implementation is exempt", "src/common/threadpool.cpp",
       "void Spawn() {\n"
       "  workers_.emplace_back(std::thread(Run));\n"
       "}\n",
       {}},
      {"std::this_thread is not a thread creation", "src/x/bg.cpp",
       "void Id() {\n"
       "  auto id = std::this_thread::get_id();\n"
       "}\n",
       {}},

      // --- confined-static -------------------------------------------------
      {"static SampleSet is shared unguarded state", "src/x/meter.cpp",
       "static SampleSet g_latency;\n",
       {"confined-static"}},
      {"static qualified accumulator with initializer is flagged",
       "src/x/meter.cpp",
       "static xg::RunningStats g_stats = {};\n",
       {"confined-static"}},
      {"function-local accumulator is confined and accepted",
       "src/x/meter.cpp",
       "void Measure() {\n"
       "  SampleSet local;\n"
       "  local.Add(1.0);\n"
       "}\n",
       {}},
      {"static factory returning an accumulator is not an instance",
       "src/x/meter.hpp",
       "class Meter {\n"
       "  static SampleSet MakeDefault();\n"
       "};\n",
       {}},
      {"static atomic obs::Histogram is not a confined accumulator",
       "src/x/meter.cpp",
       "static Histogram g_latency;\n",
       {}},
      {"static accumulator outside src/ is out of scope", "bench/x/meter.cpp",
       "static SampleSet g_latency;\n",
       {}},

      // --- unbounded-queue -------------------------------------------------
      {"queue in a backpressure tier with no named bound is flagged",
       "src/serve/relay.hpp",
       "class Relay {\n"
       " private:\n"
       "  std::deque<Frame> pending_;\n"
       "};\n",
       {"unbounded-queue"}},
      {"std::queue under src/resil without a bound is flagged",
       "src/resil/buffer.hpp",
       "class Buffer {\n"
       " private:\n"
       "  std::queue<Frame> frames_;\n"
       "};\n",
       {"unbounded-queue"}},
      {"a named capacity in the same file is accepted", "src/serve/relay.hpp",
       "class Relay {\n"
       " public:\n"
       "  size_t capacity() const { return cap_; }\n"
       " private:\n"
       "  std::deque<Frame> pending_;\n"
       "  size_t cap_ = 0;\n"
       "};\n",
       {}},
      {"a config max_* member counts as the bound", "src/serve/relay.hpp",
       "struct RelayConfig {\n"
       "  size_t max_pending = 8;\n"
       "};\n"
       "class Relay {\n"
       " private:\n"
       "  std::deque<Frame> pending_;\n"
       "};\n",
       {}},
      {"a sliding-window size counts as the bound", "src/resil/probe.hpp",
       "class Probe {\n"
       " private:\n"
       "  int window = 32;\n"
       "  std::deque<int64_t> intervals_us_;\n"
       "};\n",
       {}},
      {"a project Queue type is not std's", "src/serve/relay.hpp",
       "class Relay {\n"
       " private:\n"
       "  ring::queue<Frame> pending_;\n"
       "};\n",
       {}},
      {"deque outside the backpressure tiers is out of scope",
       "src/cspot/wan.cpp",
       "void Bfs() {\n"
       "  std::deque<std::string> frontier;\n"
       "}\n",
       {}},
      {"unbounded-queue suppression works", "src/serve/relay.hpp",
       "class Relay {\n"
       " private:\n"
       "  std::deque<Frame> pending_;  // xglint:allow(unbounded-queue)\n"
       "};\n",
       {}},
      {"deque named in a comment is ignored", "src/serve/relay.hpp",
       "// a std::deque<Frame> here would need a cap\n"
       "class Relay {};\n",
       {}},

      // --- lexer regressions -----------------------------------------------
      {"raw string contents are opaque to every rule", "src/x/doc.cpp",
       "const char* kHelp = R\"x(std::mutex sleep_for while (true) "
       "Send( new Widget() r.value() steady_clock)x\";\n",
       {}},
      {"block comment spanning lines is opaque", "src/x/doc.cpp",
       "/* std::mutex mu_;\n"
       "   usleep(1);\n"
       "   bool Send(Frame); */\n"
       "void Nop() {}\n",
       {}},
      {"suppression inside a block comment applies to its line",
       "src/x/reg.hpp",
       "class Registry {\n"
       "  std::mutex mu_; /* xglint:allow(unannotated-mutex) */\n"
       "};\n",
       {}},
  };
  return cases;
}

}  // namespace

int RunSelfTest() {
  size_t failures = 0;
  for (const SelfTestCase& tc : Cases()) {
    std::vector<std::string> got;
    LintSourceForTest(tc.path, tc.source, got);
    if (got != tc.expect) {
      ++failures;
      std::fprintf(stderr, "self-test FAIL: %s\n  expected:", tc.name);
      for (const auto& r : tc.expect) std::fprintf(stderr, " %s", r.c_str());
      std::fprintf(stderr, "\n  got:     ");
      for (const auto& r : got) std::fprintf(stderr, " %s", r.c_str());
      std::fprintf(stderr, "\n");
    }
  }
  std::fprintf(stderr, "xglint --self-test: %zu case(s), %zu failure(s)\n",
               Cases().size(), failures);
  return failures == 0 ? 0 : 1;
}
