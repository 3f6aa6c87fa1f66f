// xglint v2: project-specific correctness linter for the xGFabric tree,
// now a lexeme-stream analyzer (see lexer.hpp) instead of per-line regex
// matching. Tokens carry line/column positions; string and character
// literals are opaque; comments never reach the rules (their
// `xglint:allow` markers land in a suppression table); preprocessor
// directives are single tokens. Rules therefore survive clang-format
// rewrapping and never fire inside literals or comments.
//
// Rules (see DESIGN.md section 13 for the full catalog and rationale):
//
//   unchecked-value   `.value()` on a Result/optional without a guard
//                     (`ok(`, `has_value(`, `initialized(`, an assertion,
//                     or an XG_REQUIRE/XG_ENSURE) earlier in the same
//                     function. Scope: src/ and tools/.
//   naked-new         `new` whose result is not owned by a smart pointer
//                     within the same statement. The tree has no manual
//                     delete calls; a naked new is a leak.
//   include-hygiene   quoted includes must be project-root-relative: no
//                     `..` path segments.
//   wall-clock        no wall-clock time sources outside src/common/sim.*,
//                     bench_* harnesses, and this linter's own directory;
//                     everything else runs on the virtual clock.
//   bool-send         no bool-returning send APIs under src/; transports
//                     report through [[nodiscard]] Status / Result<T>.
//   unbounded-retry   `while (true)` / `for (;;)` around a send/append
//                     under src/ with no attempt cap or deadline; use
//                     resil::RetryPolicy (src/resil/policy.hpp).
//   raw-sleep         sleep()/usleep()/sleep_for under src/; schedule a
//                     continuation on sim::Simulation instead.
//   stage-stamp       no ad-hoc `Now() - t0` latency deltas in pipeline
//                     code under src/; stamp the deadline ledger
//                     (obs::slo::LatencyLedger::Stamp).
//   unannotated-mutex raw std::mutex / lock_guard / condition_variable
//                     (or their headers) under src/: invisible to clang
//                     Thread Safety Analysis. Use xg::Mutex / MutexLock /
//                     CondVar from common/mutex.hpp and annotate shared
//                     fields XG_GUARDED_BY.
//   hash-order        range-for over a std::unordered_{map,set} declared
//                     in the same file, feeding an output/ordering sink
//                     (stream insert, printf family, push_back/append,
//                     hashing) — iteration order is libstdc++-version
//                     dependent, so emitted order is nondeterministic.
//   unseeded-rng      std::random_device or a raw standard engine
//                     (mt19937 etc.) under src/ outside common/rng.*:
//                     every stream must derive from xg::Rng with a
//                     plan-provided seed for bit-for-bit reproducibility.
//   raw-thread        std::thread/jthread or .detach() under src/ outside
//                     common/threadpool.*: threads outside the pool
//                     escape shutdown ordering and TSan coverage.
//   confined-static   `static` instances of the XG_SIM_THREAD_CONFINED
//                     accumulators (RunningStats, SampleSet, Ewma) under
//                     src/: a static accumulator is shared state without
//                     a lock. Accumulate per-thread and Merge() on one
//                     thread.
//   unbounded-queue   std::deque / std::queue / std::priority_queue
//                     declared in the backpressure tiers (src/serve,
//                     src/resil) in a file that never names a bound
//                     (capacity / max_* / limit / bound / window): every
//                     queue in the overload path must state what stops it
//                     from growing.
//
// Suppress a finding with `// xglint:allow(rule-name)` on the finding
// line or on the line directly above (for wrapped statements). Every
// rule honors both placements.
//
// Usage: xglint <dir-or-file>... ; exits non-zero if any finding remains.
//        xglint --self-test      ; run the embedded rule fixtures.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace fs = std::filesystem;

namespace {

using xglint::LexResult;
using xglint::TokKind;
using xglint::Token;

struct Finding {
  std::string file;
  size_t line;
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

bool HasComponent(const fs::path& p, const char* name) {
  for (const auto& part : p) {
    if (part == name) return true;
  }
  return false;
}

bool InSrc(const fs::path& p) { return HasComponent(p, "src"); }
bool InObs(const fs::path& p) { return HasComponent(p, "obs"); }

/// `.value()` is the Result accessor under src/ and tools/; test code also
/// exercises plain value() accessors the textual rule cannot distinguish.
bool InStrictValueScope(const fs::path& p) {
  return HasComponent(p, "src") || HasComponent(p, "tools");
}

bool IsWallClockExempt(const fs::path& p) {
  // The simulation clock itself may touch host facilities; benchmarks
  // measure host elapsed time by design; the linter's own directory holds
  // fixtures that mention clock tokens.
  const std::string fname = p.filename().string();
  return fname == "sim.hpp" || fname == "sim.cpp" ||
         fname.rfind("bench_", 0) == 0 || HasComponent(p, "xglint");
}

bool IsRngExempt(const fs::path& p) {
  // common/rng.* is the seed-discipline implementation.
  const std::string fname = p.filename().string();
  return fname == "rng.hpp" || fname == "rng.cpp";
}

bool IsThreadExempt(const fs::path& p) {
  // The pool is the one sanctioned std::thread owner.
  const std::string fname = p.filename().string();
  return fname == "threadpool.hpp" || fname == "threadpool.cpp";
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

bool IsIdent(const Token& t, const char* s) {
  return t.kind == TokKind::kIdent && t.text == s;
}

bool IsPunct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool ContainsAny(const std::string& s, const std::vector<const char*>& subs) {
  for (const char* sub : subs) {
    if (s.find(sub) != std::string::npos) return true;
  }
  return false;
}

/// First token index of the statement containing `i`: walks back to just
/// past the nearest `;`, `{` or `}`.
size_t StmtBegin(const std::vector<Token>& toks, size_t i) {
  while (i > 0) {
    const Token& t = toks[i - 1];
    if (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}")) break;
    --i;
  }
  return i;
}

/// Last token index (inclusive) of the statement containing `i`: walks
/// forward to the nearest `;` (or the last token).
size_t StmtEnd(const std::vector<Token>& toks, size_t i) {
  while (i + 1 < toks.size() && !IsPunct(toks[i], ";")) ++i;
  return i;
}

/// One rule invocation's shared context.
struct Ctx {
  const fs::path& path;
  const LexResult& lex;
  std::vector<Finding>* findings;

  void Report(size_t line, const char* rule, std::string message) const {
    if (xglint::SuppressedAt(lex, line, rule)) return;
    findings->push_back({path.string(), line, rule, std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// Rules (ported from v1)
// ---------------------------------------------------------------------------

/// Bound on how far back the guard search walks, in source lines: beyond
/// a screenful the guard no longer obviously covers the access.
constexpr size_t kGuardLookbackLines = 40;

bool HasGuardBefore(const std::vector<Token>& toks, size_t idx) {
  static const std::set<std::string> kCallGuards = {"ok", "has_value",
                                                    "initialized"};
  static const std::set<std::string> kMacroGuards = {
      "ASSERT_TRUE", "EXPECT_TRUE", "XG_REQUIRE", "XG_ENSURE"};
  const size_t call_line = toks[idx].line;
  for (size_t k = idx; k-- > 0;) {
    const Token& t = toks[k];
    if (t.line + kGuardLookbackLines < call_line) break;
    // A `}` in column 1 closes a function: the guard search never crosses
    // into the previous function body.
    if (IsPunct(t, "}") && t.col == 1) break;
    if (t.kind != TokKind::kIdent) continue;
    if (kMacroGuards.count(t.text) != 0) return true;
    if (kCallGuards.count(t.text) != 0 && k + 1 < toks.size() &&
        IsPunct(toks[k + 1], "(")) {
      return true;
    }
  }
  return false;
}

void RuleUncheckedValue(const Ctx& ctx) {
  if (!InStrictValueScope(ctx.path)) return;
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!IsPunct(toks[i], ".") || !IsIdent(toks[i + 1], "value") ||
        !IsPunct(toks[i + 2], "(") || !IsPunct(toks[i + 3], ")")) {
      continue;
    }
    if (!HasGuardBefore(toks, i)) {
      ctx.Report(toks[i].line, "unchecked-value",
                 ".value() without a preceding ok()/has_value() guard in "
                 "scope");
    }
  }
}

void RuleNakedNew(const Ctx& ctx) {
  static const std::set<std::string> kOwners = {"unique_ptr", "shared_ptr",
                                                "make_unique", "make_shared"};
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "new")) continue;
    if (i > 0 && IsIdent(toks[i - 1], "operator")) continue;
    const Token& next = toks[i + 1];
    // Must allocate a named type; `new (`placement and expression ends
    // are not our pattern.
    if (next.kind != TokKind::kIdent && !IsPunct(next, "::")) continue;
    bool owned = false;
    const size_t begin = StmtBegin(toks, i);
    const size_t end = StmtEnd(toks, i);
    for (size_t k = begin; k <= end && k < toks.size(); ++k) {
      if (toks[k].kind == TokKind::kIdent && kOwners.count(toks[k].text)) {
        owned = true;
        break;
      }
    }
    if (!owned) {
      ctx.Report(toks[i].line, "naked-new",
                 "new without smart-pointer ownership in the same statement");
    }
  }
}

void RuleBoolSend(const Ctx& ctx) {
  if (!InSrc(ctx.path)) return;
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "bool")) continue;
    // Accept a (possibly class-qualified) identifier chain, then '('.
    size_t j = i + 1;
    std::string last;
    while (j < toks.size()) {
      if (toks[j].kind == TokKind::kIdent) {
        last = toks[j].text;
        ++j;
        if (j < toks.size() && IsPunct(toks[j], "::")) {
          ++j;
          continue;
        }
      }
      break;
    }
    if (last.empty() || j >= toks.size() || !IsPunct(toks[j], "(")) continue;
    if (EndsWith(last, "Send")) {
      ctx.Report(toks[i].line, "bool-send",
                 "bool-returning send API; return [[nodiscard]] "
                 "Status/Result<T> (see src/fault/outcome.hpp) so failures "
                 "cannot be dropped");
    }
  }
}

void RuleIncludeHygiene(const Ctx& ctx) {
  for (const Token& t : ctx.lex.tokens) {
    if (t.kind != TokKind::kDirective) continue;
    if (t.text.find("include") == std::string::npos) continue;
    const size_t q1 = t.text.find('"');
    if (q1 == std::string::npos) continue;
    const size_t q2 = t.text.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    const std::string inc = t.text.substr(q1 + 1, q2 - q1 - 1);
    if (inc.find("..") != std::string::npos) {
      ctx.Report(t.line, "include-hygiene",
                 "parent-relative include; use a project-root-relative "
                 "path: " +
                     inc);
    }
  }
}

void RuleWallClock(const Ctx& ctx) {
  if (IsWallClockExempt(ctx.path)) return;
  static const std::set<std::string> kClockIdents = {
      "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday",
      "clock_gettime"};
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (kClockIdents.count(t.text) != 0) {
      ctx.Report(t.line, "wall-clock",
                 t.text + " outside src/common/sim.*: use the virtual clock");
      continue;
    }
    // std::time( — the bare identifier `time` is too common to flag alone.
    if (t.text == "time" && i >= 2 && IsPunct(toks[i - 1], "::") &&
        IsIdent(toks[i - 2], "std") && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "(")) {
      ctx.Report(t.line, "wall-clock",
                 "std::time( outside src/common/sim.*: use the virtual "
                 "clock");
    }
  }
}

/// Loop bodies are judged on a bounded window: a loop longer than this
/// many lines is judged on its visible prefix.
constexpr size_t kLoopBodyLineCap = 80;

/// Returns the token range (begin inclusive, end exclusive) of the loop
/// body opening at or after `head`, by brace matching.
std::pair<size_t, size_t> LoopBodyRange(const std::vector<Token>& toks,
                                        size_t head) {
  size_t open = head;
  while (open < toks.size() && !IsPunct(toks[open], "{")) ++open;
  if (open == toks.size()) return {open, open};
  const size_t head_line = toks[head].line;
  int depth = 0;
  for (size_t k = open; k < toks.size(); ++k) {
    if (toks[k].line > head_line + kLoopBodyLineCap) return {open + 1, k};
    if (IsPunct(toks[k], "{")) ++depth;
    else if (IsPunct(toks[k], "}")) {
      if (--depth == 0) return {open + 1, k};
    }
  }
  return {open + 1, toks.size()};
}

void RuleUnboundedRetry(const Ctx& ctx) {
  if (!InSrc(ctx.path)) return;
  static const std::vector<const char*> kBoundMarks = {
      "attempt", "Attempt", "deadline", "Deadline",
      "budget",  "RetryPolicy", "max_tries"};
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i + 4 < toks.size(); ++i) {
    const bool spin_while =
        IsIdent(toks[i], "while") && IsPunct(toks[i + 1], "(") &&
        IsIdent(toks[i + 2], "true") && IsPunct(toks[i + 3], ")");
    const bool spin_for =
        IsIdent(toks[i], "for") && IsPunct(toks[i + 1], "(") &&
        IsPunct(toks[i + 2], ";") && IsPunct(toks[i + 3], ";") &&
        IsPunct(toks[i + 4], ")");
    if (!spin_while && !spin_for) continue;
    const auto [body_begin, body_end] = LoopBodyRange(toks, i);
    bool sends = false;
    bool bounded = false;
    for (size_t k = i; k < body_end && k < toks.size(); ++k) {
      const Token& t = toks[k];
      if (t.kind != TokKind::kIdent) continue;
      if (k >= body_begin && k + 1 < toks.size() &&
          IsPunct(toks[k + 1], "(") &&
          (EndsWith(t.text, "Send") || EndsWith(t.text, "Append") ||
           EndsWith(t.text, "Replicate"))) {
        sends = true;
      }
      if (ContainsAny(t.text, kBoundMarks)) bounded = true;
    }
    if (sends && !bounded) {
      ctx.Report(toks[i].line, "unbounded-retry",
                 "unconditional loop around a send/append with no attempt "
                 "cap or deadline; drive retries through resil::RetryPolicy "
                 "(src/resil/policy.hpp)");
    }
  }
}

void RuleRawSleep(const Ctx& ctx) {
  if (!InSrc(ctx.path)) return;
  static const std::set<std::string> kSleepCalls = {"sleep_for", "sleep_until",
                                                    "usleep", "nanosleep"};
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || !IsPunct(toks[i + 1], "(")) continue;
    const bool named_sleep = kSleepCalls.count(t.text) != 0;
    const bool posix_sleep =
        t.text == "sleep" && i > 0 && IsPunct(toks[i - 1], "::");
    if (named_sleep || posix_sleep) {
      ctx.Report(t.line, "raw-sleep",
                 t.text + "( under src/: host sleeps stall the worker "
                          "without advancing virtual time; schedule a "
                          "continuation on sim::Simulation instead");
    }
  }
}

void RuleStageStamp(const Ctx& ctx) {
  // The obs layer computes deltas from stamped values and is exempt (the
  // ledger only receives timestamps, never calls Now()).
  if (!InSrc(ctx.path) || InObs(ctx.path)) return;
  static const std::set<std::string> kUnits = {"micros", "millis", "seconds",
                                               "nanos"};
  static const std::vector<const char*> kSinks = {"latency", "elapsed"};
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "Now") || !IsPunct(toks[i + 1], "(") ||
        !IsPunct(toks[i + 2], ")")) {
      continue;
    }
    // Optional unit accessor chain: Now().micros() etc.
    size_t j = i + 3;
    if (j + 3 < toks.size() && IsPunct(toks[j], ".") &&
        toks[j + 1].kind == TokKind::kIdent && kUnits.count(toks[j + 1].text) &&
        IsPunct(toks[j + 2], "(") && IsPunct(toks[j + 3], ")")) {
      j += 4;
    }
    if (j >= toks.size() || !IsPunct(toks[j], "-")) continue;
    // The delta is a stage measurement only when it feeds a latency /
    // elapsed variable somewhere in the same statement.
    bool latency_sink = false;
    const size_t begin = StmtBegin(toks, i);
    const size_t end = StmtEnd(toks, i);
    for (size_t k = begin; k <= end && k < toks.size(); ++k) {
      if (toks[k].kind == TokKind::kIdent &&
          ContainsAny(toks[k].text, kSinks)) {
        latency_sink = true;
        break;
      }
    }
    if (latency_sink) {
      ctx.Report(toks[i].line, "stage-stamp",
                 "ad-hoc stage-boundary Now() delta; stamp the deadline "
                 "ledger (obs::slo::LatencyLedger::Stamp) so the delta lands "
                 "in the per-stage budget decomposition");
    }
  }
}

// ---------------------------------------------------------------------------
// Rules (new in v2: concurrency & determinism)
// ---------------------------------------------------------------------------

void RuleUnannotatedMutex(const Ctx& ctx) {
  if (!InSrc(ctx.path)) return;
  static const std::set<std::string> kRawSync = {
      "mutex",          "recursive_mutex",    "timed_mutex",
      "shared_mutex",   "shared_timed_mutex", "recursive_timed_mutex",
      "lock_guard",     "unique_lock",        "scoped_lock",
      "shared_lock",    "condition_variable", "condition_variable_any"};
  static const std::vector<const char*> kRawHeaders = {
      "<mutex>", "<condition_variable>", "<shared_mutex>"};
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kDirective &&
        t.text.find("include") != std::string::npos &&
        ContainsAny(t.text, kRawHeaders)) {
      ctx.Report(t.line, "unannotated-mutex",
                 "raw synchronization header under src/; include "
                 "common/mutex.hpp instead so locking is visible to clang "
                 "thread-safety analysis");
      continue;
    }
    if (t.kind == TokKind::kIdent && kRawSync.count(t.text) != 0 && i >= 2 &&
        IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std")) {
      ctx.Report(t.line, "unannotated-mutex",
                 "std::" + t.text +
                     " is invisible to thread-safety analysis; use "
                     "xg::Mutex / xg::MutexLock / xg::CondVar "
                     "(common/mutex.hpp) and annotate shared fields "
                     "XG_GUARDED_BY");
    }
  }
}

void RuleHashOrder(const Ctx& ctx) {
  if (!InSrc(ctx.path)) return;
  static const std::set<std::string> kUnorderedTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  static const std::set<std::string> kSinkCalls = {
      "printf", "fprintf", "snprintf", "push_back",
      "emplace_back", "append", "Append", "Format"};
  const auto& toks = ctx.lex.tokens;

  // Pass A: names declared (members, locals, parameters) with an
  // unordered container type in this file.
  std::set<std::string> unordered_names;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        kUnorderedTypes.count(toks[i].text) == 0 ||
        !IsPunct(toks[i + 1], "<")) {
      continue;
    }
    // Match the template argument list (">>" closes two levels).
    int depth = 0;
    size_t k = i + 1;
    for (; k < toks.size() && k < i + 120; ++k) {
      if (IsPunct(toks[k], "<")) ++depth;
      else if (IsPunct(toks[k], ">")) --depth;
      else if (IsPunct(toks[k], ">>")) depth -= 2;
      if (depth <= 0 && k > i + 1) break;
    }
    // Skip declarator decorations, then take the declared name.
    ++k;
    while (k < toks.size() &&
           (IsPunct(toks[k], "&") || IsPunct(toks[k], "*") ||
            IsIdent(toks[k], "const"))) {
      ++k;
    }
    if (k < toks.size() && toks[k].kind == TokKind::kIdent) {
      unordered_names.insert(toks[k].text);
    }
  }
  if (unordered_names.empty()) return;

  // Pass B: range-for statements whose range expression names one of the
  // declared containers, with an ordering-sensitive sink in the body.
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "for") || !IsPunct(toks[i + 1], "(")) continue;
    int depth = 0;
    size_t colon = 0;
    size_t close = 0;
    for (size_t k = i + 1; k < toks.size() && k < i + 80; ++k) {
      if (IsPunct(toks[k], "(")) ++depth;
      else if (IsPunct(toks[k], ")")) {
        if (--depth == 0) {
          close = k;
          break;
        }
      } else if (depth == 1 && IsPunct(toks[k], ":") && colon == 0) {
        colon = k;
      }
    }
    if (colon == 0 || close == 0) continue;  // not a range-for
    // The range expression's final identifier (handles `obj.member_`).
    std::string range_name;
    for (size_t k = colon + 1; k < close; ++k) {
      if (toks[k].kind == TokKind::kIdent) range_name = toks[k].text;
    }
    if (unordered_names.count(range_name) == 0) continue;
    const auto [body_begin, body_end] = LoopBodyRange(toks, close);
    bool sink = false;
    for (size_t k = body_begin; k < body_end && k < toks.size(); ++k) {
      const Token& t = toks[k];
      if (IsPunct(t, "<<")) sink = true;
      if (t.kind != TokKind::kIdent) continue;
      if (kSinkCalls.count(t.text) != 0 && k + 1 < toks.size() &&
          IsPunct(toks[k + 1], "(")) {
        sink = true;
      }
      if (t.text.find("hash") != std::string::npos ||
          t.text.find("Hash") != std::string::npos) {
        sink = true;
      }
    }
    if (sink) {
      ctx.Report(toks[i].line, "hash-order",
                 "iterating unordered container '" + range_name +
                     "' into an output/ordering sink: iteration order is "
                     "implementation-defined; iterate a sorted view "
                     "(std::map or sorted keys) so emitted order is "
                     "deterministic");
    }
  }
}

void RuleUnseededRng(const Ctx& ctx) {
  if (!InSrc(ctx.path) || IsRngExempt(ctx.path)) return;
  static const std::set<std::string> kRawEngines = {
      "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48"};
  for (const Token& t : ctx.lex.tokens) {
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "random_device") {
      ctx.Report(t.line, "unseeded-rng",
                 "std::random_device injects nondeterminism; derive every "
                 "stream from xg::Rng (common/rng.hpp) with a plan-provided "
                 "seed");
    } else if (kRawEngines.count(t.text) != 0) {
      ctx.Report(t.line, "unseeded-rng",
                 "raw standard engine '" + t.text +
                     "' under src/: draw from xg::Rng (common/rng.hpp) so "
                     "every stream traces to the experiment seed");
    }
  }
}

void RuleRawThread(const Ctx& ctx) {
  if (!InSrc(ctx.path) || IsThreadExempt(ctx.path)) return;
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if ((t.text == "thread" || t.text == "jthread") && i >= 2 &&
        IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std")) {
      ctx.Report(t.line, "raw-thread",
                 "std::" + t.text +
                     " outside common/threadpool.*: threads created outside "
                     "the pool escape shutdown ordering; dispatch through "
                     "xg::ThreadPool");
      continue;
    }
    if (t.text == "detach" && i > 0 &&
        (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->")) &&
        i + 1 < toks.size() && IsPunct(toks[i + 1], "(")) {
      ctx.Report(t.line, "raw-thread",
                 "detached thread under src/: a detached thread outlives "
                 "shutdown and races teardown; join through xg::ThreadPool");
    }
  }
}

void RuleConfinedStatic(const Ctx& ctx) {
  if (!InSrc(ctx.path)) return;
  static const std::set<std::string> kConfinedTypes = {
      "RunningStats", "SampleSet", "Ewma"};
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "static")) continue;
    size_t j = i + 1;
    while (j < toks.size() && IsIdent(toks[j], "const")) ++j;
    if (j + 1 < toks.size() && IsIdent(toks[j], "xg") &&
        IsPunct(toks[j + 1], "::")) {
      j += 2;
    }
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent ||
        kConfinedTypes.count(toks[j].text) == 0) {
      continue;
    }
    const std::string type = toks[j].text;
    ++j;  // declared name
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
    // `static Histogram MakeH();` declares a function, not shared state;
    // only initializer-or-terminator forms are instance declarations.
    if (j + 1 < toks.size() &&
        !(IsPunct(toks[j + 1], ";") || IsPunct(toks[j + 1], "=") ||
          IsPunct(toks[j + 1], "{"))) {
      continue;
    }
    ctx.Report(toks[i].line, "confined-static",
               "static " + type +
                   " is shared, unguarded state: the stats accumulators are "
                   "XG_SIM_THREAD_CONFINED (common/stats.hpp); accumulate "
                   "per-thread and Merge() on one thread");
  }
}

/// The backpressure tiers: every queue here sits on the overload path, so
/// an unbounded one converts a load spike into unbounded memory and
/// unbounded latency (the failure mode admission control exists to stop).
bool InBackpressureScope(const fs::path& p) {
  return HasComponent(p, "serve") || HasComponent(p, "resil");
}

void RuleUnboundedQueue(const Ctx& ctx) {
  if (!InSrc(ctx.path) || !InBackpressureScope(ctx.path)) return;
  static const std::set<std::string> kQueueTypes = {"deque", "queue",
                                                    "priority_queue"};
  static const std::vector<const char*> kBoundMarks = {
      "capacity", "max_", "Max", "limit", "Limit", "bound", "window"};
  const auto& toks = ctx.lex.tokens;
  // The bound check is file-local: a queue's cap lives in the same header
  // (a config member like max_pending_flights, a capacity() accessor, a
  // sliding-window size). A file that declares a queue but never names a
  // bound has nothing enforcing one.
  bool names_a_bound = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdent && ContainsAny(t.text, kBoundMarks)) {
      names_a_bound = true;
      break;
    }
  }
  if (names_a_bound) return;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        kQueueTypes.count(toks[i].text) == 0 || !IsPunct(toks[i + 1], "<")) {
      continue;
    }
    // Require std:: qualification so project types named e.g. Queue or a
    // `queue` local of a bounded project type stay out of scope.
    if (i < 2 || !IsPunct(toks[i - 1], "::") || !IsIdent(toks[i - 2], "std")) {
      continue;
    }
    ctx.Report(toks[i].line, "unbounded-queue",
               "std::" + toks[i].text +
                   " in a backpressure tier with no named bound in this "
                   "file; state the capacity that stops it from growing "
                   "(config max_*, capacity(), window size) and enforce it "
                   "where elements are pushed");
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

void LintSource(const std::string& path_str, const std::string& raw,
                std::vector<Finding>& findings) {
  const fs::path path(path_str);
  const LexResult lex = xglint::Lex(raw);
  const size_t first = findings.size();
  const Ctx ctx{path, lex, &findings};
  RuleUncheckedValue(ctx);
  RuleNakedNew(ctx);
  RuleBoolSend(ctx);
  RuleIncludeHygiene(ctx);
  RuleWallClock(ctx);
  RuleUnboundedRetry(ctx);
  RuleRawSleep(ctx);
  RuleStageStamp(ctx);
  RuleUnannotatedMutex(ctx);
  RuleHashOrder(ctx);
  RuleUnseededRng(ctx);
  RuleRawThread(ctx);
  RuleConfinedStatic(ctx);
  RuleUnboundedQueue(ctx);
  // Rules run sequentially; present this file's findings in line order
  // (stable, so same-line findings keep the rule-registration order).
  std::stable_sort(findings.begin() + static_cast<long>(first), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
}

void LintFile(const fs::path& path, std::vector<Finding>& findings) {
  std::ifstream in(path);
  if (!in) {
    findings.push_back({path.string(), 0, "io", "cannot read file"});
    return;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  LintSource(path.string(), buf.str(), findings);
}

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

}  // namespace

// Self-test fixtures live in their own translation unit (selftest.cpp).
int RunSelfTest();
void LintSourceForTest(const std::string& path, const std::string& source,
                       std::vector<std::string>& rules) {
  std::vector<Finding> findings;
  LintSource(path, source, findings);
  for (const Finding& f : findings) rules.push_back(f.rule);
}

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") {
    return RunSelfTest();
  }
  if (argc < 2) {
    std::fprintf(stderr, "usage: xglint <dir-or-file>... | --self-test\n");
    return 2;
  }
  std::vector<Finding> findings;
  size_t files = 0;
  for (int a = 1; a < argc; ++a) {
    const fs::path root(argv[a]);
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      ++files;
      LintFile(root, findings);
      continue;
    }
    if (!fs::is_directory(root, ec)) {
      std::fprintf(stderr, "xglint: no such path: %s\n", argv[a]);
      return 2;
    }
    for (fs::recursive_directory_iterator it(root), end; it != end; ++it) {
      if (it->is_regular_file() && IsSourceFile(it->path())) {
        ++files;
        LintFile(it->path(), findings);
      }
    }
  }
  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  std::fprintf(stderr, "xglint: %zu file(s), %zu finding(s)\n", files,
               findings.size());
  return findings.empty() ? 0 : 1;
}
