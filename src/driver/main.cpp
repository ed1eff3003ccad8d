// The ifko command-line driver.
//
// Every verb lives in the kVerbs table below — the usage text and the
// dispatch in main() are both generated from it, so a new verb cannot be
// runnable but undocumented (or documented but unrunnable).
//
//   ifko analyze <file.hil> [--arch=p4e|opteron]
//       What FKO's analysis reports to the search: vectorizability, arrays,
//       accumulator candidates, machine cache facts.
//
//   ifko compile <file.hil> [--arch=...] [--sv=0|1] [--ur=N] [--ae=N]
//                [--wnt] [--lc=0|1] [--pf=ARRAY:KIND:DIST]... [--bf]
//                [--cisc] [--params=SPEC] [--dump-ir]
//       One FKO compile with explicit transform parameters; verifies the
//       result differentially against the unoptimized lowering.  All the
//       per-flag spellings are sugar over the TuningSpec grammar
//       (docs/TUNING.md): --ur=4 is exactly --params=ur=4.
//
//   ifko run <file.hil> [--arch=...] [--n=N] [--context=ooc|inl2] (+compile flags)
//       Compile, check, and time on the simulated machine.
//
//   ifko tune <file.hil> [--arch=...] [--n=N] [--context=ooc|inl2]
//             [--extensions] [--fast] [--jobs=N] [--cache=FILE] [--trace=FILE]
//             [--wisdom=FILE]
//             [--strategy=line|random|hillclimb|evolve|attribution|bandit]
//             [--budget=N] [--budget-cycles=N] [--search-seed=S]
//             [--eval-timeout-ms=N] [--eval-retries=N] [--quarantine=N]
//             [--fault-plan=SPEC]
//       The empirical search, with the per-dimension ledger.  --strategy
//       picks the search policy (default: the paper's line search);
//       --budget caps observed candidates, --budget-cycles caps simulated
//       cycles spent, and --search-seed seeds the stochastic strategies
//       (same seed + budget => same proposals at any --jobs).  A stochastic
//       strategy with no budget gets a default of 128 evaluations.
//       --wisdom warm-starts the search from the store's best known config
//       for this (kernel, arch, context, N-class) and writes the winner
//       back keep-best (docs/SERVING.md).
//       Fault isolation: --eval-timeout-ms deadlines each candidate in
//       deterministic simulated work (0 = off), --eval-retries bounds extra
//       attempts after a timeout/crash (default 1), --quarantine abandons a
//       kernel after N hard failures (default 3, 0 = never), and
//       --fault-plan injects deterministic faults for testing (grammar in
//       docs/TUNING.md).
//
//   ifko tune-all <dir> [--arch=...] [--n=N] [--context=ooc|inl2] [--fast]
//                 [--extensions] [--jobs=N] [--cache=FILE] [--trace=FILE]
//                 [--wisdom=FILE] [--strategy=...] [--budget=N]
//                 [--budget-cycles=N] [--search-seed=S] [--eval-timeout-ms=N]
//                 [--eval-retries=N] [--quarantine=N] [--fault-plan=SPEC]
//                 [--cache-dir=DIR] [--shard=NAME]
//                 [--workers=N --worker-id=K] [--resume]
//       Batch-tunes every *.hil kernel in <dir> through the orchestrator and
//       prints a Table-3-style summary with turnaround and cache statistics.
//       --wisdom warm-starts every kernel and writes each winner back as it
//       lands (atomic per-kernel saves, so a crash loses at most the
//       in-flight kernel).
//       Fleet mode (docs/DISTRIBUTED.md): --cache-dir gives every process
//       its own append-only cache.<shard>.jsonl (all shards are loaded, only
//       our own is written; --shard defaults to the pid); --workers=N
//       --worker-id=K keeps the jobs at sorted indices i with i % N == K,
//       so N uncoordinated workers cover the directory exactly once;
//       --resume (needs --trace) replays the trace of an interrupted run
//       and skips every kernel that already completed — with a warm cache
//       the re-entered kernels replay as hits, so nothing is paid twice.
//
//   ifko explain <file.hil> (same options as tune)
//       Tunes the kernel (cheap when a --cache is warm), then diffs the
//       winner against the FKO defaults: a per-cause cycle-attribution
//       table (why the winner is faster, not just that it is), the memory
//       system's per-level counters, and the compile pipeline's per-pass
//       deltas for the winning parameters.
//
//   ifko sim <file.ir> [--arch=...] [--n=N] [--context=ooc|inl2]
//       Parse a textual IR dump (the --dump-ir format) and time it on the
//       simulated machine — the path for hand-edited or hand-written code.
//
//   ifko serve --socket=PATH | --port=N [--wisdom=FILE] [--kernels=DIR]
//              [--recv-timeout-ms=N] (+ tune options for the tune-on-miss path)
//       Tuning-as-a-service (docs/SERVING.md): a long-lived daemon that
//       answers QUERY/TUNE/EXPLAIN/EXPORT/IMPORT/STATS/SHUTDOWN over a Unix
//       or loopback TCP socket.  --recv-timeout-ms bounds how long a
//       stalled connection may hold the serial accept loop (default 30000,
//       0 = no deadline).  Already-tuned queries are served from the
//       wisdom store with zero candidate evaluations; misses tune through
//       the fault-isolated orchestrator and write back.  --port=0 picks an
//       ephemeral port (printed as "PORT <n>" on stdout).
//
//   ifko query [<kernel>] --socket=PATH | --port=N [--arch=...]
//              [--context=...] [--n=N] [--tune] [--explain-verb]
//              [--stats] [--export[=PATH]] [--shutdown]
//       Client for a running serve daemon: sends one request, prints the
//       JSON response line, exits 0 iff the daemon answered ok.  With a
//       kernel name it sends QUERY (or TUNE with --tune, EXPLAIN with
//       --explain-verb); --stats/--export/--shutdown need no kernel.
//
//   ifko cache-merge <out.jsonl> --from=FILE_OR_DIR [--from=...]
//       Offline set union of eval-cache shards (a directory --from expands
//       to its cache.*.jsonl files).  Identical keys dedup to one record;
//       the output is sorted, so it is byte-identical regardless of input
//       order (docs/DISTRIBUTED.md).
//
//   ifko wisdom-merge <out.jsonl> --from=FILE [--from=...]
//       Keep-best merge of wisdom files: merging the per-worker stores of a
//       partitioned tune-all reproduces the single-process wisdom file byte
//       for byte.
//
//   ifko federate <peer> --socket=PATH | --port=N
//       Two-way keep-best wisdom exchange between the local daemon
//       (--socket/--port) and a peer daemon (<peer> = a port number or a
//       Unix socket path), via EXPORT/IMPORT temp files.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fko/compiler.h"
#include "fko/harness.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "search/evalpipeline.h"
#include "search/orchestrator.h"
#include "search/resume.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "support/json.h"
#include "support/str.h"
#include "support/table.h"
#include "wisdom/harvest.h"
#include "wisdom/wisdom.h"

namespace {

using namespace ifko;

std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Options {
  arch::MachineConfig machine = arch::p4e();
  fko::CompileOptions compile;
  int64_t n = 80000;
  sim::TimeContext context = sim::TimeContext::OutOfCache;
  bool dumpIr = false;
  bool extensions = false;
  bool fast = false;
  int jobs = 1;
  std::string cachePath;
  std::string cacheDirPath;  ///< --cache-dir: sharded eval-cache directory
  std::string cacheShard;    ///< --shard: shard name inside --cache-dir
  std::string tracePath;
  int64_t workers = 0;   ///< tune-all --workers: fleet width; 0 = single
  int64_t workerId = 0;  ///< tune-all --worker-id: this worker's slot
  bool workerIdSet = false;
  bool resume = false;            ///< tune-all --resume: replay the trace
  int64_t recvTimeoutMs = 30000;  ///< serve --recv-timeout-ms (0 = off)
  std::vector<std::string> fromPaths;  ///< --from= inputs (repeatable)
  search::StrategyKind strategy = search::StrategyKind::Line;
  int64_t budget = 0;        ///< max observed candidates; 0 = unlimited
  int64_t budgetCycles = 0;  ///< max simulated cycles spent; 0 = unlimited
  int64_t searchSeed = 1;
  int64_t evalTimeoutMs = 0;  ///< per-candidate deadline; 0 = off
  int64_t evalRetries = 1;    ///< extra attempts after a hard failure
  int64_t quarantine = 3;     ///< hard failures before abandoning; 0 = never
  search::FaultPlan faultPlan;
  std::string wisdomPath;  ///< --wisdom: warm-start + write-back store
  // serve/query plumbing
  std::string socketPath;  ///< --socket: Unix-domain endpoint
  int64_t tcpPort = -1;    ///< --port: loopback TCP; -1 unset, 0 ephemeral
  std::string kernelsDir;  ///< serve --kernels: extra *.hil kernels
  serve::Request::Verb queryVerb = serve::Request::Verb::Query;
  std::string exportPath;  ///< query --export=PATH ("" = daemon default)
  // Raw flag spellings, so `query` forwards only what the user actually
  // said and the daemon's own defaults cover the rest.
  std::string archFlag;     ///< "" unless --arch was given
  std::string contextFlag;  ///< "" unless --context was given
  bool nSet = false;        ///< --n was given
  bool ok = true;
};

Options parseOptions(int argc, char** argv, int first) {
  Options o;
  // Every tuning-parameter flag funnels through the TuningSpec parser, so
  // validation and serialization live in exactly one place (opt/params.cpp).
  auto applySpec = [&](const std::string& fragment) {
    auto spec = opt::parseTuningSpec(fragment, o.compile.tuning);
    if (!spec.ok) {
      std::fprintf(stderr, "bad tuning spec '%s': %s\n", fragment.c_str(),
                   spec.error.c_str());
      o.ok = false;
      return;
    }
    o.compile.tuning = spec.params;
  };
  auto intFlag = [&](const std::string& v, const char* name, int64_t minValue,
                     int64_t* out) {
    int64_t parsed = 0;
    if (!parseInt64(v, &parsed) || parsed < minValue) {
      std::fprintf(stderr, "bad %s (want integer >= %lld): '%s'\n", name,
                   static_cast<long long>(minValue), v.c_str());
      o.ok = false;
      return;
    }
    *out = parsed;
  };

  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* prefix) -> std::optional<std::string> {
      if (!startsWith(a, prefix)) return std::nullopt;
      return a.substr(std::strlen(prefix));
    };
    if (auto v = value("--arch=")) {
      if (*v == "p4e") o.machine = arch::p4e();
      else if (*v == "opteron") o.machine = arch::opteron();
      else { std::fprintf(stderr, "unknown arch '%s'\n", v->c_str()); o.ok = false; continue; }
      o.archFlag = *v;
    } else if (auto v = value("--sv=")) {
      applySpec("sv=" + *v);
    } else if (auto v = value("--ur=")) {
      applySpec("ur=" + *v);
    } else if (auto v = value("--ae=")) {
      applySpec("ae=" + *v);
    } else if (a == "--wnt") {
      applySpec("wnt=Y");
    } else if (auto v = value("--lc=")) {
      applySpec("lc=" + *v);
    } else if (a == "--bf") {
      applySpec("bf=Y");
    } else if (a == "--cisc") {
      applySpec("cisc=Y");
    } else if (auto v = value("--pf=")) {
      // ARRAY:KIND:DIST (e.g. --pf=X:nta:1024) -> pf(ARRAY)=KIND:DIST
      size_t colon = v->find(':');
      if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr, "bad --pf (want ARRAY:KIND:DIST): %s\n",
                     v->c_str());
        o.ok = false;
        continue;
      }
      std::string rest = v->substr(colon + 1);
      if (rest == "none:0" || rest == "none") rest = "none";
      applySpec("pf(" + v->substr(0, colon) + ")=" + rest);
    } else if (auto v = value("--params=")) {
      applySpec(*v);
    } else if (auto v = value("--n=")) {
      intFlag(*v, "--n", 1, &o.n);
      o.nSet = true;
    } else if (auto v = value("--jobs=")) {
      int64_t jobs = 1;
      intFlag(*v, "--jobs", 1, &jobs);
      o.jobs = static_cast<int>(jobs);
    } else if (auto v = value("--cache=")) {
      o.cachePath = *v;
    } else if (auto v = value("--cache-dir=")) {
      o.cacheDirPath = *v;
    } else if (auto v = value("--shard=")) {
      o.cacheShard = *v;
    } else if (auto v = value("--workers=")) {
      intFlag(*v, "--workers", 1, &o.workers);
    } else if (auto v = value("--worker-id=")) {
      intFlag(*v, "--worker-id", 0, &o.workerId);
      o.workerIdSet = true;
    } else if (a == "--resume") {
      o.resume = true;
    } else if (auto v = value("--recv-timeout-ms=")) {
      intFlag(*v, "--recv-timeout-ms", 0, &o.recvTimeoutMs);
    } else if (auto v = value("--from=")) {
      o.fromPaths.push_back(*v);
    } else if (auto v = value("--trace=")) {
      o.tracePath = *v;
    } else if (auto v = value("--wisdom=")) {
      o.wisdomPath = *v;
    } else if (auto v = value("--socket=")) {
      o.socketPath = *v;
    } else if (auto v = value("--port=")) {
      intFlag(*v, "--port", 0, &o.tcpPort);
    } else if (auto v = value("--kernels=")) {
      o.kernelsDir = *v;
    } else if (a == "--tune") {
      o.queryVerb = serve::Request::Verb::Tune;
    } else if (a == "--explain-verb") {
      o.queryVerb = serve::Request::Verb::Explain;
    } else if (a == "--stats") {
      o.queryVerb = serve::Request::Verb::Stats;
    } else if (a == "--shutdown") {
      o.queryVerb = serve::Request::Verb::Shutdown;
    } else if (a == "--export") {
      o.queryVerb = serve::Request::Verb::Export;
    } else if (auto v = value("--export=")) {
      o.queryVerb = serve::Request::Verb::Export;
      o.exportPath = *v;
    } else if (auto v = value("--strategy=")) {
      auto kind = search::parseStrategyKind(*v);
      if (!kind.has_value()) {
        std::fprintf(stderr,
                     "unknown strategy '%s' (want line|random|hillclimb|"
                     "evolve|attribution|bandit)\n",
                     v->c_str());
        o.ok = false;
      } else {
        o.strategy = *kind;
      }
    } else if (auto v = value("--budget=")) {
      intFlag(*v, "--budget", 1, &o.budget);
    } else if (auto v = value("--budget-cycles=")) {
      intFlag(*v, "--budget-cycles", 1, &o.budgetCycles);
    } else if (auto v = value("--search-seed=")) {
      intFlag(*v, "--search-seed", 0, &o.searchSeed);
    } else if (auto v = value("--eval-timeout-ms=")) {
      intFlag(*v, "--eval-timeout-ms", 0, &o.evalTimeoutMs);
    } else if (auto v = value("--eval-retries=")) {
      intFlag(*v, "--eval-retries", 0, &o.evalRetries);
    } else if (auto v = value("--quarantine=")) {
      intFlag(*v, "--quarantine", 0, &o.quarantine);
    } else if (auto v = value("--fault-plan=")) {
      std::string perr;
      auto plan = search::FaultPlan::parse(*v, &perr);
      if (!plan.has_value()) {
        std::fprintf(stderr, "bad --fault-plan: %s\n", perr.c_str());
        o.ok = false;
      } else {
        o.faultPlan = *plan;
      }
    } else if (auto v = value("--context=")) {
      o.context = *v == "inl2" ? sim::TimeContext::InL2
                               : sim::TimeContext::OutOfCache;
      o.contextFlag = *v;
    } else if (a == "--dump-ir") {
      o.dumpIr = true;
    } else if (a == "--extensions") {
      o.extensions = true;
    } else if (a == "--fast") {
      o.fast = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      o.ok = false;
    }
  }
  return o;
}

/// The shared tune/tune-all configuration: search scale, cache/trace paths,
/// strategy, and budget.  A stochastic strategy with no explicit budget
/// would only stop at its internal round limits, so it defaults to 128
/// observed candidates — about one full line search on the full grids.
search::OrchestratorConfig orchestratorConfig(const Options& o) {
  search::OrchestratorConfig oc;
  oc.search = o.fast ? search::SearchConfig::smoke() : search::SearchConfig{};
  oc.search.n = o.n;
  oc.search.context = o.context;
  oc.search.jobs = o.jobs;
  oc.search.searchExtensions = o.extensions;
  oc.search.evalTimeoutMs = o.evalTimeoutMs;
  oc.search.maxEvalAttempts = static_cast<int>(o.evalRetries) + 1;
  oc.cachePath = o.cachePath;
  oc.cacheDir = o.cacheDirPath;
  oc.cacheShard = o.cacheShard;
  oc.tracePath = o.tracePath;
  oc.strategy = o.strategy;
  oc.budget.maxEvaluations = static_cast<int>(o.budget);
  oc.budget.maxCycles = static_cast<uint64_t>(o.budgetCycles);
  oc.budget.seed = static_cast<uint64_t>(o.searchSeed);
  if (oc.strategy != search::StrategyKind::Line && oc.budget.unlimited())
    oc.budget.maxEvaluations = 128;
  oc.quarantineAfter = static_cast<int>(o.quarantine);
  oc.faultPlan = o.faultPlan;
  return oc;
}

/// The user-facing name of whatever eval cache the options select (the
/// shard directory wins over a single file, mirroring OrchestratorConfig).
std::string cacheName(const Options& o) {
  return o.cacheDirPath.empty() ? o.cachePath : o.cacheDirPath;
}

/// "2 timeouts, 1 crash, 3 retries" — only the nonzero categories.
std::string faultSummary(const search::FailureCounts& f) {
  std::string s;
  auto item = [&](int n, const char* one, const char* many) {
    if (n == 0) return;
    if (!s.empty()) s += ", ";
    s += std::to_string(n) + " " + (n == 1 ? one : many);
  };
  item(f.timeouts, "timeout", "timeouts");
  item(f.crashes, "crash", "crashes");
  item(f.testerFails, "tester fail", "tester fails");
  item(f.compileFails, "compile fail", "compile fails");
  item(f.retries, "retry", "retries");
  return s;
}

/// Reports what opening the orchestrator `who` (tune, explain, tune-all)
/// searches with found: a cache or trace file problem (`err`) is fatal,
/// damaged cache lines only a warning.  False when `who` must stop.
bool orchestratorOpened(search::Orchestrator& orch, const std::string& err,
                        const Options& o, const char* who) {
  if (!err.empty()) {
    std::fprintf(stderr, "%s: %s\n", who, err.c_str());
    return false;
  }
  const size_t damaged = orch.cache().damagedLines();
  if (damaged > 0)
    std::fprintf(stderr,
                 "%s: warning: skipped %zu damaged line(s) in cache '%s'\n",
                 who, damaged, cacheName(o).c_str());
  return true;
}

void loadWisdomWarn(wisdom::WisdomStore& store, const std::string& path,
                    const char* who) {
  std::string err;
  if (!store.load(path, &err))
    std::fprintf(stderr, "%s: wisdom: %s\n", who, err.c_str());
  if (store.damagedLines() > 0)
    std::fprintf(stderr,
                 "%s: warning: skipped %zu damaged wisdom line(s) in '%s'\n",
                 who, store.damagedLines(), path.c_str());
  if (store.schemaSkippedLines() > 0)
    std::fprintf(stderr,
                 "%s: warning: skipped %zu wisdom line(s) from another "
                 "wisdom_schema in '%s'\n",
                 who, store.schemaSkippedLines(), path.c_str());
}

int cmdAnalyze(const std::string& src, const Options& o) {
  auto rep = fko::analyzeKernel(src, o.machine);
  if (!rep.ok) {
    std::fprintf(stderr, "analysis failed: %s\n", rep.error.c_str());
    return 1;
  }
  std::printf("machine: %s (%d cache levels, %dB lines)\n",
              o.machine.name.c_str(), rep.cacheLevels, rep.lineBytes[0]);
  std::printf("tuned loop: found, max unroll %d\n", rep.maxUnroll);
  std::printf("SIMD vectorizable: %s%s%s (%d lanes of %s)\n",
              rep.vectorizable ? "yes" : "no",
              rep.vectorizable ? "" : " — ",
              rep.vectorizable ? "" : rep.whyNotVectorizable.c_str(),
              rep.vecLanes, std::string(scalName(rep.elemType)).c_str());
  for (const auto& a : rep.arrays)
    std::printf("array %-8s loaded=%d stored=%d prefetchable=%d\n",
                a.name.c_str(), a.loaded, a.stored, a.prefetchable);
  std::printf("accumulator-expansion candidates: %d\n", rep.numAccumulators);
  return 0;
}

int cmdCompile(const std::string& src, const Options& o, bool alsoRun) {
  auto r = fko::compileKernel(src, o.compile, o.machine);
  if (!r.ok) {
    std::fprintf(stderr, "compile failed: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("compiled: %zu instructions, %d spill slots, %d repeatable "
              "iterations\n",
              r.fn.instCount(), r.spillSlots, r.repeatableIters);
  for (const auto& w : r.warnings)
    std::fprintf(stderr, "%s\n", w.str().c_str());
  if (o.dumpIr) std::fputs(ir::print(r.fn).c_str(), stdout);

  auto diff = fko::testAgainstUnoptimized(src, r.fn, std::min<int64_t>(o.n, 512));
  std::printf("differential check vs unoptimized lowering: %s\n",
              diff.ok ? "PASS" : diff.message.c_str());
  if (!diff.ok) return 1;

  if (alsoRun) {
    int64_t strideElems = 1;
    auto rep = fko::analyzeKernel(src, o.machine);
    if (rep.ok)
      for (const auto& a : rep.arrays)
        strideElems = std::max(strideElems, a.strideElems);
    auto t = fko::timeCompiled(o.machine, r.fn, o.n, o.context, 42, strideElems);
    std::printf("%s, N=%lld, %s: %llu cycles (%.3f cycles/element, "
                "%llu dynamic instructions)\n",
                o.machine.name.c_str(), static_cast<long long>(o.n),
                std::string(sim::contextName(o.context)).c_str(),
                static_cast<unsigned long long>(t.cycles),
                static_cast<double>(t.cycles) / static_cast<double>(o.n),
                static_cast<unsigned long long>(t.dynInsts));
  }
  return 0;
}

std::string pathStem(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

int cmdTune(const std::string& path, const std::string& src, const Options& o) {
  std::string err;
  search::Orchestrator orch(o.machine, orchestratorConfig(o), &err);
  if (!orchestratorOpened(orch, err, o, "tune")) return 1;
  const search::OrchestratorConfig& oc = orch.config();

  wisdom::WisdomStore wis;
  if (!o.wisdomPath.empty()) loadWisdomWarn(wis, o.wisdomPath, "tune");
  bool adopted = false;
  auto report = [&](const search::KernelOutcome&,
                    const wisdom::KernelWisdom& w) {
    adopted = w.adopted;
    if (!w.warmStart.has_value()) return;
    std::printf("wisdom: warm start (%s): %s\n",
                std::string(wisdom::matchKindName(w.warmStart->kind)).c_str(),
                w.warmStart->params.c_str());
  };
  const search::KernelOutcome outcome =
      wisdom::tune(orch, wis, {{pathStem(path), src, nullptr}}, "tune", report)
          .kernels.front();
  const search::TuneResult& r = outcome.result;
  if (!r.ok) {
    std::fprintf(stderr, "tuning failed: %s\n", r.error.c_str());
    if (outcome.faults.total() > 0)
      std::fprintf(stderr, "evaluation failures: %s\n",
                   faultSummary(outcome.faults).c_str());
    return 1;
  }
  std::printf("FKO defaults: %llu cycles\n",
              static_cast<unsigned long long>(r.defaultCycles));
  uint64_t prev = r.defaultCycles;
  for (const auto& d : r.ledger) {
    std::printf("  %-7s -> %10llu cycles (%+.1f%%)\n", d.name.c_str(),
                static_cast<unsigned long long>(d.cyclesAfter),
                100.0 * (static_cast<double>(prev) /
                             static_cast<double>(d.cyclesAfter) -
                         1.0));
    prev = d.cyclesAfter;
  }
  std::printf("ifko: %llu cycles (%.2fx over defaults, %d evaluations)\n",
              static_cast<unsigned long long>(r.bestCycles),
              r.speedupOverDefaults(), r.evaluations);
  std::printf("best parameters: %s\n",
              opt::formatTuningSpec(r.best).c_str());
  if (oc.strategy != search::StrategyKind::Line) {
    std::string budget = oc.budget.unlimited() ? "unlimited"
                         : oc.budget.maxEvaluations > 0
                             ? std::to_string(oc.budget.maxEvaluations)
                             : std::to_string(oc.budget.maxCycles) + " cycles";
    std::printf("strategy %s: %d proposals (budget %s, seed %llu)\n",
                std::string(search::strategyName(oc.strategy)).c_str(),
                r.proposals, budget.c_str(),
                static_cast<unsigned long long>(oc.budget.seed));
  }
  if (outcome.faults.total() > 0 || outcome.faults.retries > 0)
    std::printf("evaluation failures survived: %s\n",
                faultSummary(outcome.faults).c_str());
  if (!cacheName(o).empty())
    std::printf("cache: %llu hits / %llu misses (%zu entries in %s)\n",
                static_cast<unsigned long long>(outcome.cacheHits),
                static_cast<unsigned long long>(outcome.cacheMisses),
                orch.cache().size(), cacheName(o).c_str());

  if (!o.wisdomPath.empty()) {
    std::string werr;
    if (!wis.save(o.wisdomPath, &werr)) {
      std::fprintf(stderr, "tune: wisdom save failed: %s\n", werr.c_str());
      return 1;
    }
    std::printf("wisdom: %s (%zu records in %s)\n",
                adopted ? "best recorded" : "incumbent kept (not beaten)",
                wis.size(), o.wisdomPath.c_str());
  }
  return 0;
}

/// `ifko explain`: tune (warm-cache cheap), then attribute the cycles of the
/// default and winning parameter sets cause by cause, so the speedup has an
/// explanation and not just a number.
int cmdExplain(const std::string& path, const std::string& src,
               const Options& o) {
  std::string err;
  search::Orchestrator orch(o.machine, orchestratorConfig(o), &err);
  if (!orchestratorOpened(orch, err, o, "explain")) return 1;
  auto outcome = orch.tune({pathStem(path), src, nullptr});
  const search::TuneResult& r = outcome.result;
  if (!r.ok) {
    std::fprintf(stderr, "tuning failed: %s\n", r.error.c_str());
    return 1;
  }

  // Re-evaluate the two endpoints directly: a pre-v3 cache has no counters
  // to replay, and two evaluations are cheap next to the search itself.
  // One pipeline lowers the source once and keeps the winner's compiled
  // artifact for the pass-delta display below — no re-lowering, no second
  // compile of the same candidate.
  search::EvalPipeline pipe(src, nullptr, o.machine, orch.config().search);
  if (!pipe.lowered().ok) {
    std::fprintf(stderr, "lowering failed: %s\n",
                 pipe.lowered().error.c_str());
    return 1;
  }
  auto def = search::evaluateCandidate(pipe.request(r.defaults));
  auto best = search::evaluateCandidate(pipe.request(r.best));
  if (!def.counters.has_value() || !best.counters.has_value()) {
    std::fprintf(stderr, "explain: endpoint re-evaluation failed (%s / %s)\n",
                 std::string(search::evalStatusName(def.status)).c_str(),
                 std::string(search::evalStatusName(best.status)).c_str());
    return 1;
  }
  const search::EvalCounters& dc = *def.counters;
  const search::EvalCounters& bc = *best.counters;

  std::printf("%s on %s, N=%lld, %s\n", pathStem(path).c_str(),
              o.machine.name.c_str(), static_cast<long long>(o.n),
              std::string(sim::contextName(o.context)).c_str());
  std::printf("defaults: %-40s %10llu cycles\n",
              opt::formatTuningSpec(r.defaults).c_str(),
              static_cast<unsigned long long>(def.cycles));
  std::printf("winner:   %-40s %10llu cycles (%.2fx)\n",
              opt::formatTuningSpec(r.best).c_str(),
              static_cast<unsigned long long>(best.cycles),
              best.cycles == 0 ? 0.0
                               : static_cast<double>(def.cycles) /
                                     static_cast<double>(best.cycles));

  // Per-cause attribution, defaults vs winner.  Shares are of each run's own
  // total, which equals its cycle count exactly (the accounting identity).
  uint64_t dTot = dc.attr.total();
  uint64_t bTot = bc.attr.total();
  auto share = [](uint64_t c, uint64_t total) {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(c) /
                            static_cast<double>(total);
  };
  std::printf("\ncycle attribution (why, not just how much):\n");
  TextTable t;
  t.setHeader({"cause", "FKO cyc", "FKO %", "ifko cyc", "ifko %", "delta"});
  for (size_t i = 0; i < sim::kNumStallCauses; ++i) {
    uint64_t d = dc.attr.cycles[i];
    uint64_t b = bc.attr.cycles[i];
    if (d == 0 && b == 0) continue;
    int64_t delta = static_cast<int64_t>(b) - static_cast<int64_t>(d);
    t.addRow({std::string(sim::stallCauseName(static_cast<sim::StallCause>(i))),
              std::to_string(d), fmtFixed(share(d, dTot), 1),
              std::to_string(b), fmtFixed(share(b, bTot), 1),
              (delta > 0 ? "+" : "") + std::to_string(delta)});
  }
  t.addRow({"total", std::to_string(dTot), "100.0", std::to_string(bTot),
            "100.0",
            (bTot > dTot ? "+" : "") +
                std::to_string(static_cast<int64_t>(bTot) -
                               static_cast<int64_t>(dTot))});
  std::fputs(t.str().c_str(), stdout);
  std::printf("memory stalls: %llu cycles (%.1f%%) -> %llu cycles (%.1f%%)\n",
              static_cast<unsigned long long>(dc.attr.memoryStalls()),
              share(dc.attr.memoryStalls(), dTot),
              static_cast<unsigned long long>(bc.attr.memoryStalls()),
              share(bc.attr.memoryStalls(), bTot));

  auto memLine = [](const char* who, const search::EvalCounters& c) {
    std::printf("  %-8s loads %llu (L1 %llu, L2 %llu, mem %llu)  stores %llu "
                "(RFO %llu, NT %llu)  pref %llu/%llu useful  evict %llu+%llu  "
                "bus %lluB\n",
                who, static_cast<unsigned long long>(c.mem.loads),
                static_cast<unsigned long long>(c.mem.loadHitL1),
                static_cast<unsigned long long>(c.mem.loadHitL2),
                static_cast<unsigned long long>(c.mem.loadMissMem),
                static_cast<unsigned long long>(c.mem.stores),
                static_cast<unsigned long long>(c.mem.storeRFOs),
                static_cast<unsigned long long>(c.mem.ntStores),
                static_cast<unsigned long long>(c.mem.prefUseful),
                static_cast<unsigned long long>(c.mem.prefIssued),
                static_cast<unsigned long long>(c.mem.evictL1),
                static_cast<unsigned long long>(c.mem.evictL2),
                static_cast<unsigned long long>(c.mem.busBytes));
  };
  std::printf("\nmemory system:\n");
  memLine("defaults", dc);
  memLine("winner", bc);

  // Compile observability for the winning parameters: the per-pass deltas of
  // the fundamental + repeatable pipeline.  The pipeline memo already holds
  // the winner's artifact from the endpoint re-evaluation above.
  const fko::CompileResult& compiled = pipe.compile(r.best)->compiled;
  if (compiled.ok) {
    std::printf("\ncompile (winner): %zu IR instructions, %d spill slots, "
                "%d repeatable iteration(s)%s\n",
                compiled.fn.instCount(), compiled.spillSlots,
                compiled.repeatableIters,
                compiled.repeatableConverged ? "" : " [did not converge]");
    for (const auto& p : compiled.passes)
      std::printf("  %-12s %4zu -> %4zu insts  (%d iteration%s)\n",
                  p.name.c_str(), p.instsBefore, p.instsAfter, p.iterations,
                  p.iterations == 1 ? "" : "s");
    for (const auto& w : compiled.warnings)
      std::fprintf(stderr, "%s\n", w.str().c_str());
  }
  return 0;
}

int cmdTuneAll(const std::string& dir, const Options& o) {
  std::string err;
  auto jobs = search::loadKernelDir(dir, &err);
  if (jobs.empty()) {
    std::fprintf(stderr, "tune-all: %s\n", err.c_str());
    return 1;
  }

  // --workers=N --worker-id=K: deterministic partition of the sorted job
  // list.  Each worker keeps jobs[i] with i % N == K, so an uncoordinated
  // fleet covers the directory exactly once — and because every kernel's
  // search is independent, the union of the workers' results is
  // bit-identical to one process tuning the whole list.
  if (o.workers > 0 || o.workerIdSet) {
    if (o.workers < 1 || o.workerId >= o.workers) {
      std::fprintf(stderr,
                   "tune-all: need --workers=N with --worker-id=K in "
                   "[0, N): got workers=%lld worker-id=%lld\n",
                   static_cast<long long>(o.workers),
                   static_cast<long long>(o.workerId));
      return 2;
    }
    const size_t total = jobs.size();
    jobs = search::workerSlice(std::move(jobs), static_cast<int>(o.workers),
                               static_cast<int>(o.workerId));
    std::fprintf(stderr, "tune-all: worker %lld of %lld: %zu of %zu kernels\n",
                 static_cast<long long>(o.workerId),
                 static_cast<long long>(o.workers), jobs.size(), total);
  }

  // --resume: the trace is a write-ahead log of batch progress.  Replay it,
  // skip every kernel whose ok kernel_end survived the crash, and re-enter
  // the rest — with the eval cache warm their already-paid candidates
  // replay as hits, so nothing is evaluated twice.
  search::ResumePlan plan;
  std::vector<search::KernelJob> doneJobs;
  if (o.resume) {
    if (o.tracePath.empty()) {
      std::fprintf(stderr,
                   "tune-all: --resume needs --trace=FILE (the interrupted "
                   "run's trace is the log it resumes from)\n");
      return 2;
    }
    std::string rerr;
    plan = search::loadResumePlan(
        o.tracePath, o.machine.name, std::string(sim::contextName(o.context)),
        o.n, std::string(search::strategyName(o.strategy)), &rerr);
    if (!rerr.empty()) {
      std::fprintf(stderr, "tune-all: %s\n", rerr.c_str());
      return 1;
    }
    if (plan.damagedLines > 0)
      std::fprintf(stderr,
                   "tune-all: warning: skipped %zu damaged trace line(s) (a "
                   "torn tail from the kill is normal)\n",
                   plan.damagedLines);
    std::vector<search::KernelJob> remaining;
    for (auto& job : jobs) {
      if (plan.completed.count(job.name) != 0)
        doneJobs.push_back(std::move(job));
      else
        remaining.push_back(std::move(job));
    }
    jobs = std::move(remaining);
    std::fprintf(stderr,
                 "tune-all: resume: %zu kernel(s) already complete in %s, "
                 "%zu to go\n",
                 doneJobs.size(), o.tracePath.c_str(), jobs.size());
  }

  search::Orchestrator orch(o.machine, orchestratorConfig(o), &err);
  if (!orchestratorOpened(orch, err, o, "tune-all")) return 1;

  wisdom::WisdomStore wis;
  if (!o.wisdomPath.empty()) {
    loadWisdomWarn(wis, o.wisdomPath, "tune-all");
    size_t warmStarts = 0;
    for (const auto& job : jobs)
      if (wis.find(wisdom::keyFor(job.hilSource, o.machine, o.context, o.n))
              .hit())
        ++warmStarts;
    std::fprintf(stderr, "wisdom: warm-starting %zu of %zu kernels from %s\n",
                 warmStarts, jobs.size(), o.wisdomPath.c_str());
  }

  // Write wisdom back after every kernel, not once at the end: save() is
  // atomic (pid-unique temp + rename), so a kill -9 at any point loses at
  // most the in-flight kernel's record — which --resume re-harvests anyway.
  size_t adopted = 0;
  auto saveWisdom = [&](const search::KernelOutcome& k, bool adoptedIt) {
    if (o.wisdomPath.empty() || !k.result.ok) return;
    if (adoptedIt) ++adopted;
    std::string werr;
    if (!wis.save(o.wisdomPath, &werr))
      std::fprintf(stderr, "tune-all: wisdom save failed: %s\n", werr.c_str());
  };

  // Resumed kernels: re-emit their results straight from the trace.  Their
  // wisdom records are re-harvested through the (warm) cache, so a run that
  // died between a kernel's trace event and its wisdom write-back still
  // ends with the record — byte-identical to the uninterrupted run's.
  std::vector<search::KernelOutcome> resumed;
  for (const auto& job : doneJobs) {
    search::KernelOutcome ko;
    ko.name = job.name;
    ko.result = search::resumedTuneResult(plan.completed.at(job.name));
    saveWisdom(ko, wisdom::recordResult(wis, orch, job, "tune-all", ko.result));
    resumed.push_back(std::move(ko));
  }

  std::fprintf(stderr, "tuning %zu kernels on %s (jobs=%d)...\n", jobs.size(),
               o.machine.name.c_str(), std::max(1, o.jobs));
  auto batch = wisdom::tune(
      orch, wis, std::move(jobs), "tune-all",
      [&](const search::KernelOutcome& k, const wisdom::KernelWisdom& w) {
        saveWisdom(k, w.adopted);
      });

  // Compact per-kernel fault cell: "2t 1c" = 2 timeouts, 1 crash; "-" = clean.
  auto faultCell = [](const search::FailureCounts& f) {
    std::string s;
    auto item = [&](int n, const char* tag) {
      if (n == 0) return;
      if (!s.empty()) s += " ";
      s += std::to_string(n) + tag;
    };
    item(f.timeouts, "t");
    item(f.crashes, "c");
    item(f.testerFails, "x");
    item(f.compileFails, "e");
    return s.empty() ? "-" : s;
  };

  TextTable t;
  t.setHeader({"kernel", "SV:WNT", "PF X", "PF Y", "UR:AE", "FKO cyc",
               "ifko cyc", "speedup", "evals", "faults", "hit%", "sec"});
  auto addRow = [&](const search::KernelOutcome& k, const char* tag,
                    bool timed) {
    const search::TuneResult& r = k.result;
    if (!r.ok) {
      t.addRow({k.name + (k.quarantined ? " (quarantined)" : tag), "-", "-",
                "-", "-", "-", "-", "-", std::to_string(r.evaluations),
                faultCell(k.faults), "-",
                timed ? fmtFixed(k.seconds, 2) : "-"});
      return;
    }
    auto row = search::paramsRow(r.best, r.analysis);
    uint64_t lookups = k.cacheHits + k.cacheMisses;
    double hitPct = lookups == 0 ? 0.0
                                 : 100.0 * static_cast<double>(k.cacheHits) /
                                       static_cast<double>(lookups);
    t.addRow({k.name + tag, row[0], row[1], row[2], row[3],
              std::to_string(r.defaultCycles), std::to_string(r.bestCycles),
              fmtFixed(r.speedupOverDefaults(), 2) + "x",
              std::to_string(r.evaluations), faultCell(k.faults),
              timed ? fmtFixed(hitPct, 1) : "-",
              timed ? fmtFixed(k.seconds, 2) : "-"});
  };
  for (const auto& k : resumed) addRow(k, " (resumed)", /*timed=*/false);
  for (const auto& k : batch.kernels) addRow(k, "", /*timed=*/true);
  std::fputs(t.str().c_str(), stdout);

  int resumedFailures = 0;
  for (const auto& k : resumed) resumedFailures += k.result.ok ? 0 : 1;

  std::printf("\n%zu kernels (%d failed, %d quarantined) in %.2f s wall: "
              "%d evaluations, cache %.1f%% hits (%llu/%llu)",
              resumed.size() + batch.kernels.size(),
              batch.failures() + resumedFailures, batch.quarantined(),
              batch.wallSeconds, batch.evaluations, 100.0 * batch.hitRate(),
              static_cast<unsigned long long>(batch.cacheHits),
              static_cast<unsigned long long>(batch.cacheHits +
                                              batch.cacheMisses));
  if (!resumed.empty()) std::printf(", %zu resumed", resumed.size());
  if (!cacheName(o).empty())
    std::printf(", %zu cached entries in %s", orch.cache().size(),
                cacheName(o).c_str());
  std::printf("\n");
  if (batch.faults.total() > 0 || batch.faults.retries > 0)
    std::printf("evaluation failures survived: %s\n",
                faultSummary(batch.faults).c_str());
  for (const auto& k : resumed)
    if (!k.result.ok)
      std::fprintf(stderr, "FAILED %s: %s\n", k.name.c_str(),
                   k.result.error.c_str());
  for (const auto& k : batch.kernels)
    if (!k.result.ok)
      std::fprintf(stderr, "FAILED %s: %s\n", k.name.c_str(),
                   k.result.error.c_str());

  if (!o.wisdomPath.empty()) {
    // Every record is already on disk (recordWisdom saves per kernel); this
    // final save only matters when the batch adopted nothing, so the file
    // still exists and reflects what was loaded.
    std::string werr;
    if (!wis.save(o.wisdomPath, &werr)) {
      std::fprintf(stderr, "tune-all: wisdom save failed: %s\n", werr.c_str());
      return 1;
    }
    std::printf("wisdom: %zu result(s) adopted (%zu records in %s)\n",
                adopted, wis.size(), o.wisdomPath.c_str());
  }
  return batch.failures() + resumedFailures == 0 ? 0 : 1;
}

int cmdSim(const std::string& src, const Options& o) {
  std::string error;
  auto fn = ir::parse(src, &error);
  if (!fn) {
    std::fprintf(stderr, "IR parse failed: %s\n", error.c_str());
    return 1;
  }
  auto problems = ir::verify(*fn);
  if (!problems.empty()) {
    std::fprintf(stderr, "IR verification failed: %s\n", problems[0].c_str());
    return 1;
  }
  auto t = fko::timeCompiled(o.machine, *fn, o.n, o.context);
  std::printf("%s, N=%lld, %s: %llu cycles (%.3f cycles/element, "
              "%llu dynamic instructions)\n",
              o.machine.name.c_str(), static_cast<long long>(o.n),
              std::string(sim::contextName(o.context)).c_str(),
              static_cast<unsigned long long>(t.cycles),
              static_cast<double>(t.cycles) / static_cast<double>(o.n),
              static_cast<unsigned long long>(t.dynInsts));
  return 0;
}

int cmdServe(const Options& o) {
  if (o.socketPath.empty() && o.tcpPort < 0) {
    std::fprintf(stderr,
                 "serve: need --socket=PATH or --port=N (0 = ephemeral)\n");
    return 2;
  }
  serve::ServeConfig cfg;
  cfg.orchestrator = orchestratorConfig(o);
  cfg.defaultArch = o.machine.name == "Opteron" ? "opteron" : "p4e";
  cfg.wisdomPath = o.wisdomPath;
  cfg.kernelsDir = o.kernelsDir;
  cfg.recvTimeoutMs = static_cast<int>(o.recvTimeoutMs);
  std::string warn;
  serve::Daemon daemon(cfg, &warn);
  if (!warn.empty()) std::fputs(warn.c_str(), stderr);  // one warning per line

  std::string err;
  const bool listening = o.socketPath.empty()
                             ? daemon.listenTcp(static_cast<int>(o.tcpPort), &err)
                             : daemon.listenUnix(o.socketPath, &err);
  if (!listening) {
    std::fprintf(stderr, "serve: %s\n", err.c_str());
    return 1;
  }
  if (o.socketPath.empty()) {
    std::fprintf(stderr,
                 "ifko serve: listening on 127.0.0.1:%d (%zu kernels, %zu "
                 "wisdom records)\n",
                 daemon.boundPort(), daemon.kernelNames().size(),
                 daemon.store().size());
    // Machine-readable line for scripts that asked for an ephemeral port.
    std::printf("PORT %d\n", daemon.boundPort());
    std::fflush(stdout);
  } else {
    std::fprintf(stderr,
                 "ifko serve: listening on %s (%zu kernels, %zu wisdom "
                 "records)\n",
                 o.socketPath.c_str(), daemon.kernelNames().size(),
                 daemon.store().size());
  }

  const int rc = daemon.run(&err);
  if (rc != 0) {
    std::fprintf(stderr, "serve: %s\n", err.c_str());
    return rc;
  }
  const serve::ServeStats& s = daemon.stats();
  std::fprintf(stderr,
               "ifko serve: shutdown after %llu requests (%llu wisdom hits, "
               "%llu tuned, %llu evaluations, %llu errors)\n",
               static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.wisdomExact + s.wisdomNear),
               static_cast<unsigned long long>(s.tuned),
               static_cast<unsigned long long>(s.evaluations),
               static_cast<unsigned long long>(s.errors));
  return 0;
}

int cmdQuery(const std::string& kernel, const Options& o) {
  if (o.socketPath.empty() && o.tcpPort < 0) {
    std::fprintf(stderr, "query: need --socket=PATH or --port=N\n");
    return 2;
  }
  serve::Request req;
  req.verb = o.queryVerb;
  const bool kernelVerb = req.verb == serve::Request::Verb::Query ||
                          req.verb == serve::Request::Verb::Tune ||
                          req.verb == serve::Request::Verb::Explain;
  if (kernelVerb) {
    if (kernel.empty()) {
      std::fprintf(stderr,
                   "query: need a kernel name (or --stats, --export, "
                   "--shutdown)\n");
      return 2;
    }
    req.target = kernel;
    req.arch = o.archFlag;
    req.context = o.contextFlag;
    if (o.nSet) req.n = o.n;
  } else if (req.verb == serve::Request::Verb::Export) {
    req.target = o.exportPath;
  }

  serve::Endpoint ep;
  ep.unixPath = o.socketPath;
  ep.tcpPort = static_cast<int>(std::max<int64_t>(o.tcpPort, 0));
  std::string err;
  const std::optional<std::string> resp = serve::requestOnce(ep, req, &err);
  if (!resp.has_value()) {
    std::fprintf(stderr, "query: %s\n", err.c_str());
    return 1;
  }
  std::printf("%s\n", resp->c_str());

  std::map<std::string, JsonValue> obj;
  if (!parseJsonObject(*resp, &obj)) {
    std::fprintf(stderr, "query: daemon sent a malformed response\n");
    return 1;
  }
  const auto it = obj.find("ok");
  return it != obj.end() && it->second.kind == JsonValue::Kind::Bool &&
                 it->second.boolean
             ? 0
             : 1;
}

// --- fleet verbs: cache-merge, wisdom-merge, federate -----------------------

/// `ifko cache-merge <out> --from=FILE_OR_DIR...`: offline set union of
/// eval-cache shards.  A --from naming a directory expands to every
/// cache.*.jsonl shard inside it; records are pure functions of their keys,
/// so dedup keeps the first occurrence and the output is byte-identical
/// regardless of input order.
int cmdCacheMerge(const std::string& out, const Options& o) {
  if (o.fromPaths.empty()) {
    std::fprintf(stderr,
                 "cache-merge: need at least one --from=FILE_OR_DIR\n");
    return 2;
  }
  std::vector<std::string> inputs;
  for (const std::string& from : o.fromPaths) {
    std::error_code ec;
    if (std::filesystem::is_directory(from, ec)) {
      std::string derr;
      std::vector<std::string> shards =
          search::EvalCache::shardFiles(from, &derr);
      if (!derr.empty()) {
        std::fprintf(stderr, "cache-merge: %s\n", derr.c_str());
        return 1;
      }
      if (shards.empty())
        std::fprintf(stderr,
                     "cache-merge: warning: no cache.*.jsonl shards in %s\n",
                     from.c_str());
      inputs.insert(inputs.end(), shards.begin(), shards.end());
    } else {
      inputs.push_back(from);
    }
  }
  std::string err;
  search::CacheMergeStats stats;
  if (!search::EvalCache::mergeFiles(inputs, out, &err, &stats)) {
    std::fprintf(stderr, "cache-merge: %s\n", err.c_str());
    return 1;
  }
  std::printf("merged %zu files: %zu unique records (%zu duplicates "
              "dropped, %zu damaged skipped) -> %s\n",
              stats.files, stats.unique, stats.duplicates, stats.damaged,
              out.c_str());
  return 0;
}

/// `ifko wisdom-merge <out> --from=FILE...`: keep-best union of wisdom
/// files.  Lower best_cycles wins and ties keep the incumbent, so the merge
/// is order-independent; the save is sorted, so merging the per-worker
/// stores of a partitioned tune-all reproduces the single-process file
/// byte for byte.
int cmdWisdomMerge(const std::string& out, const Options& o) {
  if (o.fromPaths.empty()) {
    std::fprintf(stderr, "wisdom-merge: need at least one --from=FILE\n");
    return 2;
  }
  wisdom::WisdomStore merged;
  for (const std::string& from : o.fromPaths)
    loadWisdomWarn(merged, from, "wisdom-merge");
  std::string err;
  if (!merged.save(out, &err)) {
    std::fprintf(stderr, "wisdom-merge: %s\n", err.c_str());
    return 1;
  }
  std::printf("merged %zu files: %zu records -> %s\n", o.fromPaths.size(),
              merged.size(), out.c_str());
  return 0;
}

/// `ifko federate <peer>`: two-way keep-best wisdom exchange between a
/// local daemon (--socket/--port) and a peer daemon (<peer> = a port
/// number or a Unix socket path).  Each side EXPORTs to a temp file the
/// other side IMPORTs — both daemons are loopback-only by design, so
/// federation assumes a shared filesystem.
int cmdFederate(const std::string& peer, const Options& o) {
  if (o.socketPath.empty() && o.tcpPort < 0) {
    std::fprintf(stderr,
                 "federate: need --socket=PATH or --port=N for the local "
                 "daemon\n");
    return 2;
  }
  if (peer.empty()) {
    std::fprintf(stderr,
                 "federate: need a peer (a port number or a socket path)\n");
    return 2;
  }
  serve::Endpoint local;
  local.unixPath = o.socketPath;
  local.tcpPort = static_cast<int>(std::max<int64_t>(o.tcpPort, 0));
  serve::Endpoint remote;
  bool peerIsPort = true;
  for (char c : peer) peerIsPort = peerIsPort && c >= '0' && c <= '9';
  if (peerIsPort) {
    // Strict parse with a TCP range check: "99999999" must be an error,
    // never a silently truncated (or zero) port.
    int64_t port = 0;
    if (!parseInt64(peer, &port) || port < 1 || port > 65535) {
      std::fprintf(stderr,
                   "federate: bad peer port '%s' (want an integer in "
                   "1..65535, or a socket path)\n",
                   peer.c_str());
      return 2;
    }
    remote.tcpPort = static_cast<int>(port);
  } else {
    remote.unixPath = peer;
  }

  auto call = [&](const serve::Endpoint& ep, serve::Request req,
                  const char* what)
      -> std::optional<std::map<std::string, JsonValue>> {
    std::string err;
    const std::optional<std::string> resp = serve::requestOnce(ep, req, &err);
    if (!resp.has_value()) {
      std::fprintf(stderr, "federate: %s: %s\n", what, err.c_str());
      return std::nullopt;
    }
    std::map<std::string, JsonValue> obj;
    if (!parseJsonObject(*resp, &obj)) {
      std::fprintf(stderr, "federate: %s: malformed response: %s\n", what,
                   resp->c_str());
      return std::nullopt;
    }
    const auto ok = obj.find("ok");
    if (ok == obj.end() || ok->second.kind != JsonValue::Kind::Bool ||
        !ok->second.boolean) {
      const auto msg = obj.find("error");
      std::fprintf(stderr, "federate: %s: %s\n", what,
                   msg != obj.end() ? msg->second.string.c_str()
                                    : resp->c_str());
      return std::nullopt;
    }
    return obj;
  };
  auto adoptedOf = [](const std::map<std::string, JsonValue>& obj) {
    const auto it = obj.find("adopted");
    return it != obj.end() ? it->second.asUint() : 0;
  };

  const std::string base =
      "/tmp/ifko.federate." + std::to_string(static_cast<long>(::getpid()));
  const std::string peerFile = base + ".peer.jsonl";
  const std::string localFile = base + ".local.jsonl";
  auto cleanup = [&] {
    std::remove(peerFile.c_str());
    std::remove(localFile.c_str());
  };

  serve::Request exp;
  exp.verb = serve::Request::Verb::Export;
  serve::Request imp;
  imp.verb = serve::Request::Verb::Import;

  exp.target = peerFile;
  if (!call(remote, exp, "peer EXPORT")) return 1;
  imp.target = peerFile;
  const auto localImport = call(local, imp, "local IMPORT");
  if (!localImport) {
    cleanup();
    return 1;
  }
  exp.target = localFile;
  if (!call(local, exp, "local EXPORT")) {
    cleanup();
    return 1;
  }
  imp.target = localFile;
  const auto peerImport = call(remote, imp, "peer IMPORT");
  cleanup();
  if (!peerImport) return 1;

  std::printf("federated with %s: adopted %llu record(s) from the peer, "
              "peer adopted %llu of ours\n",
              peer.c_str(),
              static_cast<unsigned long long>(adoptedOf(*localImport)),
              static_cast<unsigned long long>(adoptedOf(*peerImport)));
  return 0;
}

// --- the verb table ---------------------------------------------------------

/// One driver verb.  The usage text and main()'s dispatch are both generated
/// from kVerbs, so the two can never drift apart.
struct VerbSpec {
  const char* name;
  const char* argHelp;  ///< "" = no positional argument
  const char* summary;  ///< one usage line
  bool needsArg;        ///< the positional argument is required
  bool readsFile;       ///< the argument is a file whose contents `run` gets
  int (*run)(const std::string& arg, const std::string& src, const Options& o);
};

const VerbSpec kVerbs[] = {
    {"analyze", "<file.hil>", "what FKO's analysis reports to the search",
     true, true,
     [](const std::string&, const std::string& src, const Options& o) {
       return cmdAnalyze(src, o);
     }},
    {"compile", "<file.hil>", "one FKO compile with explicit parameters",
     true, true,
     [](const std::string&, const std::string& src, const Options& o) {
       return cmdCompile(src, o, /*alsoRun=*/false);
     }},
    {"run", "<file.hil>", "compile, check, and time on the simulated machine",
     true, true,
     [](const std::string&, const std::string& src, const Options& o) {
       return cmdCompile(src, o, /*alsoRun=*/true);
     }},
    {"tune", "<file.hil>",
     "the empirical search (--wisdom warm-starts and records it)", true, true,
     [](const std::string& arg, const std::string& src, const Options& o) {
       return cmdTune(arg, src, o);
     }},
    {"tune-all", "<dir>", "batch-tune every *.hil kernel in <dir>", true,
     false,
     [](const std::string& arg, const std::string&, const Options& o) {
       return cmdTuneAll(arg, o);
     }},
    {"explain", "<file.hil>", "attribute the winner's cycles cause by cause",
     true, true,
     [](const std::string& arg, const std::string& src, const Options& o) {
       return cmdExplain(arg, src, o);
     }},
    {"sim", "<file.ir>", "time a textual IR dump on the simulated machine",
     true, true,
     [](const std::string&, const std::string& src, const Options& o) {
       return cmdSim(src, o);
     }},
    {"serve", "",
     "tuning daemon over --socket/--port (docs/SERVING.md)", false, false,
     [](const std::string&, const std::string&, const Options& o) {
       return cmdServe(o);
     }},
    {"query", "[<kernel>]", "client for a running serve daemon", false, false,
     [](const std::string& arg, const std::string&, const Options& o) {
       return cmdQuery(arg, o);
     }},
    {"cache-merge", "<out>",
     "set-union eval-cache shards (--from=FILE_OR_DIR...)", true, false,
     [](const std::string& arg, const std::string&, const Options& o) {
       return cmdCacheMerge(arg, o);
     }},
    {"wisdom-merge", "<out>", "keep-best merge wisdom files (--from=FILE...)",
     true, false,
     [](const std::string& arg, const std::string&, const Options& o) {
       return cmdWisdomMerge(arg, o);
     }},
    {"federate", "<peer>",
     "two-way wisdom exchange between serve daemons", true, false,
     [](const std::string& arg, const std::string&, const Options& o) {
       return cmdFederate(arg, o);
     }},
};

int usage() {
  std::string verbs;
  for (const VerbSpec& v : kVerbs) {
    if (!verbs.empty()) verbs += "|";
    verbs += v.name;
  }
  std::fprintf(stderr, "usage: ifko <%s> [<arg>] [options]\n", verbs.c_str());
  for (const VerbSpec& v : kVerbs)
    std::fprintf(stderr, "  %-8s %-11s %s\n", v.name, v.argHelp, v.summary);
  std::fprintf(stderr,
               "see the header of src/driver/main.cpp, docs/TUNING.md, "
               "docs/SERVING.md\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const VerbSpec* verb = nullptr;
  for (const VerbSpec& v : kVerbs)
    if (std::strcmp(argv[1], v.name) == 0) verb = &v;
  if (verb == nullptr) return usage();

  const bool hasArg = argc > 2 && argv[2][0] != '-';
  if (verb->needsArg && !hasArg) return usage();
  Options o = parseOptions(argc, argv, hasArg ? 3 : 2);
  if (!o.ok) return 2;

  const std::string arg = hasArg ? argv[2] : "";
  std::string src;
  if (verb->readsFile) {
    auto contents = readFile(arg);
    if (!contents) {
      std::fprintf(stderr, "cannot read '%s'\n", arg.c_str());
      return 1;
    }
    src = std::move(*contents);
  }
  return verb->run(arg, src, o);
}
