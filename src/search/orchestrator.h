// Parallel batch-tuning orchestrator: the evaluation loop as a service.
//
// The paper's empirical search pays a turnaround tax — hundreds of
// compile+test+time evaluations per kernel, serial in the original iFKO.
// The simulated evaluation is deterministic and side-effect-free (each
// candidate gets its own compile pipeline and sim::Memory), so independent
// candidates can fan out to a worker thread pool, every result can be
// memoized in a persistent content-addressed cache (evalcache.h), and the
// whole search can emit a structured JSONL event trace — none of which
// changes the chosen parameters: jobs=N, warm or cold, reproduces the
// serial search bit for bit.
//
// This is the only search path.  Every strategy, the paper's line search
// included, runs through the driver loop and evaluator in orchestrator.cpp;
// search::tuneKernel/tuneSource are one-kernel orchestrators with a
// memory-only cache, no trace and no quarantine.
//
// Ownership: each tune() builds one EvalPipeline for its kernel and drops
// it with the search; what outlives a search is the cache.  A one-shot
// run's orchestrator opens its own cache and pool from its config.  A
// long-lived owner (the serve daemon) instead opens one cache and one pool
// and lends them (SharedEvalState) to many orchestrators, one per
// (machine, context, N), so none of them re-reads the cache file or starts
// threads of its own.
//
// Evaluation is fault-isolated (search/faultguard.h): every candidate runs
// through guardedEvaluateCandidate — cooperative deadline, exception
// containment, bounded retry — so a crashing or hanging candidate scores a
// structured failure instead of killing the batch, and a kernel whose
// candidates keep hard-failing is quarantined (skipped with a diagnostic)
// rather than poisoning the rest of the run.
//
// Trace event schema (one flat JSON object per line; the trace file is
// opened in append mode, one run_start per run; see docs/TUNING.md):
//   run_start       machine, context, n, jobs, strategy, eval_timeout_ms,
//                   max_attempts
//   kernel_start    kernel, machine, context, n, jobs, strategy
//   dimension_start kernel, dim
//   candidate       kernel, dim, params, cycles, cache (hit|miss),
//                   verdict (pass|compile_fail|tester_fail|timeout|crash|
//                   fail), [attempts]
//   dimension_end   kernel, dim, best_cycles, best_params
//   kernel_end      kernel, ok, [error, quarantined] | [default_cycles,
//                   best_cycles, best_params, speedup, evaluations,
//                   proposals], timeouts, crashes, tester_fails,
//                   compile_fails, retries, cache_hits, cache_misses,
//                   seconds
//   batch_end       kernels, failures, quarantined, evaluations, timeouts,
//                   crashes, cache_hits, cache_misses, hit_rate, seconds
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "search/evalcache.h"
#include "search/evalpipeline.h"
#include "search/faultguard.h"
#include "search/linesearch.h"
#include "search/strategy/strategy.h"

namespace ifko::search {

struct OrchestratorConfig {
  /// search.jobs sizes the worker pool (values < 1 normalize to 1);
  /// search.evalTimeoutMs / maxEvalAttempts / retryBackoffMs set the
  /// fault-isolation policy (search/faultguard.h).
  SearchConfig search;
  std::string cachePath;  ///< persistent JSONL evaluation cache ("" = memory only)
  /// Sharded cache mode (takes precedence over cachePath): load every
  /// cache.*.jsonl shard in this directory, append new results to our own
  /// shard only (EvalCache::openDir) — the multi-process posture, where
  /// each worker owns one append-only file and merge is a later set union.
  std::string cacheDir;
  /// Shard name inside cacheDir; "" defaults to the process id, so
  /// uncoordinated workers never collide on a shard file.
  std::string cacheShard;
  std::string tracePath;  ///< JSONL event trace ("" = off); appended per run
  /// Search policy.  Every kind runs through the same strategy driver;
  /// Line is the paper's line search, whose results the committed registry
  /// fingerprint (tests/data/fingerprint.jsonl) holds.
  StrategyKind strategy = StrategyKind::Line;
  Budget budget;  ///< default: unlimited, seed 1
  /// Quarantine: once a kernel accumulates this many hard failures
  /// (Timeout/Crash, post-retry), its search is abandoned with a
  /// diagnostic instead of poisoning the batch.  0 = never quarantine.
  int quarantineAfter = 3;
  /// Deterministic fault injection for tests/benchmarks; empty = none.
  FaultPlan faultPlan;
};

/// One kernel to tune.  When `spec` names a surveyed BLAS kernel its
/// hand-written reference implementation checks the candidates; otherwise
/// they are tested differentially against the unoptimized lowering.
struct KernelJob {
  std::string name;
  std::string hilSource;
  const kernels::KernelSpec* spec = nullptr;
  /// Warm start, set by the wisdom front door (wisdom/harvest.h): called
  /// with the DEFAULTS outcome, and what it returns is timed right after
  /// DEFAULTS as the "WISDOM" dimension, the incumbent to beat.  The
  /// strategy never observes it, so proposal sequences stay identical.
  WarmStartFn warmStartProvider;
};

struct KernelOutcome {
  std::string name;
  TuneResult result;
  uint64_t cacheHits = 0;
  uint64_t cacheMisses = 0;
  double seconds = 0.0;
  /// Evaluation failures this kernel's search survived (post-retry).
  FailureCounts faults;
  /// The search was abandoned by the quarantine policy; result.ok is
  /// false and result.error carries the diagnostic.
  bool quarantined = false;
};

struct BatchOutcome {
  std::vector<KernelOutcome> kernels;
  uint64_t cacheHits = 0;
  uint64_t cacheMisses = 0;
  int evaluations = 0;  ///< real (uncached) compile+test+time evaluations
  double wallSeconds = 0.0;
  FailureCounts faults;  ///< summed over kernels

  [[nodiscard]] double hitRate() const {
    uint64_t total = cacheHits + cacheMisses;
    return total == 0
               ? 0.0
               : static_cast<double>(cacheHits) / static_cast<double>(total);
  }
  [[nodiscard]] int failures() const {
    int n = 0;
    for (const auto& k : kernels) n += k.result.ok ? 0 : 1;
    return n;
  }
  [[nodiscard]] int quarantined() const {
    int n = 0;
    for (const auto& k : kernels) n += k.quarantined ? 1 : 0;
    return n;
  }
};

namespace detail {
class ThreadPool;
}

/// Evaluation state a long-lived owner lends to many orchestrators: the
/// serve daemon opens one cache and one worker pool and shares them across
/// its per-(machine, context, N) orchestrators.  A null member means the
/// orchestrator creates its own from its config.  Sharing never changes a
/// result: EvalKey carries machine, context and N, and the pool only runs
/// the pure candidate evaluations.
struct SharedEvalState {
  std::shared_ptr<EvalCache> cache;
  /// Sized to config.search.jobs; lend one only when jobs > 1.
  std::shared_ptr<detail::ThreadPool> pool;
};

/// Opens the evaluation cache `config` names: the shard directory when
/// cacheDir is set (shard = cacheShard, or the process id), else the
/// cachePath file, else memory only.  A file problem is reported through
/// *error (when given) and leaves the returned cache memory-only.
[[nodiscard]] std::shared_ptr<EvalCache> openEvalCache(
    const OrchestratorConfig& config, std::string* error = nullptr);

/// Runs a batch of tuning searches on one machine model through a worker
/// pool, an evaluation cache and a trace stream.  It owns the trace; the
/// pool and the cache are its own unless borrowed through SharedEvalState.
class Orchestrator {
 public:
  /// Opens the trace file `config` names, and the cache and pool unless
  /// `shared` lends them (a borrowed cache ignores cachePath/cacheDir).
  /// File problems are reported through *error (when given); the
  /// orchestrator stays usable with the affected feature disabled, so
  /// callers decide severity.
  Orchestrator(const arch::MachineConfig& machine, OrchestratorConfig config,
               std::string* error = nullptr);
  Orchestrator(const arch::MachineConfig& machine, OrchestratorConfig config,
               SharedEvalState shared, std::string* error = nullptr);
  ~Orchestrator();
  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  /// Tunes one kernel through the parallel cached evaluator.
  [[nodiscard]] KernelOutcome tune(const KernelJob& job);

  /// Tunes every job in order (candidate-level parallelism keeps the
  /// per-kernel results independent of the batch composition).  `onKernel`
  /// (when given) runs on the orchestrator thread right after each
  /// kernel's outcome lands — the hook incremental consumers (per-kernel
  /// wisdom write-back, so a kill -9 loses at most the in-flight kernel)
  /// attach to.
  [[nodiscard]] BatchOutcome tuneAll(
      const std::vector<KernelJob>& jobs,
      const std::function<void(const KernelOutcome&)>& onKernel = {});

  [[nodiscard]] EvalCache& cache() { return *cache_; }
  /// Worker-pool width after normalization (always >= 1).
  [[nodiscard]] int jobs() const { return config_.search.jobs; }
  /// The machine model every search runs on.
  [[nodiscard]] const arch::MachineConfig& machine() const { return machine_; }
  /// The configuration every search runs with (jobs normalized).
  [[nodiscard]] const OrchestratorConfig& config() const { return config_; }

  /// Kernels the quarantine policy abandoned this run, with their tallies.
  struct QuarantineRecord {
    std::string kernel;
    FailureCounts faults;
  };
  [[nodiscard]] const std::vector<QuarantineRecord>& quarantined() const {
    return quarantined_;
  }

 private:
  void trace(const std::string& jsonLine);

  arch::MachineConfig machine_;
  OrchestratorConfig config_;
  std::shared_ptr<EvalCache> cache_;
  std::shared_ptr<detail::ThreadPool> pool_;  ///< null when jobs == 1
  std::FILE* trace_ = nullptr;
  FaultInjector injector_;
  std::vector<QuarantineRecord> quarantined_;

  friend class OrchestratedEvaluator;
};

/// Loads every *.hil file in `dir` as a KernelJob (name = file stem),
/// sorted by name.  Empty with *error set when the directory is missing,
/// unreadable, or holds no .hil files.
[[nodiscard]] std::vector<KernelJob> loadKernelDir(const std::string& dir,
                                                   std::string* error);

/// Deterministic registry partition for `tune-all --workers=N
/// --worker-id=K`: worker K keeps the jobs at indices i with
/// i % workers == workerId.  Every worker slicing the same (sorted) job
/// list covers it exactly once with no coordination — and because each
/// kernel's search is independent and deterministic, the union of the
/// workers' results is bit-identical to one process running the whole
/// list.
[[nodiscard]] std::vector<KernelJob> workerSlice(std::vector<KernelJob> jobs,
                                                 int workers, int workerId);

}  // namespace ifko::search
