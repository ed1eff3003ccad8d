#include "search/orchestrator.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "search/threadpool.h"
#include "support/hash.h"
#include "support/json.h"

namespace ifko::search {

namespace {

/// Thrown by OrchestratedEvaluator (on the orchestrator thread, after a
/// batch drains) when a kernel crosses the quarantine threshold; caught by
/// Orchestrator::tune, which turns it into a failed-with-diagnostic
/// outcome.  Never escapes the orchestrator.
struct QuarantineSignal {
  FailureCounts faults;
};

}  // namespace

/// The evaluator every search runs through: consults the EvalCache, fans
/// cache misses out to the pool, and emits candidate/dimension trace
/// events.  Lookups, inserts, and trace writes all happen on the
/// orchestrator thread; workers only run the pure evaluateCandidate.
class OrchestratedEvaluator {
 public:
  OrchestratedEvaluator(Orchestrator& orch, const KernelJob& job)
      : orch_(orch), job_(job),
        pipeline_(job.hilSource, job.spec, orch.machine_, orch.config_.search),
        baseKey_{hashHex(job.hilSource),
                 orch.machine_.name,
                 std::string(sim::contextName(orch.config_.search.context)),
                 orch.config_.search.n,
                 orch.config_.search.seed,
                 orch.config_.search.testerN,
                 /*params=*/""} {}

  /// The kernel's front-end analysis (lowered and analyzed once, by the
  /// pipeline).
  [[nodiscard]] const fko::AnalysisReport& analysis() const {
    return pipeline_.analysis();
  }

  /// Evaluates batch[i] -> result[i].  `dimension` names the current search
  /// dimension ("DEFAULTS", "WNT", "PF DST", ...) for the trace.
  std::vector<EvalOutcome> evaluateBatch(
      const std::vector<opt::TuningParams>& batch,
      const std::string& dimension) {
    if (dimension != lastDim_) {
      lastDim_ = dimension;
      JsonWriter w;
      w.field("event", "dimension_start")
          .field("kernel", job_.name)
          .field("dim", dimension);
      orch_.trace(w.str());
    }

    const size_t count = batch.size();
    std::vector<EvalOutcome> out(count);
    std::vector<std::string> specs(count);
    // Cache pre-pass; first occurrence of each missing key gets evaluated,
    // duplicates (none in practice — the sweeps build distinct candidates)
    // copy its result.  A hit replays the recorded failure status, so warm
    // runs reproduce cold-run outcomes faithfully.
    std::vector<size_t> missIdx;
    std::unordered_map<std::string, size_t> firstMiss;
    std::vector<size_t> copyFrom(count, SIZE_MAX);
    for (size_t i = 0; i < count; ++i) {
      specs[i] = opt::formatTuningSpec(batch[i]);
      auto cached = orch_.cache_->lookup(keyFor(specs[i]));
      if (cached.has_value()) {
        out[i] = {cached->cycles, cached->status, /*fromCache=*/true};
        out[i].counters = cached->counters;
        continue;
      }
      auto [it, inserted] = firstMiss.emplace(specs[i], i);
      if (inserted) missIdx.push_back(i);
      else copyFrom[i] = it->second;
    }

    FaultInjector* injector =
        orch_.injector_.empty() ? nullptr : &orch_.injector_;
    // guardedEvaluateCandidate never throws — workers cannot unwind — but
    // parallelFor would contain and rethrow an exception here regardless.
    auto evalOne = [&](size_t k) {
      EvalRequest req = pipeline_.request(batch[missIdx[k]]);
      req.injector = injector;
      out[missIdx[k]] = guardedEvaluateCandidate(req);
    };
    if (orch_.pool_ != nullptr) {
      orch_.pool_->parallelFor(missIdx.size(), evalOne);
    } else {
      for (size_t k = 0; k < missIdx.size(); ++k) evalOne(k);
    }

    for (size_t i : missIdx) {
      orch_.cache_->insert(keyFor(specs[i]), out[i].cycles, out[i].status,
                           out[i].counters);
      faults_.add(out[i]);
      ++evaluations_;
    }
    for (size_t i = 0; i < count; ++i)
      if (copyFrom[i] != SIZE_MAX) {
        out[i] = out[copyFrom[i]];
        out[i].fromCache = true;
        out[i].attempts = 1;
      }

    if (orch_.trace_ != nullptr) {
      for (size_t i = 0; i < count; ++i) {
        JsonWriter w;
        w.field("event", "candidate")
            .field("kernel", job_.name)
            .field("dim", dimension)
            .field("params", specs[i])
            .field("cycles", out[i].cycles)
            .field("cache", out[i].fromCache ? "hit" : "miss")
            .field("verdict", out[i].status == EvalOutcome::Status::Timed
                                  ? "pass"
                                  : evalStatusName(out[i].status));
        if (out[i].attempts > 1) w.field("attempts", out[i].attempts);
        // Trace v3: timed candidates carry their observability counters.
        if (out[i].counters.has_value())
          w.field("counters", countersJson(*out[i].counters));
        orch_.trace(w.str());
      }
    }

    // Quarantine check, on the orchestrator thread after the whole batch
    // drained (and was cached/traced): a kernel that keeps hard-failing is
    // abandoned rather than allowed to poison the rest of the batch.
    const int threshold = orch_.config_.quarantineAfter;
    if (threshold > 0 && faults_.hard() >= threshold)
      throw QuarantineSignal{faults_};
    return out;
  }

  [[nodiscard]] const FailureCounts& faults() const { return faults_; }

  /// Real (non-cached) compile+test+time evaluations performed so far.
  [[nodiscard]] int evaluations() const { return evaluations_; }

  /// Called when a dimension's sweep finishes, with its committed best.
  void onDimensionEnd(const std::string& dimension, uint64_t bestCycles,
                      const opt::TuningParams& best) {
    JsonWriter w;
    w.field("event", "dimension_end")
        .field("kernel", job_.name)
        .field("dim", dimension)
        .field("best_cycles", bestCycles)
        .field("best_params", opt::formatTuningSpec(best));
    orch_.trace(w.str());
  }

 private:
  EvalKey keyFor(const std::string& spec) const {
    EvalKey k = baseKey_;
    k.params = spec;
    return k;
  }

  Orchestrator& orch_;
  const KernelJob& job_;
  EvalPipeline pipeline_;
  EvalKey baseKey_;
  std::string lastDim_;
  int evaluations_ = 0;
  FailureCounts faults_;
};

namespace {

/// The fixed batch-size ceiling handed to propose().  Deliberately not
/// derived from config.jobs: the hint shapes the proposal sequence, and
/// that sequence must be identical at every --jobs value.
constexpr int kBatchHint = 16;

/// The strategy driver loop (search/strategy/strategy.h has the contract):
/// evaluates the strategy's proposals through `eval` until the strategy
/// finishes or the budget is spent, tracking the best-so-far frontier and
/// relaying the strategy's ledger as dimension_end events.
///
/// The job's warm start (the parameters its provider picks once the
/// DEFAULTS outcome is known) is evaluated immediately after DEFAULTS as
/// the "WISDOM" dimension, so it becomes the incumbent the search must
/// beat.  It counts against the budget like any observed candidate but is
/// never reported to the strategy: proposal sequences are identical with
/// or without it.
TuneResult runStrategySearch(const KernelJob& job,
                             const arch::MachineConfig& machine,
                             const SearchConfig& config,
                             SearchStrategy& strategy, const Budget& budget,
                             OrchestratedEvaluator& eval) {
  TuneResult result;
  result.analysis = eval.analysis();
  if (!result.analysis.ok) {
    result.error = result.analysis.error;
    return result;
  }

  const opt::ParamSpace space = spaceFor(result.analysis, machine, config);
  const opt::TuningParams defaults = fkoDefaults(result.analysis, machine);
  result.defaults = defaults;
  strategy.init(space, defaults);

  // The DEFAULTS point anchors every strategy (and the budget: it is
  // proposal #1, so a warm cache cannot change the trajectory).
  const EvalOutcome def = eval.evaluateBatch({defaults}, "DEFAULTS")[0];
  if (def.cycles == 0) {
    result.error = "default parameters failed to compile/time";
    result.evaluations = eval.evaluations();
    return result;
  }
  strategy.observe(defaults, def);
  result.defaultCycles = def.cycles;

  opt::TuningParams best = defaults;
  uint64_t bestCycles = def.cycles;
  int proposals = 1;
  uint64_t cyclesSpent = def.cycles;
  result.frontier.push_back({proposals, bestCycles});

  // Warm start: time the remembered winner once, up front.  A failing or
  // slower-than-defaults warm point simply never becomes the incumbent —
  // stale wisdom can cost one evaluation, never the result.  The provider
  // sees the DEFAULTS outcome first, so a wisdom lookup can rank its
  // candidates by similarity to this kernel's own attribution.
  const std::optional<opt::TuningParams> warmStart =
      job.warmStartProvider ? job.warmStartProvider(def) : std::nullopt;
  if (warmStart.has_value() && !(*warmStart == defaults)) {
    const EvalOutcome warm = eval.evaluateBatch({*warmStart}, "WISDOM")[0];
    ++proposals;
    cyclesSpent += warm.cycles;
    if (warm.usable() && warm.cycles < bestCycles) {
      bestCycles = warm.cycles;
      best = *warmStart;
      result.frontier.push_back({proposals, bestCycles});
    }
  }

  // Relays new dimension-ledger entries to the evaluator as dimension_end
  // events, preserving the evaluate -> dimension_end -> next-dimension
  // order the line search has always traced.
  size_t ledgerSent = 0;
  auto flushLedger = [&] {
    std::vector<DimensionResult> led = strategy.ledger();
    for (; ledgerSent < led.size(); ++ledgerSent)
      eval.onDimensionEnd(led[ledgerSent].name, led[ledgerSent].cyclesAfter,
                          best);
  };

  auto budgetSpent = [&] {
    if (budget.maxEvaluations > 0 && proposals >= budget.maxEvaluations)
      return true;
    if (budget.maxCycles > 0 && cyclesSpent >= budget.maxCycles) return true;
    return false;
  };

  while (!budgetSpent() && !strategy.done()) {
    int hint = kBatchHint;
    if (budget.maxEvaluations > 0)
      hint = std::min(hint, budget.maxEvaluations - proposals);
    Proposal p = strategy.propose(hint);
    flushLedger();
    if (p.candidates.empty()) break;
    const std::vector<EvalOutcome> outcomes =
        eval.evaluateBatch(p.candidates, p.dimension);
    for (size_t i = 0; i < p.candidates.size(); ++i) {
      strategy.observe(p.candidates[i], outcomes[i]);
      ++proposals;
      cyclesSpent += outcomes[i].cycles;
      if (outcomes[i].cycles != 0 && outcomes[i].cycles < bestCycles) {
        bestCycles = outcomes[i].cycles;
        best = p.candidates[i];
        result.frontier.push_back({proposals, bestCycles});
      }
    }
  }
  flushLedger();

  result.best = best;
  result.bestCycles = bestCycles;
  result.ledger = strategy.ledger();
  result.evaluations = eval.evaluations();
  result.proposals = proposals;
  result.ok = true;
  return result;
}

}  // namespace

std::shared_ptr<EvalCache> openEvalCache(const OrchestratorConfig& config,
                                         std::string* error) {
  auto cache = std::make_shared<EvalCache>();
  std::string err;
  if (!config.cacheDir.empty()) {
    // Shard mode: load every worker's shard, append to our own only.  A
    // caller that names no shard gets a pid-unique one, so uncoordinated
    // processes sharing the directory can never interleave in one file.
    const std::string shard =
        config.cacheShard.empty()
            ? std::to_string(static_cast<long>(::getpid()))
            : config.cacheShard;
    cache->openDir(config.cacheDir, shard, &err);
  } else if (!config.cachePath.empty()) {
    cache->open(config.cachePath, &err);
  }
  if (error != nullptr) *error = err;
  return cache;
}

Orchestrator::Orchestrator(const arch::MachineConfig& machine,
                           OrchestratorConfig config, std::string* error)
    : Orchestrator(machine, std::move(config), SharedEvalState{}, error) {}

Orchestrator::Orchestrator(const arch::MachineConfig& machine,
                           OrchestratorConfig config, SharedEvalState shared,
                           std::string* error)
    : machine_(machine), config_(std::move(config)),
      cache_(std::move(shared.cache)), pool_(std::move(shared.pool)),
      injector_(config_.faultPlan) {
  config_.search.jobs = std::max(1, config_.search.jobs);
  std::string problems;
  if (cache_ == nullptr) cache_ = openEvalCache(config_, &problems);
  if (!config_.tracePath.empty()) {
    // Append, never truncate: earlier runs' events stay in the trace and
    // tools/tune_report splits runs on the run_start marker.
    trace_ = std::fopen(config_.tracePath.c_str(), "a");
    if (trace_ == nullptr) {
      if (!problems.empty()) problems += "; ";
      problems += "cannot open trace file '" + config_.tracePath + "'";
    }
  }
  if (pool_ == nullptr && config_.search.jobs > 1)
    pool_ = std::make_shared<detail::ThreadPool>(config_.search.jobs);
  {
    JsonWriter w;
    w.field("event", "run_start")
        .field("machine", machine_.name)
        .field("context", sim::contextName(config_.search.context))
        .field("n", config_.search.n)
        .field("jobs", config_.search.jobs)
        .field("strategy", std::string(strategyName(config_.strategy)))
        .field("eval_timeout_ms", config_.search.evalTimeoutMs)
        .field("max_attempts", std::max(1, config_.search.maxEvalAttempts));
    trace(w.str());
  }
  if (error != nullptr) *error = problems;
}

Orchestrator::~Orchestrator() {
  if (trace_ != nullptr) std::fclose(trace_);
}

void Orchestrator::trace(const std::string& jsonLine) {
  if (trace_ == nullptr) return;
  std::fputs((jsonLine + "\n").c_str(), trace_);
}

KernelOutcome Orchestrator::tune(const KernelJob& job) {
  KernelOutcome outcome;
  outcome.name = job.name;
  const uint64_t hits0 = cache_->hits();
  const uint64_t misses0 = cache_->misses();

  {
    JsonWriter w;
    w.field("event", "kernel_start")
        .field("kernel", job.name)
        .field("machine", machine_.name)
        .field("context", sim::contextName(config_.search.context))
        .field("n", config_.search.n)
        .field("jobs", std::max(1, config_.search.jobs))
        .field("strategy", std::string(strategyName(config_.strategy)));
    trace(w.str());
  }

  auto t0 = std::chrono::steady_clock::now();
  OrchestratedEvaluator eval(*this, job);
  std::unique_ptr<SearchStrategy> strategy =
      makeStrategy(config_.strategy, config_.budget);
  try {
    outcome.result = runStrategySearch(job, machine_, config_.search,
                                       *strategy, config_.budget, eval);
  } catch (const QuarantineSignal& q) {
    outcome.result = {};
    outcome.result.ok = false;
    outcome.result.error =
        "quarantined after " + std::to_string(q.faults.hard()) +
        " hard evaluation failures (" + std::to_string(q.faults.timeouts) +
        " timeouts, " + std::to_string(q.faults.crashes) + " crashes)";
    outcome.result.evaluations = eval.evaluations();
    outcome.quarantined = true;
    quarantined_.push_back({job.name, eval.faults()});
  }
  outcome.faults = eval.faults();
  outcome.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  outcome.cacheHits = cache_->hits() - hits0;
  outcome.cacheMisses = cache_->misses() - misses0;

  {
    JsonWriter w;
    w.field("event", "kernel_end")
        .field("kernel", job.name)
        .field("ok", outcome.result.ok);
    if (outcome.result.ok) {
      w.field("default_cycles", outcome.result.defaultCycles)
          .field("best_cycles", outcome.result.bestCycles)
          .field("best_params", opt::formatTuningSpec(outcome.result.best))
          .field("speedup", outcome.result.speedupOverDefaults())
          .field("evaluations", outcome.result.evaluations)
          .field("proposals", outcome.result.proposals);
    } else {
      w.field("error", outcome.result.error)
          .field("quarantined", outcome.quarantined);
    }
    w.field("timeouts", outcome.faults.timeouts)
        .field("crashes", outcome.faults.crashes)
        .field("tester_fails", outcome.faults.testerFails)
        .field("compile_fails", outcome.faults.compileFails)
        .field("retries", outcome.faults.retries)
        .field("cache_hits", outcome.cacheHits)
        .field("cache_misses", outcome.cacheMisses)
        .field("seconds", outcome.seconds);
    trace(w.str());
  }
  if (trace_ != nullptr) std::fflush(trace_);
  return outcome;
}

BatchOutcome Orchestrator::tuneAll(
    const std::vector<KernelJob>& jobs,
    const std::function<void(const KernelOutcome&)>& onKernel) {
  BatchOutcome batch;
  auto t0 = std::chrono::steady_clock::now();
  for (const KernelJob& job : jobs) {
    batch.kernels.push_back(tune(job));
    const KernelOutcome& o = batch.kernels.back();
    batch.cacheHits += o.cacheHits;
    batch.cacheMisses += o.cacheMisses;
    batch.evaluations += o.result.evaluations;
    batch.faults += o.faults;
    if (onKernel) onKernel(o);
  }
  batch.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  JsonWriter w;
  w.field("event", "batch_end")
      .field("kernels", static_cast<int64_t>(batch.kernels.size()))
      .field("failures", batch.failures())
      .field("quarantined", batch.quarantined())
      .field("evaluations", batch.evaluations)
      .field("timeouts", batch.faults.timeouts)
      .field("crashes", batch.faults.crashes)
      .field("cache_hits", batch.cacheHits)
      .field("cache_misses", batch.cacheMisses)
      .field("hit_rate", batch.hitRate())
      .field("seconds", batch.wallSeconds);
  trace(w.str());
  if (trace_ != nullptr) std::fflush(trace_);
  return batch;
}

std::vector<KernelJob> loadKernelDir(const std::string& dir,
                                     std::string* error) {
  namespace fs = std::filesystem;
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::vector<KernelJob>{};
  };
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return fail("'" + dir + "' is not a directory");

  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".hil")
      paths.push_back(entry.path());
  }
  if (ec) return fail("cannot list '" + dir + "': " + ec.message());
  if (paths.empty()) return fail("no .hil files in '" + dir + "'");
  std::sort(paths.begin(), paths.end());

  std::vector<KernelJob> jobs;
  for (const auto& p : paths) {
    std::ifstream in(p);
    if (!in) return fail("cannot read '" + p.string() + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    jobs.push_back({p.stem().string(), ss.str(), nullptr});
  }
  return jobs;
}

std::vector<KernelJob> workerSlice(std::vector<KernelJob> jobs, int workers,
                                   int workerId) {
  if (workers <= 1) return jobs;
  std::vector<KernelJob> mine;
  for (size_t i = 0; i < jobs.size(); ++i)
    if (static_cast<int>(i % static_cast<size_t>(workers)) == workerId)
      mine.push_back(std::move(jobs[i]));
  return mine;
}

}  // namespace ifko::search
