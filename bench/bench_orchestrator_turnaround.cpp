// Ablation: search turnaround through the batch-tuning orchestrator.
//
// The paper accepts install-time tuning costs of minutes-to-hours because
// every evaluation is serial and forgotten; the orchestrator and the
// evaluation fast path attack all of it.  This bench tunes the same kernel
// set three ways and reports wall-clock turnaround and candidate
// evaluations per second:
//   fast serial      jobs=1, empty cache (pre-decoded execution, prefix
//                    compile reuse and cloned operands, as always)
//   parallel cold    jobs=N, empty cache  (thread-pool fan-out)
//   parallel warm    jobs=N, cache primed by the previous run (re-tune)
// The chosen parameters are identical in every row — parallelism and
// caching only change how long the answer takes; the bench FAILS if any
// row picks a different winner than the first.
//
// The fast-serial row's rates are written to BENCH_evalrate.json
// ({date, commit, kernels_per_s, evals_per_s}); when IFKO_EVALRATE_BASELINE
// names a committed baseline, an evals_per_s regression beyond 20% fails
// the run (the CI guard).
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness.h"
#include "search/orchestrator.h"
#include "support/json.h"

using namespace ifko;

namespace {

std::vector<search::KernelJob> benchJobs(bool fast) {
  const auto& all = kernels::allKernels();
  size_t count = fast ? 4 : all.size();
  std::vector<search::KernelJob> jobs;
  for (size_t i = 0; i < all.size() && jobs.size() < count; ++i)
    jobs.push_back({all[i].name(), all[i].hilSource(), &all[i]});
  return jobs;
}

/// evals_per_s from the committed baseline JSON, or 0 when absent/damaged.
double baselineEvalRate(const char* path) {
  std::ifstream in(path);
  if (!in) return 0.0;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::map<std::string, JsonValue> obj;
  if (!parseJsonObject(ss.str(), &obj)) return 0.0;
  auto it = obj.find("evals_per_s");
  if (it == obj.end() || it->second.kind != JsonValue::Kind::Number) return 0.0;
  return it->second.number;
}

}  // namespace

int main() {
  auto sz = bench::sizes();
  int jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 2) jobs = 2;
  if (jobs > 8) jobs = 8;

  const std::string cachePath = "bench_orchestrator_turnaround.cache.jsonl";
  std::remove(cachePath.c_str());

  auto kernelJobs = benchJobs(sz.fast);
  std::printf("=== Ablation: tuning turnaround, %zu kernels, p4e, ooc "
              "N=%lld ===\n\n",
              kernelJobs.size(), static_cast<long long>(sz.ooc));

  search::SearchConfig cfg =
      sz.fast ? search::SearchConfig::smoke() : search::SearchConfig{};
  cfg.n = sz.ooc;

  struct Row {
    const char* name;
    int jobs;
    bool useCache;
  };
  const Row rows[] = {
      {"fast serial", 1, false},
      {"parallel cold", jobs, true},  // primes the warm row
      {"parallel warm", jobs, true},
  };

  // One untimed serial pass first: a cold process (page faults, allocator
  // growth) runs its first pass measurably slower, and the gated
  // fast-serial rate must not depend on being the first row.
  {
    search::OrchestratorConfig warmup;
    warmup.search = cfg;
    search::Orchestrator orch(arch::p4e(), warmup);
    (void)orch.tuneAll(kernelJobs);
  }

  TextTable t;
  t.setHeader({"configuration", "jobs", "wall s", "speedup", "evals",
               "evals/s", "cache hit%"});
  double serialSeconds = 0.0;
  double fastKernelsPerS = 0.0, fastEvalsPerS = 0.0;
  std::vector<std::string> winners;  // per kernel, from the first row
  bool winnersAgree = true;
  for (const Row& row : rows) {
    search::OrchestratorConfig oc;
    oc.search = cfg;
    oc.search.jobs = row.jobs;
    if (row.useCache) oc.cachePath = cachePath;
    search::Orchestrator orch(arch::p4e(), oc);
    auto batch = orch.tuneAll(kernelJobs);
    if (serialSeconds == 0.0) serialSeconds = batch.wallSeconds;
    double speedup =
        batch.wallSeconds == 0.0 ? 0.0 : serialSeconds / batch.wallSeconds;
    double evalsPerS = batch.wallSeconds == 0.0
                           ? 0.0
                           : batch.evaluations / batch.wallSeconds;
    t.addRow({row.name, std::to_string(row.jobs),
              fmtFixed(batch.wallSeconds, 2), fmtFixed(speedup, 2) + "x",
              std::to_string(batch.evaluations), fmtFixed(evalsPerS, 0),
              fmtFixed(100.0 * batch.hitRate(), 1)});
    if (std::string(row.name) == "fast serial" && batch.wallSeconds > 0.0) {
      fastKernelsPerS = kernelJobs.size() / batch.wallSeconds;
      fastEvalsPerS = evalsPerS;
    }
    // The whole point of the ablation: every configuration returns the
    // same winners.  Collect them from the first row, compare the rest.
    std::vector<std::string> rowWinners;
    for (const auto& k : batch.kernels)
      rowWinners.push_back(k.result.ok ? opt::formatTuningSpec(k.result.best)
                                       : "FAILED: " + k.result.error);
    if (winners.empty()) {
      winners = rowWinners;
    } else if (rowWinners != winners) {
      winnersAgree = false;
      for (size_t i = 0; i < winners.size(); ++i)
        if (rowWinners[i] != winners[i])
          std::fprintf(stderr,
                       "WINNER MISMATCH [%s] %s:\n  serial: %s\n  this:   %s\n",
                       row.name, kernelJobs[i].name.c_str(),
                       winners[i].c_str(), rowWinners[i].c_str());
    }
  }
  std::fputs(t.str().c_str(), stdout);
  std::printf("\n(identical best parameters in every row; the warm row "
              "re-times nothing)\n");
  std::remove(cachePath.c_str());
  if (!winnersAgree) {
    std::fprintf(stderr,
                 "FAIL: rows disagree with the serial winners\n");
    return 1;
  }

  // Machine-readable rate record, from the single-thread row (thread count
  // would skew a parallel row): the figure the CI guard tracks.
  {
    std::time_t now = std::time(nullptr);
    char date[32];
    std::strftime(date, sizeof date, "%Y-%m-%d", std::gmtime(&now));
    const char* sha = std::getenv("GITHUB_SHA");
    JsonWriter w;
    w.field("date", std::string(date))
        .field("commit", std::string(sha != nullptr ? sha : "local"))
        .field("kernels_per_s", fastKernelsPerS)
        .field("evals_per_s", fastEvalsPerS);
    std::ofstream out("BENCH_evalrate.json");
    out << w.str() << "\n";
    std::printf("\nBENCH_evalrate.json: %s\n", w.str().c_str());
  }
  if (const char* basePath = std::getenv("IFKO_EVALRATE_BASELINE")) {
    double base = baselineEvalRate(basePath);
    if (base <= 0.0) {
      std::fprintf(stderr, "note: no usable baseline at %s\n", basePath);
    } else {
      double ratio = fastEvalsPerS / base;
      std::printf("evals/s vs baseline %s: %.0f / %.0f = %.2fx\n", basePath,
                  fastEvalsPerS, base, ratio);
      if (ratio < 0.8) {
        std::fprintf(stderr,
                     "FAIL: evals/s regressed >20%% vs committed baseline\n");
        return 1;
      }
    }
  }
  return 0;
}
