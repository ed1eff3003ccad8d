#include "wisdom/harvest.h"

#include "opt/params.h"
#include "support/hash.h"

namespace ifko::wisdom {

WisdomKey keyFor(const std::string& source, const arch::MachineConfig& machine,
                 sim::TimeContext context, int64_t n) {
  return {hashHex(source), machine.name, std::string(sim::contextName(context)),
          nClassFor(n)};
}

WisdomRecord harvestRecord(const WisdomKey& key, const std::string& kernel,
                           const std::string& runId,
                           const search::TuneResult& result,
                           const search::SearchConfig& config,
                           search::EvalCache* cache) {
  WisdomRecord rec;
  rec.key = key;
  rec.kernel = kernel;
  rec.params = opt::formatTuningSpec(result.best);
  rec.bestCycles = result.bestCycles;
  rec.defaultCycles = result.defaultCycles;
  rec.evaluations = result.evaluations;
  rec.runId = runId;
  if (cache != nullptr) {
    const search::EvalKey winner{key.sourceHash, key.machine, key.context,
                                 config.n,       config.seed, config.testerN,
                                 rec.params};
    if (const std::optional<search::EvalRecord> cached = cache->lookup(winner);
        cached.has_value() && cached->counters.has_value())
      applyCounters(rec, *cached->counters);
  }
  return rec;
}

bool recordResult(WisdomStore& store, search::Orchestrator& orch,
                  const search::KernelJob& job, const std::string& who,
                  const search::TuneResult& result) {
  if (!result.ok) return false;
  const search::SearchConfig& config = orch.config().search;
  return store.record(harvestRecord(
      keyFor(job.hilSource, orch.machine(), config.context, config.n),
      job.name,
      who + "/" + std::string(search::strategyName(orch.config().strategy)),
      result, config, &orch.cache()));
}

search::BatchOutcome tune(
    search::Orchestrator& orch, WisdomStore& store,
    std::vector<search::KernelJob> jobs, const std::string& who,
    const std::function<void(const search::KernelOutcome&,
                             const KernelWisdom&)>& onKernel) {
  const search::SearchConfig& config = orch.config().search;
  std::vector<KernelWisdom> seen(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    // Deferred until DEFAULTS is timed, so the kernel's own attribution
    // ranks its fallback records, and the store already holds what earlier
    // kernels of the batch recorded.
    jobs[i].warmStartProvider =
        [&store, &warm = seen[i].warmStart,
         key = keyFor(jobs[i].hilSource, orch.machine(), config.context,
                      config.n)](const search::EvalOutcome& def)
        -> std::optional<opt::TuningParams> {
      std::optional<AttrShares> probe;
      if (def.counters.has_value()) probe = attrSharesFrom(*def.counters);
      const WisdomMatch m =
          store.find(key, probe.has_value() ? &*probe : nullptr);
      if (!m.hit()) return std::nullopt;
      const opt::TuningSpec seed = opt::parseTuningSpec(m.record->params);
      if (!seed.ok) return std::nullopt;
      warm = WarmStart{m.kind, m.record->params};
      return seed.params;
    };
  }
  size_t next = 0;  // tuneAll reports the kernels in job order
  return orch.tuneAll(jobs, [&](const search::KernelOutcome& k) {
    KernelWisdom& w = seen[next];
    w.adopted = recordResult(store, orch, jobs[next], who, k.result);
    ++next;
    if (onKernel) onKernel(k, w);
  });
}

}  // namespace ifko::wisdom
