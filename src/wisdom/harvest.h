// The wisdom front door: `ifko tune`, `ifko tune-all` and the serve
// daemon's tune-on-miss path all tune through wisdom::tune().  Per kernel it
// keys the kernel (keyFor), warm-starts the search from the store once the
// DEFAULTS point is timed (its attribution is the similarity probe), and
// records the winner keep-best before the next kernel starts.  The record
// is harvestRecord's: winning spec, both cycle counts, evaluation count,
// provenance, and the winner's attribution summary out of the evaluation
// cache (the winner was just timed, so nothing is re-simulated).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "search/orchestrator.h"
#include "wisdom/wisdom.h"

namespace ifko::wisdom {

/// The one wisdom-key recipe: source hash, machine name, context, N-class.
[[nodiscard]] WisdomKey keyFor(const std::string& source,
                               const arch::MachineConfig& machine,
                               sim::TimeContext context, int64_t n);

/// Builds the record for a successful tune (`result.ok` assumed).  `config`
/// must be the SearchConfig the tune actually ran with (its n/seed/testerN
/// form the winner's cache key); `cache` may be null — the record then just
/// carries no attribution summary.
[[nodiscard]] WisdomRecord harvestRecord(const WisdomKey& key,
                                         const std::string& kernel,
                                         const std::string& runId,
                                         const search::TuneResult& result,
                                         const search::SearchConfig& config,
                                         search::EvalCache* cache);

/// Records `result`, a tune of `job` on `orch`, keep-best with run id
/// "<who>/<strategy>"; true when the store adopted it.  A failed result
/// records nothing.  tune-all --resume re-harvests its completed kernels
/// through this.
bool recordResult(WisdomStore& store, search::Orchestrator& orch,
                  const search::KernelJob& job, const std::string& who,
                  const search::TuneResult& result);

/// The record a kernel's search was seeded from.
struct WarmStart {
  MatchKind kind = MatchKind::Exact;
  std::string params;
};

/// What the store did around one kernel of a batch.
struct KernelWisdom {
  std::optional<WarmStart> warmStart;  ///< none = the search started cold
  bool adopted = false;                ///< the store took the winner
};

/// Tunes `jobs` on `orch` with `store` around the batch (see above).
/// `onKernel` (when given) runs after each kernel's record and before the
/// next kernel starts: the place to save the store, so a kill loses at
/// most the kernel in flight.
[[nodiscard]] search::BatchOutcome tune(
    search::Orchestrator& orch, WisdomStore& store,
    std::vector<search::KernelJob> jobs, const std::string& who,
    const std::function<void(const search::KernelOutcome&,
                             const KernelWisdom&)>& onKernel = {});

}  // namespace ifko::wisdom
