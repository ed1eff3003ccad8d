// Per-candidate observability counters (trace/cache schema v3).
//
// One EvalCounters bundles everything the observability layer measures for
// a successfully timed candidate: the simulator's per-cause cycle
// attribution (sim::Attribution — sums exactly to the candidate's cycles),
// the memory system's per-level counters, and the compile pipeline's
// summary (IR size, repeatable iterations and convergence, spills).  The
// same fixed field order is used for the JSON rendering everywhere it is
// surfaced — trace v3 candidate events, EvalCache v3 records — so records
// are bit-identical across --jobs and across runs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "fko/compiler.h"
#include "sim/timer.h"
#include "support/json.h"

namespace ifko::search {

struct EvalCounters {
  sim::Attribution attr;
  sim::MemSystem::Stats mem;
  uint64_t irInsts = 0;           ///< instructions in the compiled kernel
  uint64_t repeatableIters = 0;   ///< repeatable-block iterations that fired
  bool repeatableConverged = true;
  uint64_t spillSlots = 0;

  friend bool operator==(const EvalCounters&, const EvalCounters&) = default;
};

/// Gathers the counters from one compile + timing run.
[[nodiscard]] EvalCounters collectCounters(const fko::CompileResult& compiled,
                                           const sim::TimeResult& timed);

/// Renders the counters as a nested JSON object with a fixed field order
/// (attribution causes first, then memory counters, then compile info).
[[nodiscard]] JsonWriter countersJson(const EvalCounters& c);

/// Reads counters back from a parsed `counters` object.  Tolerant of
/// missing fields (they stay zero/default), so older v3 writers and newer
/// readers interoperate; nullopt when a present counter is not an unsigned
/// integer (a damaged record).
[[nodiscard]] std::optional<EvalCounters> parseCounters(
    const std::map<std::string, JsonValue>& obj);

}  // namespace ifko::search
