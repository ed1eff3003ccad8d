// The traced run's layer replay.
//
// No tracing lives inside src/, so the layer spans are taken from the
// benchmark's own files: every real (uncached) candidate evaluation the
// orchestrator wrote to its JSONL trace is replayed, in trace order,
// through a fresh search::EvalPipeline and the public hil, fko, kernels
// and sim calls, each wrapped in a span.  A kernel is replayed right after
// it was tuned, so the two are timed under the same host conditions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "search/evalcache.h"
#include "search/evalpipeline.h"
#include "wisdom/wisdom.h"

namespace perfbench {

/// One kernel's search as the trace recorded it: its kernel_start fields
/// and the real evaluations (cache "miss") that followed.
struct TraceGroup {
  std::string kernel;
  std::string machine;  ///< arch::MachineConfig::name
  std::string context;  ///< sim::contextName
  int64_t n = 0;
  std::vector<std::string> params;
  std::vector<uint64_t> cycles;  ///< 0 for failed candidates
  uint64_t proposals = 0;  ///< every candidate event, cached repeats too
};

/// Reads an orchestrator trace.  Empty with *error on a read failure.
[[nodiscard]] std::vector<TraceGroup> readTrace(const std::string& path,
                                                std::string* error);

/// Replays groups one at a time and sums their exact counts.
class Replay {
 public:
  /// `base` configures each group (its n and context come from the group).
  Replay(const search::SearchConfig& base, Spans& spans)
      : base_(base), spans_(spans) {}

  void group(const TraceGroup& g);

  /// Writes every count as {"type":"count",...}.  Returns the number of
  /// candidates whose replay disagrees with the trace (0 when the replay
  /// reproduces the search).
  uint64_t emit(Sink& sink) const;

  /// EvalCache appends and lookups on a fresh file in `dir` with the
  /// replayed candidates' keys, and WisdomStore record/find/save with
  /// `records`, each call in a span.
  void timeStores(const std::vector<wisdom::WisdomRecord>& records,
                  const std::string& dir, Sink& sink) const;

 private:
  search::SearchConfig base_;
  Spans& spans_;
  std::vector<search::EvalKey> keys_;
  uint64_t mismatches_ = 0, evals_ = 0, proposals_ = 0, timed_ = 0,
           compileCalls_ = 0, cycles_ = 0, dynInsts_ = 0,
           functionalInsts_ = 0, loads_ = 0, loadMissMem_ = 0,
           hwPrefetches_ = 0, prefDropped_ = 0, busBytes_ = 0,
           mispredicts_ = 0;
  search::EvalPipeline::Stats pipeline_;
};

}  // namespace perfbench
