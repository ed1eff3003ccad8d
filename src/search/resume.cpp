#include "search/resume.h"

#include <climits>
#include <fstream>
#include <optional>

#include "opt/params.h"
#include "support/json.h"

namespace ifko::search {

namespace {

std::string getStr(const std::map<std::string, JsonValue>& obj,
                   const char* key) {
  auto it = obj.find(key);
  return it != obj.end() && it->second.kind == JsonValue::Kind::String
             ? it->second.string
             : "";
}

/// An integer field; nullopt when missing or not an exact integer.
std::optional<int64_t> getInt(const std::map<std::string, JsonValue>& obj,
                              const char* key) {
  auto it = obj.find(key);
  return it != obj.end() ? it->second.intValue() : std::nullopt;
}

/// A provenance tally: 0 when missing (older traces), nullopt when present
/// but not an int-sized non-negative integer.
std::optional<int> getCount(const std::map<std::string, JsonValue>& obj,
                            const char* key) {
  if (obj.find(key) == obj.end()) return 0;
  const std::optional<int64_t> v = getInt(obj, key);
  if (!v || *v < 0 || *v > INT_MAX) return std::nullopt;
  return static_cast<int>(*v);
}

std::optional<uint64_t> getUint(const std::map<std::string, JsonValue>& obj,
                                const char* key) {
  auto it = obj.find(key);
  return it != obj.end() ? it->second.uintValue() : std::nullopt;
}

bool getBool(const std::map<std::string, JsonValue>& obj, const char* key) {
  auto it = obj.find(key);
  return it != obj.end() && it->second.kind == JsonValue::Kind::Bool &&
         it->second.boolean;
}

}  // namespace

ResumePlan loadResumePlan(const std::string& tracePath,
                          const std::string& machine,
                          const std::string& context, int64_t n,
                          const std::string& strategy, std::string* error) {
  ResumePlan plan;
  std::ifstream in(tracePath);
  if (!in) {
    if (error != nullptr)
      *error = "cannot read trace file '" + tracePath +
               "' (resume needs the interrupted run's --trace)";
    return plan;
  }
  // Kernels whose kernel_start matched this configuration and whose
  // kernel_end has not arrived yet — in flight when the run died, or from
  // another configuration (then never armed here at all).
  std::map<std::string, bool> armed;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::map<std::string, JsonValue> obj;
    if (!parseJsonObject(line, &obj)) {  // torn tail from the kill, usually
      ++plan.damagedLines;
      continue;
    }
    const std::string event = getStr(obj, "event");
    if (event == "run_start") {
      ++plan.runs;
    } else if (event == "kernel_start") {
      const std::string kernel = getStr(obj, "kernel");
      const std::optional<int64_t> startN = getInt(obj, "n");
      if (!startN.has_value()) {
        ++plan.damagedLines;
        armed[kernel] = false;
        continue;
      }
      // Only results from the same configuration are trustworthy: the
      // trace file is append-mode and may hold runs at other settings.
      armed[kernel] = getStr(obj, "machine") == machine &&
                      getStr(obj, "context") == context && *startN == n &&
                      getStr(obj, "strategy") == strategy;
    } else if (event == "kernel_end") {
      const std::string kernel = getStr(obj, "kernel");
      auto it = armed.find(kernel);
      if (it == armed.end() || !it->second) continue;
      it->second = false;
      if (!getBool(obj, "ok")) continue;  // failed kernels re-tune (warm)
      const std::optional<uint64_t> best = getUint(obj, "best_cycles");
      const std::optional<uint64_t> def = getUint(obj, "default_cycles");
      const std::optional<int> evals = getCount(obj, "evaluations");
      const std::optional<int> proposals = getCount(obj, "proposals");
      if (!best || !def || !evals || !proposals) {
        ++plan.damagedLines;  // the kernel re-tunes (warm)
        continue;
      }
      CompletedKernel done;
      done.kernel = kernel;
      done.bestParams = getStr(obj, "best_params");
      done.bestCycles = *best;
      done.defaultCycles = *def;
      done.evaluations = *evals;
      done.proposals = *proposals;
      plan.completed[kernel] = done;
    }
  }
  return plan;
}

TuneResult resumedTuneResult(const CompletedKernel& done) {
  TuneResult result;
  const opt::TuningSpec spec = opt::parseTuningSpec(done.bestParams);
  if (!spec.ok) {
    result.ok = false;
    result.error = "resume: recorded winner '" + done.bestParams +
                   "' no longer parses: " + spec.error;
    return result;
  }
  result.ok = true;
  result.best = spec.params;
  result.bestCycles = done.bestCycles;
  result.defaultCycles = done.defaultCycles;
  result.evaluations = done.evaluations;
  result.proposals = done.proposals;
  return result;
}

}  // namespace ifko::search
