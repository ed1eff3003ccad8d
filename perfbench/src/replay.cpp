#include "replay.h"

#include <fstream>
#include <map>
#include <utility>

#include "fko/compiler.h"
#include "hil/lower.h"
#include "sim/decode.h"
#include "sim/interp.h"
#include "support/hash.h"

namespace perfbench {

std::vector<TraceGroup> readTrace(const std::string& path,
                                  std::string* error) {
  std::vector<TraceGroup> groups;
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read trace " + path;
    return groups;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::map<std::string, JsonValue> ev;
    if (!parseJsonObject(line, &ev)) {
      *error = "malformed trace line: " + line;
      return {};
    }
    const std::string& kind = ev["event"].string;
    if (kind == "kernel_start") {
      TraceGroup g;
      g.kernel = ev["kernel"].string;
      g.machine = ev["machine"].string;
      g.context = ev["context"].string;
      g.n = ev["n"].asInt();
      groups.push_back(std::move(g));
    } else if (kind == "candidate" && !groups.empty() &&
               groups.back().kernel == ev["kernel"].string) {
      ++groups.back().proposals;
      if (ev["cache"].string != "miss") continue;
      groups.back().params.push_back(ev["params"].string);
      groups.back().cycles.push_back(
          ev["verdict"].string == "pass" ? ev["cycles"].asUint() : 0);
    }
  }
  return groups;
}

namespace {

const kernels::KernelSpec* specNamed(const std::string& name) {
  for (const kernels::KernelSpec& k : kernels::allKernels())
    if (k.name() == name) return &k;
  return nullptr;
}

void emitCount(Sink& sink, const std::string& name, uint64_t value) {
  JsonWriter w;
  w.field("type", "count").field("name", name).field("value", value);
  sink.emit(w);
}

}  // namespace

void Replay::group(const TraceGroup& g) {
  const kernels::KernelSpec* spec = specNamed(g.kernel);
  if (spec == nullptr) {
    ++mismatches_;
    return;
  }
  evals_ += g.params.size();
  proposals_ += g.proposals;
  const std::string id = g.kernel + "/" + g.machine + "/" + std::to_string(g.n);
  const arch::MachineConfig machine =
      g.machine == arch::opteron().name ? arch::opteron() : arch::p4e();
  search::SearchConfig config = base_;
  config.n = g.n;
  config.context = g.context == sim::contextName(sim::TimeContext::InL2)
                       ? sim::TimeContext::InL2
                       : sim::TimeContext::OutOfCache;
  const std::string source = spec->hilSource();
  Scope kernelScope(spans_, "replay.kernel", id);
  {
    Scope s(spans_, "hil.parse", id);
    DiagnosticEngine diags;
    (void)hil::compileHil(source, diags);
  }
  fko::LoweredKernel lowered;
  {
    Scope s(spans_, "fko.lower", id);
    lowered = fko::lowerKernel(source);
  }
  fko::AnalysisReport analysis;
  {
    Scope s(spans_, "fko.analyze", id);
    analysis = fko::analyzeKernel(source, machine);
  }
  {
    fko::CompileOptions opts;
    opts.tuning = search::fkoDefaults(analysis, machine);
    opts.tuning.unroll = 64;
    Scope s(spans_, "fko.full_compile_ur64", id);
    (void)fko::compileKernel(lowered.fn, opts, machine);
  }
  std::unique_ptr<search::EvalPipeline> pipe;
  {
    Scope s(spans_, "search.pipeline.build", id);
    pipe = std::make_unique<search::EvalPipeline>(source, spec, machine,
                                                  config);
  }
  const kernels::KernelData* tmpl = nullptr;
  {
    Scope s(spans_, "search.pipeline.data", id);
    tmpl = pipe->dataTemplate();
  }
  for (size_t i = 0; i < g.params.size(); ++i) {
    const std::string cid = id + "#" + std::to_string(i);
    search::EvalKey key;
    key.sourceHash = hashHex(source);
    key.machine = g.machine;
    key.context = g.context;
    key.n = config.n;
    key.seed = config.seed;
    key.testerN = config.testerN;
    key.params = g.params[i];
    keys_.push_back(key);

    const opt::TuningSpec parsed = opt::parseTuningSpec(g.params[i]);
    if (!parsed.ok) {
      ++mismatches_;
      continue;
    }
    std::shared_ptr<const search::CompiledCandidate> cand;
    {
      Scope s(spans_, "search.pipeline.compile", cid);
      cand = pipe->compile(parsed.params);
    }
    ++compileCalls_;
    if (!cand->compiled.ok) {
      if (g.cycles[i] != 0) ++mismatches_;
      continue;
    }
    {
      fko::CompileOptions opts;
      opts.tuning = parsed.params;
      Scope s(spans_, "fko.full_compile", cid);
      (void)fko::compileKernel(lowered.fn, opts, machine);
    }
    bool passes = false;
    {
      Scope s(spans_, "kernels.tester", cid);
      passes = pipe->testerPasses(cand);
    }
    if (!passes) {
      if (g.cycles[i] != 0) ++mismatches_;
      continue;
    }
    {
      Scope s(spans_, "sim.decode", cid);
      (void)sim::decodeFunction(cand->compiled.fn, machine);
    }
    sim::TimeResult tr;
    {
      Scope s(spans_, "sim.cosim", cid);
      tr = sim::timeKernel(machine, cand->decoded, *spec, config.n,
                           config.context, config.seed, 0, tmpl);
    }
    if (tr.cycles != g.cycles[i]) ++mismatches_;
    kernels::KernelData data =
        tmpl != nullptr ? tmpl->clone()
                        : kernels::makeKernelData(*spec, config.n, config.seed);
    const std::vector<sim::ArgValue> args = data.args(cand->compiled.fn);
    {
      Scope s(spans_, "sim.functional", cid);
      sim::Interp interp(cand->compiled.fn, *data.mem);
      functionalInsts_ += interp.run(args).dynInsts;
    }
    ++timed_;
    cycles_ += tr.cycles;
    dynInsts_ += tr.dynInsts;
    loads_ += tr.mem.loads;
    loadMissMem_ += tr.mem.loadMissMem;
    hwPrefetches_ += tr.mem.hwPrefetches;
    prefDropped_ += tr.mem.prefDropped;
    busBytes_ += tr.mem.busBytes;
    mispredicts_ += tr.core.mispredicts;
  }
  const search::EvalPipeline::Stats st = pipe->stats();
  pipeline_.fullCompiles += st.fullCompiles;
  pipeline_.prefixPatches += st.prefixPatches;
  pipeline_.memoHits += st.memoHits;
  pipeline_.testerRuns += st.testerRuns;
}

uint64_t Replay::emit(Sink& sink) const {
  const std::pair<const char*, uint64_t> counts[] = {
      {"replay.timed", timed_},
      {"replay.mismatches", mismatches_},
      {"search.evals", evals_},
      {"search.proposals", proposals_},
      {"sim.cycles", cycles_},
      {"sim.dyn_insts", dynInsts_},
      {"sim.functional_insts", functionalInsts_},
      {"sim.mem.loads", loads_},
      {"sim.mem.load_miss_mem", loadMissMem_},
      {"sim.mem.hw_prefetches", hwPrefetches_},
      {"sim.mem.pref_dropped", prefDropped_},
      {"sim.mem.bus_bytes", busBytes_},
      {"sim.core.mispredicts", mispredicts_},
      {"search.pipeline.compile_calls", compileCalls_},
      {"search.pipeline.full_compiles", pipeline_.fullCompiles},
      {"search.pipeline.prefix_patches", pipeline_.prefixPatches},
      {"search.pipeline.memo_hits", pipeline_.memoHits},
      {"kernels.tester_runs", pipeline_.testerRuns},
  };
  for (const auto& [name, value] : counts) emitCount(sink, name, value);
  return mismatches_;
}

void Replay::timeStores(const std::vector<wisdom::WisdomRecord>& records,
                        const std::string& dir, Sink& sink) const {
  {
    search::EvalCache cache;
    std::string error;
    if (cache.open(dir + "/replay.cache.jsonl", &error)) {
      for (size_t i = 0; i < keys_.size(); ++i) {
        Scope s(spans_, "search.evalcache.insert", keys_[i].params);
        cache.insert(keys_[i], 1000 + i);
      }
      for (const search::EvalKey& key : keys_) {
        Scope s(spans_, "search.evalcache.lookup", key.params);
        (void)cache.lookup(key);
      }
    }
  }

  wisdom::WisdomStore store;
  for (const wisdom::WisdomRecord& rec : records) {
    Scope s(spans_, "wisdom.record", rec.kernel);
    (void)store.record(rec);
  }
  for (const wisdom::WisdomRecord& rec : records) {
    // The exact tier, then the near-N tier two classes up.
    wisdom::WisdomKey near = rec.key;
    near.nClass =
        "2^" + std::to_string(wisdom::nClassExponent(near.nClass) + 2);
    for (const wisdom::WisdomKey* key : {&rec.key, &std::as_const(near)}) {
      Scope s(spans_, "wisdom.find", rec.kernel);
      (void)store.find(*key);
    }
  }
  {
    Scope s(spans_, "wisdom.save", "store");
    (void)store.save(dir + "/replay.wisdom.jsonl");
  }
  emitCount(sink, "wisdom.records", store.size());
}

}  // namespace perfbench
