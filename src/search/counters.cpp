#include "search/counters.h"

namespace ifko::search {

namespace {

/// Single source of truth for the uint64 field set: the writer and the
/// parser both walk this visitor, so the two directions cannot drift.
template <typename F>
void forEachField(EvalCounters& c, F&& f) {
  for (size_t i = 0; i < sim::kNumStallCauses; ++i) {
    std::string name = "attr_";
    name += sim::stallCauseName(static_cast<sim::StallCause>(i));
    f(name, c.attr.cycles[i]);
  }
  f("loads", c.mem.loads);
  f("load_hit_l1", c.mem.loadHitL1);
  f("load_hit_l2", c.mem.loadHitL2);
  f("load_miss_l1", c.mem.loadMissL1);
  f("load_miss_mem", c.mem.loadMissMem);
  f("stores", c.mem.stores);
  f("store_hit_l1", c.mem.storeHitL1);
  f("store_hit_l2", c.mem.storeHitL2);
  f("store_rfos", c.mem.storeRFOs);
  f("nt_stores", c.mem.ntStores);
  f("nt_flushes", c.mem.ntFlushes);
  f("pref_issued", c.mem.prefIssued);
  f("pref_dropped", c.mem.prefDropped);
  f("pref_useful", c.mem.prefUseful);
  f("hw_prefetches", c.mem.hwPrefetches);
  f("evict_l1", c.mem.evictL1);
  f("evict_l2", c.mem.evictL2);
  f("writebacks", c.mem.writebacks);
  f("bus_bytes", c.mem.busBytes);
  f("ir_insts", c.irInsts);
  f("repeat_iters", c.repeatableIters);
  f("spills", c.spillSlots);
}

}  // namespace

EvalCounters collectCounters(const fko::CompileResult& compiled,
                             const sim::TimeResult& timed) {
  EvalCounters c;
  c.attr = timed.attr;
  c.mem = timed.mem;
  c.irInsts = compiled.fn.instCount();
  c.repeatableIters = static_cast<uint64_t>(compiled.repeatableIters);
  c.repeatableConverged = compiled.repeatableConverged;
  c.spillSlots = static_cast<uint64_t>(compiled.spillSlots);
  return c;
}

JsonWriter countersJson(const EvalCounters& c) {
  JsonWriter w;
  EvalCounters copy = c;
  forEachField(copy,
               [&](const std::string& key, uint64_t& v) { w.field(key, v); });
  w.field("repeat_converged", c.repeatableConverged);
  return w;
}

std::optional<EvalCounters> parseCounters(
    const std::map<std::string, JsonValue>& obj) {
  EvalCounters c;
  bool ok = true;
  forEachField(c, [&](const std::string& key, uint64_t& v) {
    auto it = obj.find(key);
    if (it == obj.end()) return;
    std::optional<uint64_t> parsed = it->second.uintValue();
    if (parsed.has_value()) v = *parsed;
    else ok = false;
  });
  if (!ok) return std::nullopt;
  if (auto it = obj.find("repeat_converged");
      it != obj.end() && it->second.kind == JsonValue::Kind::Bool)
    c.repeatableConverged = it->second.boolean;
  return c;
}

}  // namespace ifko::search
