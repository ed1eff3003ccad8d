#include "wisdom/wisdom.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "search/counters.h"
#include "sim/timing.h"
#include "support/json.h"
#include "support/str.h"

namespace ifko::wisdom {

std::string nClassFor(int64_t n) {
  int exp = 0;
  int64_t bucket = 1;
  while (bucket < n && exp < 62) {
    bucket <<= 1;
    ++exp;
  }
  return "2^" + std::to_string(exp);
}

int nClassExponent(const std::string& nClass) {
  if (!startsWith(nClass, "2^")) return -1;
  int64_t exp = 0;
  if (!parseInt64(nClass.substr(2), &exp) || exp < 0 || exp > 62) return -1;
  return static_cast<int>(exp);
}

std::string WisdomKey::str() const {
  return sourceHash + "|" + machine + "|" + context + "|" + nClass;
}

// The wisdom format's vector length is the simulator's cause set — if one
// grows, this fails to compile instead of silently truncating records.
static_assert(kAttrCauses == sim::kNumStallCauses,
              "wisdom attribution vector must cover every stall cause");

std::optional<AttrShares> attrSharesFrom(const search::EvalCounters& counters) {
  const uint64_t total = counters.attr.total();
  if (total == 0) return std::nullopt;
  AttrShares shares{};
  for (size_t i = 0; i < kAttrCauses; ++i)
    shares[i] = static_cast<double>(counters.attr.cycles[i]) /
                static_cast<double>(total);
  return shares;
}

double attrCosineDistance(const AttrShares& a, const AttrShares& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < kAttrCauses; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 2.0;
  return 1.0 - dot / (std::sqrt(na) * std::sqrt(nb));
}

void applyCounters(WisdomRecord& rec, const search::EvalCounters& counters) {
  const uint64_t total = counters.attr.total();
  if (total == 0) return;
  size_t top = 0;
  for (size_t i = 1; i < sim::kNumStallCauses; ++i)
    if (counters.attr.cycles[i] > counters.attr.cycles[top]) top = i;
  rec.topCause =
      std::string(sim::stallCauseName(static_cast<sim::StallCause>(top)));
  rec.topCauseShare = static_cast<double>(counters.attr.cycles[top]) /
                      static_cast<double>(total);
  rec.memStallShare = static_cast<double>(counters.attr.memoryStalls()) /
                      static_cast<double>(total);
  if (std::optional<AttrShares> shares = attrSharesFrom(counters))
    rec.attrShare = *shares;
}

std::string_view matchKindName(MatchKind kind) {
  switch (kind) {
    case MatchKind::Exact: return "exact";
    case MatchKind::AttrSimilar: return "attr-similar";
    case MatchKind::NearNClass: return "near-n";
    case MatchKind::NearContext: return "near-context";
  }
  return "?";
}

std::string WisdomStore::formatRecord(const WisdomRecord& rec) {
  JsonWriter w;
  w.field("wisdom_schema", kWisdomSchema)
      .field("kernel", rec.kernel)
      .field("source", rec.key.sourceHash)
      .field("machine", rec.key.machine)
      .field("context", rec.key.context)
      .field("n_class", rec.key.nClass)
      .field("params", rec.params)
      .field("best_cycles", rec.bestCycles)
      .field("default_cycles", rec.defaultCycles)
      .field("evaluations", rec.evaluations)
      .field("run", rec.runId);
  if (!rec.topCause.empty()) {
    w.field("top_cause", rec.topCause)
        .field("top_cause_share", rec.topCauseShare)
        .field("mem_share", rec.memStallShare);
  }
  if (rec.hasAttr()) {
    JsonWriter attr;
    for (size_t i = 0; i < kAttrCauses; ++i)
      attr.field(sim::stallCauseName(static_cast<sim::StallCause>(i)),
                 rec.attrShare[i]);
    w.field("attr", attr);
  }
  return w.str();
}

std::optional<WisdomRecord> WisdomStore::parseRecord(const std::string& line,
                                                     bool* schemaDrift) {
  if (schemaDrift != nullptr) *schemaDrift = false;
  std::map<std::string, JsonValue> obj;
  if (!parseJsonObject(line, &obj)) return std::nullopt;
  auto str = [&](const char* k) -> const std::string* {
    auto it = obj.find(k);
    if (it == obj.end() || it->second.kind != JsonValue::Kind::String)
      return nullptr;
    return &it->second.string;
  };
  auto num = [&](const char* k, double* out) {
    auto it = obj.find(k);
    if (it == obj.end() || it->second.kind != JsonValue::Kind::Number)
      return false;
    *out = it->second.number;
    return true;
  };
  auto field = [&](const char* k) -> const JsonValue* {
    auto it = obj.find(k);
    return it != obj.end() ? &it->second : nullptr;
  };

  const JsonValue* schemaField = field("wisdom_schema");
  const std::optional<int64_t> schema =
      schemaField != nullptr ? schemaField->intValue() : std::nullopt;
  if (!schema.has_value()) return std::nullopt;
  if (*schema != kWisdomSchema && *schema != kWisdomSchemaCompat) {
    // A well-formed record from another schema: drift, not damage.  Never
    // reinterpreted — a future version's fields may not mean what ours do.
    // v1 is the exception: a strict subset of v2 (it just lacks the
    // attribution vector), so old stores keep loading across the bump.
    if (schemaDrift != nullptr) *schemaDrift = true;
    return std::nullopt;
  }

  const std::string* source = str("source");
  const std::string* machine = str("machine");
  const std::string* context = str("context");
  const std::string* nClass = str("n_class");
  const std::string* params = str("params");
  if (source == nullptr || machine == nullptr || context == nullptr ||
      nClass == nullptr || params == nullptr || nClassExponent(*nClass) < 0)
    return std::nullopt;
  std::optional<uint64_t> best, def;
  if (const JsonValue* v = field("best_cycles")) best = v->uintValue();
  if (const JsonValue* v = field("default_cycles")) def = v->uintValue();
  if (!best || !def) return std::nullopt;

  WisdomRecord rec;
  rec.key = {*source, *machine, *context, *nClass};
  rec.params = *params;
  rec.bestCycles = *best;
  rec.defaultCycles = *def;
  if (const JsonValue* v = field("evaluations")) {
    std::optional<int64_t> evals = v->intValue();
    if (!evals) return std::nullopt;
    rec.evaluations = *evals;
  }
  if (const std::string* kernel = str("kernel")) rec.kernel = *kernel;
  if (const std::string* run = str("run")) rec.runId = *run;
  if (const std::string* cause = str("top_cause")) {
    rec.topCause = *cause;
    num("top_cause_share", &rec.topCauseShare);
    num("mem_share", &rec.memStallShare);
  }
  if (auto it = obj.find("attr");
      it != obj.end() && it->second.kind == JsonValue::Kind::Object) {
    for (size_t i = 0; i < kAttrCauses; ++i) {
      auto c = it->second.object->find(std::string(
          sim::stallCauseName(static_cast<sim::StallCause>(i))));
      if (c != it->second.object->end() &&
          c->second.kind == JsonValue::Kind::Number)
        rec.attrShare[i] = c->second.number;
    }
  }
  return rec;
}

bool WisdomStore::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) return true;  // a store that does not exist yet is just empty
  damagedLines_ = 0;
  schemaSkipped_ = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    bool drift = false;
    std::optional<WisdomRecord> rec = parseRecord(line, &drift);
    if (!rec.has_value()) {
      if (drift) ++schemaSkipped_;
      else ++damagedLines_;
      continue;
    }
    record(*rec);
  }
  if (in.bad()) {
    if (error != nullptr) *error = "error reading wisdom file '" + path + "'";
    return false;
  }
  return true;
}

bool WisdomStore::save(const std::string& path, std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  // Atomic: readers (and a crash mid-save) see either the old complete
  // file or the new complete file, never a torn one.  The temp name is
  // pid-unique so concurrent savers in different processes (fleet workers
  // sharing one store) cannot clobber each other's half-written temp —
  // last rename wins, and every rename installs a complete file.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return fail("cannot write wisdom file '" + tmp + "'");
    for (const auto& [key, rec] : records_) out << formatRecord(rec) << "\n";
    out.flush();
    if (!out) return fail("error writing wisdom file '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail("cannot rename '" + tmp + "' over '" + path + "'");
  }
  return true;
}

bool WisdomStore::record(const WisdomRecord& rec) {
  auto [it, inserted] = records_.emplace(rec.key.str(), rec);
  if (inserted) return true;
  // Keep-best: ties keep the incumbent, so merge order cannot flip between
  // two equally fast configs.
  if (rec.bestCycles == 0 || (it->second.bestCycles != 0 &&
                              rec.bestCycles >= it->second.bestCycles))
    return false;
  it->second = rec;
  return true;
}

size_t WisdomStore::merge(const WisdomStore& other) {
  size_t adopted = 0;
  for (const auto& [key, rec] : other.records_)
    if (record(rec)) ++adopted;
  return adopted;
}

const WisdomRecord* WisdomStore::lookup(const WisdomKey& key) const {
  auto it = records_.find(key.str());
  return it == records_.end() ? nullptr : &it->second;
}

namespace {

/// One fallback candidate's rank: cosine distance to the probe first (2.0
/// when either side has no vector, so informed candidates always outrank
/// uninformed ones), N-class exponent distance second, and — the explicit
/// tie-break the old strict-`<` scan got wrong — the *smaller* class last,
/// independent of map iteration order ("2^11" sorts before "2^9"
/// lexicographically, so iteration order used to hand ties to the larger
/// class).
struct FallbackRank {
  double cosDist = 2.0;
  int nDist = 0;
  int exp = 0;

  [[nodiscard]] bool betterThan(const FallbackRank& other) const {
    if (cosDist != other.cosDist) return cosDist < other.cosDist;
    if (nDist != other.nDist) return nDist < other.nDist;
    return exp < other.exp;
  }
};

}  // namespace

WisdomMatch WisdomStore::find(const WisdomKey& key,
                              const AttrShares* probe) const {
  if (const WisdomRecord* exact = lookup(key))
    return {exact, MatchKind::Exact};

  // Fallback never crosses kernel or machine — a config tuned for another
  // source or another pipeline model is not a near answer, it is a wrong
  // one.  Same-context candidates always beat other-context ones; within a
  // tier, FallbackRank prefers the performance-nearest record (cosine over
  // attribution vectors) and degrades to nearest-N when either the query
  // or the record carries no vector.
  const int wantExp = nClassExponent(key.nClass);
  const WisdomRecord* bestSameCtx = nullptr;
  const WisdomRecord* bestOtherCtx = nullptr;
  FallbackRank bestSameRank, bestOtherRank;
  bool sameByAttr = false, otherByAttr = false;
  for (const auto& [k, rec] : records_) {
    if (rec.key.sourceHash != key.sourceHash ||
        rec.key.machine != key.machine)
      continue;
    FallbackRank rank;
    rank.exp = nClassExponent(rec.key.nClass);
    rank.nDist = wantExp < 0 || rank.exp < 0 ? 1 << 20
                                             : std::abs(rank.exp - wantExp);
    if (probe != nullptr) rank.cosDist = attrCosineDistance(*probe, rec.attrShare);
    const bool byAttr = rank.cosDist < 2.0;
    if (rec.key.context == key.context) {
      if (bestSameCtx == nullptr || rank.betterThan(bestSameRank)) {
        bestSameCtx = &rec;
        bestSameRank = rank;
        sameByAttr = byAttr;
      }
    } else if (bestOtherCtx == nullptr || rank.betterThan(bestOtherRank)) {
      bestOtherCtx = &rec;
      bestOtherRank = rank;
      otherByAttr = byAttr;
    }
  }
  if (bestSameCtx != nullptr)
    return {bestSameCtx,
            sameByAttr ? MatchKind::AttrSimilar : MatchKind::NearNClass};
  if (bestOtherCtx != nullptr)
    return {bestOtherCtx,
            otherByAttr ? MatchKind::AttrSimilar : MatchKind::NearContext};
  return {nullptr, MatchKind::Exact};
}

std::vector<const WisdomRecord*> WisdomStore::records() const {
  std::vector<const WisdomRecord*> out;
  out.reserve(records_.size());
  for (const auto& [key, rec] : records_) out.push_back(&rec);
  return out;
}

}  // namespace ifko::wisdom
