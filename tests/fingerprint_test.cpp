// The registry's cycle fingerprint: every surveyed kernel, tuned on both
// machine models in three settings, must reproduce the committed golden
// file (tests/data/fingerprint.jsonl) field for field — FKO defaults and
// their cycles, the line-search winner and its cycles, the Figure-7 ledger,
// the evaluation count, and the winner's ten-cause cycle attribution.
//
// Simulated cycles are this system's output, so any change that moves one
// of them — a search, evaluator, compiler or simulator change — shows up
// here.  A deliberate change regenerates the file from the mismatch dump
// this test writes (its path is printed) and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "kernels/registry.h"
#include "opt/params.h"
#include "search/evalpipeline.h"
#include "search/linesearch.h"
#include "support/json.h"

namespace ifko::search {
namespace {

struct Setting {
  const char* name;
  SearchConfig config;
};

std::vector<Setting> settings() {
  SearchConfig ooc = SearchConfig::smoke();
  ooc.context = sim::TimeContext::OutOfCache;
  SearchConfig inl2 = SearchConfig::smoke();
  inl2.context = sim::TimeContext::InL2;
  // Paper in-L2 scale (N=1024, full grids), evaluated through the pool.
  SearchConfig paper;
  paper.n = 1024;
  paper.context = sim::TimeContext::InL2;
  paper.jobs = 4;
  return {{"smoke/ooc", ooc}, {"smoke/inl2", inl2}, {"paper/inl2", paper}};
}

/// One fingerprint line: the tune's result plus the winner's attribution.
std::string entry(const kernels::KernelSpec& spec,
                  const arch::MachineConfig& machine, const char* setting,
                  const SearchConfig& config) {
  const TuneResult r = tuneKernel(spec, machine, config);
  JsonWriter w;
  w.field("kernel", spec.name())
      .field("machine", machine.name)
      .field("setting", setting)
      .field("ok", r.ok);
  if (!r.ok) return w.field("error", r.error).str();

  JsonWriter ledger;
  for (const DimensionResult& d : r.ledger) ledger.field(d.name, d.cyclesAfter);
  EvalPipeline pipe(spec.hilSource(), &spec, machine, config);
  const EvalOutcome best = evaluateCandidate(pipe.request(r.best));
  JsonWriter attr;
  if (best.counters.has_value())
    for (size_t i = 0; i < sim::kNumStallCauses; ++i)
      attr.field(sim::stallCauseName(static_cast<sim::StallCause>(i)),
                 best.counters->attr.cycles[i]);
  return w.field("defaults", opt::formatTuningSpec(r.defaults))
      .field("default_cycles", r.defaultCycles)
      .field("best", opt::formatTuningSpec(r.best))
      .field("best_cycles", r.bestCycles)
      .field("ledger", ledger)
      .field("evaluations", r.evaluations)
      .field("attr", attr)
      .str();
}

TEST(Fingerprint, RegistryMatchesGoldenFile) {
  std::vector<std::string> actual;
  for (const Setting& s : settings())
    for (const arch::MachineConfig& machine : {arch::p4e(), arch::opteron()})
      for (const kernels::KernelSpec& spec : kernels::allKernels())
        actual.push_back(entry(spec, machine, s.name, s.config));
  SearchConfig ext = SearchConfig::smoke();
  ext.searchExtensions = true;
  actual.push_back(entry({kernels::BlasOp::Dot, ir::Scal::F64}, arch::p4e(),
                         "smoke/ooc/ext", ext));

  std::vector<std::string> golden;
  {
    std::ifstream in(IFKO_FINGERPRINT_FILE);
    std::string line;
    while (std::getline(in, line))
      if (!line.empty()) golden.push_back(line);
  }

  bool same = golden.size() == actual.size();
  EXPECT_EQ(golden.size(), actual.size()) << "fingerprint entry count";
  for (size_t i = 0; i < std::min(golden.size(), actual.size()); ++i) {
    EXPECT_EQ(golden[i], actual[i]) << "fingerprint entry " << i;
    same &= golden[i] == actual[i];
  }
  if (!same) {
    const std::string dump =
        std::string(::testing::TempDir()) + "fingerprint.actual.jsonl";
    std::ofstream out(dump);
    for (const std::string& line : actual) out << line << "\n";
    ADD_FAILURE() << "actual fingerprint written to " << dump;
  }
}

}  // namespace
}  // namespace ifko::search
