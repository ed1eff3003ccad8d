// The evaluation fast path's contract: every shortcut the pipeline takes —
// pre-decoded execution, prefix compile patching, operand-template cloning —
// is bit-identical to the slow path it replaces, truncated-prefix runs are
// exact prefixes of the full run, and a full tuning search picks the same
// winners in every evaluation mode (worker-pool width, an armed deadline,
// a warm cache).  (The winners' cycles themselves are held by
// fingerprint_test.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "fko/harness.h"
#include "ir/printer.h"
#include "kernels/registry.h"
#include "kernels/tester.h"
#include "opt/params.h"
#include "search/evalpipeline.h"
#include "search/orchestrator.h"
#include "sim/decode.h"
#include "sim/timer.h"

namespace ifko {
namespace {

/// Winner invariance, the headline contract: all registry kernels, both
/// timing contexts — the plain serial search, a four-wide worker pool, the
/// fault guard's deadline armed (generously: it must never fire here), and
/// a warm-cache replay of each — the tuned parameters and their cycle
/// counts never change.  (How the evaluations are scheduled, guarded or
/// memoized only changes how long the answer takes, never the answer.)
TEST(EvalPipelineInvariance, WinnersIdenticalAcrossAllModes) {
  const auto machine = arch::p4e();
  for (sim::TimeContext ctx :
       {sim::TimeContext::OutOfCache, sim::TimeContext::InL2}) {
    search::SearchConfig plain = search::SearchConfig::smoke();
    plain.context = ctx;
    for (const auto& spec : kernels::allKernels()) {
      const search::TuneResult base = search::tuneKernel(spec, machine, plain);
      ASSERT_TRUE(base.ok) << spec.name() << ": " << base.error;
      for (int jobs : {1, 4}) {
        for (bool deadline : {false, true}) {
          if (jobs == 1 && !deadline) continue;  // that is `base`
          search::OrchestratorConfig oc;
          oc.search = plain;
          oc.search.jobs = jobs;
          oc.search.evalTimeoutMs = deadline ? 1000 : 0;
          search::Orchestrator orch(machine, oc);
          for (bool warm : {false, true}) {
            const search::TuneResult r =
                orch.tune({spec.name(), spec.hilSource(), &spec}).result;
            const std::string label =
                spec.name() + " ctx=" + std::string(sim::contextName(ctx)) +
                " jobs=" + std::to_string(jobs) +
                " deadline=" + (deadline ? "1" : "0") +
                " warm=" + (warm ? "1" : "0");
            ASSERT_TRUE(r.ok) << label << ": " << r.error;
            EXPECT_EQ(opt::formatTuningSpec(r.best),
                      opt::formatTuningSpec(base.best))
                << label;
            EXPECT_EQ(r.bestCycles, base.bestCycles) << label;
            EXPECT_EQ(r.defaultCycles, base.defaultCycles) << label;
            EXPECT_EQ(r.ledger, base.ledger) << label;
            if (warm) {
              EXPECT_EQ(r.evaluations, 0) << label;
            }
          }
        }
      }
    }
  }
}

/// The decoded executor produces the same cycles, instruction counts,
/// memory stats, and per-cause attribution as interpreting the
/// ir::Function — the contract sim/decode.h states.
TEST(EvalPipelineDecode, DecodedRunMatchesInterpreter) {
  const auto machine = arch::p4e();
  for (const auto& spec : kernels::allKernels()) {
    fko::CompileOptions opts;
    opts.tuning.unroll = 4;
    auto compiled = fko::compileKernel(spec.hilSource(), opts, machine);
    ASSERT_TRUE(compiled.ok) << spec.name();
    sim::DecodedFunction dfn = sim::decodeFunction(compiled.fn, machine);
    for (sim::TimeContext ctx :
         {sim::TimeContext::OutOfCache, sim::TimeContext::InL2}) {
      auto slow = sim::timeKernel(machine, compiled.fn, spec, 2048, ctx);
      auto fast = sim::timeKernel(machine, dfn, spec, 2048, ctx);
      EXPECT_EQ(slow.cycles, fast.cycles) << spec.name();
      EXPECT_EQ(slow.dynInsts, fast.dynInsts) << spec.name();
      EXPECT_EQ(slow.mem, fast.mem) << spec.name();
      EXPECT_EQ(slow.attr, fast.attr) << spec.name();
    }
  }
}

/// Prefix compile reuse: a candidate derived by patching the Pref
/// displacements of a compiled sibling is byte-identical (printed IR) to
/// compiling it from scratch.
TEST(EvalPipelineCompile, PrefixPatchedCandidateMatchesFreshCompile) {
  const auto machine = arch::p4e();
  const auto& spec = kernels::allKernels().front();  // sswap: two arrays
  search::SearchConfig cfg = search::SearchConfig::smoke();
  cfg.n = 4096;
  search::EvalPipeline pipeline(spec.hilSource(), &spec, machine, cfg);

  opt::TuningParams a;
  a.unroll = 4;
  a.prefetch["X"] = {true, ir::PrefKind::NTA, 256};
  auto first = pipeline.compile(a);
  ASSERT_TRUE(first->compiled.ok);

  opt::TuningParams b = a;
  b.prefetch["X"].distBytes = 1024;  // same enabled set, new distance
  auto patched = pipeline.compile(b);
  ASSERT_TRUE(patched->compiled.ok);
  auto stats = pipeline.stats();
  EXPECT_EQ(stats.fullCompiles, 1u);
  EXPECT_EQ(stats.prefixPatches, 1u);

  fko::CompileOptions opts;
  opts.tuning = b;
  auto fresh = fko::compileKernel(spec.hilSource(), opts, machine);
  ASSERT_TRUE(fresh.ok);
  EXPECT_EQ(ir::print(patched->compiled.fn), ir::print(fresh.fn));
}

/// Operand-template cloning: the cloned timing image is bit-for-bit the
/// image a fresh makeKernelData produces, and timing over it gives the
/// same cycles.
TEST(EvalPipelineData, ClonedKernelDataMatchesFresh) {
  const auto& spec = kernels::allKernels().front();
  kernels::KernelData fresh = kernels::makeKernelData(spec, 1024, 42);
  kernels::KernelData tmpl = kernels::makeKernelData(spec, 1024, 42);
  kernels::KernelData clone = tmpl.clone();
  ASSERT_EQ(clone.mem->size(), fresh.mem->size());
  std::vector<uint8_t> a(fresh.mem->size()), b(fresh.mem->size());
  fresh.mem->readBytes(64, a.data() + 64, a.size() - 64);
  clone.mem->readBytes(64, b.data() + 64, b.size() - 64);
  EXPECT_EQ(a, b);
  EXPECT_EQ(clone.xAddr, fresh.xAddr);
  EXPECT_EQ(clone.yAddr, fresh.yAddr);
  EXPECT_EQ(clone.n, fresh.n);

  const auto machine = arch::p4e();
  fko::CompileOptions opts;
  auto compiled = fko::compileKernel(spec.hilSource(), opts, machine);
  ASSERT_TRUE(compiled.ok);
  auto without = sim::timeKernel(machine, compiled.fn, spec, 1024,
                                 sim::TimeContext::OutOfCache, 42);
  auto with = sim::timeKernel(machine, compiled.fn, spec, 1024,
                              sim::TimeContext::OutOfCache, 42, 0, &tmpl);
  EXPECT_EQ(without.cycles, with.cycles);
  EXPECT_EQ(without.mem, with.mem);
}

/// Truncated-prefix runs (sim::timeKernel's loopN): loopN = n reproduces
/// the full run exactly, and shorter prefixes are strictly cheaper and
/// monotone (a longer prefix of the same deterministic run can only add
/// cycles).
TEST(EvalPipelineScreen, TruncatedPrefixRunsAreExactPrefixes) {
  const auto machine = arch::p4e();
  const auto& spec = kernels::allKernels().front();
  fko::CompileOptions opts;
  auto compiled = fko::compileKernel(spec.hilSource(), opts, machine);
  ASSERT_TRUE(compiled.ok);
  const int64_t n = 4096;
  auto full = sim::timeKernel(machine, compiled.fn, spec, n,
                              sim::TimeContext::OutOfCache, 42);
  auto sameAsFull = sim::timeKernel(machine, compiled.fn, spec, n,
                                    sim::TimeContext::OutOfCache, 42, n);
  EXPECT_EQ(full.cycles, sameAsFull.cycles);
  EXPECT_EQ(full.mem, sameAsFull.mem);

  auto head = sim::timeKernel(machine, compiled.fn, spec, n,
                              sim::TimeContext::OutOfCache, 42, 512);
  auto tail = sim::timeKernel(machine, compiled.fn, spec, n,
                              sim::TimeContext::OutOfCache, 42, 1024);
  EXPECT_LT(0u, head.cycles);
  EXPECT_LT(head.cycles, tail.cycles);
  EXPECT_LT(tail.cycles, full.cycles);

  // Determinism: the same prefix twice is the same run.
  auto again = sim::timeKernel(machine, compiled.fn, spec, n,
                               sim::TimeContext::OutOfCache, 42, 512);
  EXPECT_EQ(head.cycles, again.cycles);
}

}  // namespace
}  // namespace ifko
