//===- tests/PassesTests.cpp - Pass pipeline unit tests --------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the inliner, DCE, constant folding, register estimation and
/// the accelOS scheduling transform — including the paper's implicit
/// correctness claim: the transformed kernel computes exactly what the
/// original kernel computes, for any physical work-group count and batch
/// size (Sec. 2.4/6.2).
///
//===----------------------------------------------------------------------===//

#include "kir/IRBuilder.h"
#include "kir/Printer.h"
#include "kir/RtLayout.h"
#include "kir/Verifier.h"
#include "passes/AccelOSTransform.h"
#include "passes/ConstantFold.h"
#include "passes/DCE.h"
#include "passes/Inliner.h"
#include "passes/Pass.h"
#include "passes/RegisterEstimator.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <bit>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>

using namespace accel;
using accel::testutil::KernelHarness;
using accel::testutil::compileOrDie;

namespace {

/// Counts call instructions in a function.
size_t countCalls(const kir::Function &F) {
  size_t N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (isa<kir::CallInst>(I.get()))
        ++N;
  return N;
}

size_t countInsts(const kir::Function &F) {
  return static_cast<size_t>(F.instructionCount());
}

//===----------------------------------------------------------------------===//
// Inliner
//===----------------------------------------------------------------------===//

TEST(InlinerTest, RemovesAllCalls) {
  auto M = compileOrDie(R"(
    float sq(float x) { return x * x; }
    float quad(float x) { return sq(x) * sq(x); }
    kernel void k(global float* d) {
      long g = get_global_id(0);
      d[g] = quad(d[g]);
    }
  )");
  passes::PassManager PM;
  PM.addPass(std::make_unique<passes::InlinerPass>());
  cantFail(PM.run(*M));
  for (const auto &F : M->functions())
    EXPECT_EQ(countCalls(*F), 0u) << F->name();
}

TEST(InlinerTest, PreservesSemantics) {
  const char *Src = R"(
    float poly(float x, float a, float b) { return a * x * x + b * x; }
    int pick(int v) {
      if (v > 10) { return 10; }
      return v;
    }
    kernel void k(global float* d, global const int* s) {
      long g = get_global_id(0);
      int n = pick(s[g]);
      float acc = 0.0f;
      for (int i = 0; i < n; i++) {
        acc += poly(d[g], 0.5f, 2.0f);
      }
      d[g] = acc;
    }
  )";
  std::vector<int32_t> S = {3, 50, 0, 7, 12, 1, 9, 11};
  std::vector<float> D = {1, 2, 3, 4, 5, 6, 7, 8};

  auto RunWith = [&](bool Inline) {
    auto M = compileOrDie(Src);
    if (Inline) {
      passes::PassManager PM;
      PM.addPass(std::make_unique<passes::InlinerPass>());
      cantFail(PM.run(*M));
    }
    KernelHarness H;
    uint64_t PD = H.allocF32(D), PS = H.allocI32(S);
    H.run1D(*M, "k", {PD, PS}, 8, 4);
    return H.readF32(PD, 8);
  };

  auto Ref = RunWith(false);
  auto Inl = RunWith(true);
  for (int I = 0; I < 8; ++I)
    EXPECT_FLOAT_EQ(Inl[I], Ref[I]) << "element " << I;
}

TEST(InlinerTest, ReturnValueThroughBranches) {
  auto M = compileOrDie(R"(
    int signum(int v) {
      if (v > 0) { return 1; }
      if (v < 0) { return -1; }
      return 0;
    }
    kernel void k(global int* d) {
      long g = get_global_id(0);
      d[g] = signum(d[g]);
    }
  )");
  passes::PassManager PM;
  PM.addPass(std::make_unique<passes::InlinerPass>());
  cantFail(PM.run(*M));

  KernelHarness H;
  uint64_t PD = H.allocI32({-7, 0, 42, -1});
  H.run1D(*M, "k", {PD}, 4, 2);
  auto D = H.readI32(PD, 4);
  EXPECT_EQ(D[0], -1);
  EXPECT_EQ(D[1], 0);
  EXPECT_EQ(D[2], 1);
  EXPECT_EQ(D[3], -1);
}

//===----------------------------------------------------------------------===//
// DCE and constant folding
//===----------------------------------------------------------------------===//

TEST(DCETest, RemovesUnusedPureInstructions) {
  auto M = compileOrDie(R"(
    kernel void k(global float* d) {
      long g = get_global_id(0);
      float dead1 = d[g] * 3.0f;
      float dead2 = dead1 + 1.0f;
      d[g] = 1.0f;
    }
  )");
  kir::Function *K = M->getFunction("k");
  size_t Before = countInsts(*K);
  passes::PassManager PM;
  PM.addPass(std::make_unique<passes::DCEPass>());
  cantFail(PM.run(*M));
  EXPECT_LT(countInsts(*K), Before);

  // Semantics: the store remains.
  KernelHarness H;
  uint64_t PD = H.allocF32({0, 0});
  H.run1D(*M, "k", {PD}, 2, 1);
  EXPECT_FLOAT_EQ(H.readF32(PD, 2)[0], 1.0f);
}

TEST(DCETest, KeepsAtomicsAndBarriers) {
  auto M = compileOrDie(R"(
    kernel void k(global int* d) {
      int unused = atomic_add(d, 1);
      barrier();
    }
  )");
  kir::Function *K = M->getFunction("k");
  passes::PassManager PM;
  PM.addPass(std::make_unique<passes::DCEPass>());
  cantFail(PM.run(*M));
  bool HasAtomic = false, HasBarrier = false;
  for (const auto &BB : K->blocks())
    for (const auto &I : BB->instructions())
      if (const auto *B = dyn_cast<kir::BuiltinInst>(I.get())) {
        HasAtomic |= B->builtinKind() == kir::BuiltinKind::AtomicAdd;
        HasBarrier |= B->builtinKind() == kir::BuiltinKind::Barrier;
      }
  EXPECT_TRUE(HasAtomic);
  EXPECT_TRUE(HasBarrier);
}

TEST(ConstantFoldTest, FoldsArithmeticChains) {
  auto M = compileOrDie(R"(
    kernel void k(global int* d) {
      int a = 2 + 3 * 4;       // 14
      int b = (a - 4) / 2;     // 5
      d[0] = b;
    }
  )");
  passes::PassManager PM;
  PM.addPass(std::make_unique<passes::ConstantFoldPass>());
  PM.addPass(std::make_unique<passes::DCEPass>());
  cantFail(PM.run(*M));

  // After folding + DCE the kernel should be just stores and control
  // flow plus the final store of constant 5.
  KernelHarness H;
  uint64_t PD = H.allocI32({0});
  H.run1D(*M, "k", {PD}, 1, 1);
  EXPECT_EQ(H.readI32(PD, 1)[0], 5);
}

TEST(ConstantFoldTest, PreservesDivisionByZeroTrap) {
  auto M = compileOrDie(R"(
    kernel void k(global int* d) {
      d[0] = 1 / 0;
    }
  )");
  passes::PassManager PM;
  PM.addPass(std::make_unique<passes::ConstantFoldPass>());
  cantFail(PM.run(*M));
  KernelHarness H;
  uint64_t PD = H.allocI32({0});
  kir::Function *K = M->getFunction("k");
  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = 1;
  Range.LocalSize[0] = 1;
  auto Stats = H.Interp.run(*K, {PD}, Range);
  EXPECT_FALSE(static_cast<bool>(Stats));
}

/// Folds one-instruction kernels `out[0] = op(constants)` and checks
/// that each stores the same bits folded and unfolded. An i1 result is
/// widened to i32 before the store.
class FoldDifferential {
public:
  using BuildFn = std::function<kir::Value *(kir::IRBuilder &)>;

  /// Checks the kernel whose value \p Build emits. It must trap, both
  /// folded and unfolded, exactly when \p ExpectTrap is set; otherwise
  /// the fold must replace the stored value by a constant.
  void check(const std::string &What, const BuildFn &Build,
             bool ExpectTrap = false) {
    SCOPED_TRACE(What);
    bool Folded = false;
    std::optional<uint64_t> Plain = run(Build, /*Fold=*/false, Folded);
    std::optional<uint64_t> Fold = run(Build, /*Fold=*/true, Folded);
    EXPECT_EQ(!Plain, ExpectTrap);
    EXPECT_EQ(Folded, !ExpectTrap);
    EXPECT_EQ(Plain ? hex(*Plain) : "trap", Fold ? hex(*Fold) : "trap");
    ++Checked;
  }

  /// Constant-operand bit patterns of kind \p K: 0, +-1, the i32 and
  /// i64 extremes, the shift counts 31/32/63/64, and the f32 signed
  /// zeros, 0.5, NaN, infinities and out-of-range magnitudes.
  static std::vector<uint64_t> edges(kir::Type::Kind K) {
    using Lim32 = std::numeric_limits<int32_t>;
    using Lim64 = std::numeric_limits<int64_t>;
    using LimF = std::numeric_limits<float>;
    std::vector<int64_t> Ints = {0,  1,  -1, Lim32::min(), Lim32::max(),
                                 31, 32, 63, 64};
    switch (K) {
    case kir::Type::Kind::I1:
      return {0, 1};
    case kir::Type::Kind::I64:
      Ints.push_back(Lim64::min());
      Ints.push_back(Lim64::max());
      [[fallthrough]];
    case kir::Type::Kind::I32:
      return {Ints.begin(), Ints.end()};
    case kir::Type::Kind::F32: {
      std::vector<uint64_t> Bits;
      for (float F : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, LimF::quiet_NaN(),
                      LimF::infinity(), -LimF::infinity(), 1e30f, -1e30f,
                      3e19f})
        Bits.push_back(kir::Constant::encodeFloat(F));
      return Bits;
    }
    default:
      return {};
    }
  }

  static std::string hex(uint64_t Bits) {
    std::ostringstream OS;
    OS << "0x" << std::hex << Bits;
    return OS.str();
  }

  size_t Checked = 0;

private:
  /// Runs the kernel, after constant folding when \p Fold is set.
  /// \returns the stored bits, or nothing when the kernel trapped.
  std::optional<uint64_t> run(const BuildFn &Build, bool Fold,
                              bool &Folded) {
    kir::Module M("fold");
    kir::Function *F =
        M.createFunction("k", kir::Type::voidTy(), /*IsKernel=*/true);
    kir::IRBuilder B(F);
    B.setInsertPoint(F->createBlock("entry"));
    kir::Value *V = Build(B);
    if (V->type().isBool())
      V = B.cast(kir::CastKind::ZExtBool, V, kir::Type::i32());
    kir::Value *Out = F->addArgument(
        kir::Type::ptr(V->type().kind(), kir::AddrSpaceKind::Global), "out");
    B.store(Out, V);
    B.retVoid();
    cantFail(kir::verifyModule(M));
    if (Fold) {
      cantFail(passes::ConstantFoldPass().run(M));
      const auto &Insts = F->entryBlock()->instructions();
      Folded = isa<kir::Constant>(
          cast<kir::StoreInst>(*Insts[Insts.size() - 2]).value());
    }
    H.Mem.writeU64(Buf, 0);
    Expected<kir::ExecStats> Stats = H.Interp.run(*F, {Buf}, {});
    H.Interp.forget(M);
    if (!Stats)
      return std::nullopt;
    return V->type().kind() == kir::Type::Kind::I64 ? H.Mem.readU64(Buf)
                                                    : H.Mem.readU32(Buf);
  }

  KernelHarness H;
  uint64_t Buf = cantFail(H.Mem.allocate(8));
};

TEST(ConstantFoldTest, FoldsWithTheInterpreterSemantics) {
  // The paper's transparency claim covers the JIT's cleanups too: a
  // folded instruction must compute what the interpreter computes, out
  // of range and at NaN included, where a C++ cast would be undefined.
  using Kind = kir::Type::Kind;
  FoldDifferential D;
  auto Const = [](kir::IRBuilder &B, Kind K, uint64_t Bits) -> kir::Value * {
    if (K == Kind::F32)
      return B.f32Const(std::bit_cast<float>(static_cast<uint32_t>(Bits)));
    return B.function()->getIntConstant(kir::Type::scalar(K),
                                        static_cast<int64_t>(Bits));
  };

  for (unsigned Op = 0; Op <= static_cast<unsigned>(kir::BinOpKind::FDiv);
       ++Op) {
    auto K = static_cast<kir::BinOpKind>(Op);
    bool IsDivRem = K == kir::BinOpKind::SDiv || K == kir::BinOpKind::SRem;
    for (Kind T : kir::isFloatBinOp(K) ? std::vector<Kind>{Kind::F32}
                                       : std::vector<Kind>{Kind::I32,
                                                           Kind::I64})
      for (uint64_t L : D.edges(T))
        for (uint64_t R : D.edges(T))
          D.check(std::string(kir::binOpName(K)) + " " + D.hex(L) + ", " +
                      D.hex(R),
                  [&](kir::IRBuilder &B) {
                    return B.binary(K, Const(B, T, L), Const(B, T, R));
                  },
                  /*ExpectTrap=*/IsDivRem && R == 0);
  }

  for (unsigned P = 0; P <= static_cast<unsigned>(kir::CmpPred::FOGE); ++P) {
    auto Pred = static_cast<kir::CmpPred>(P);
    for (Kind T : kir::isFloatCmpPred(Pred)
                      ? std::vector<Kind>{Kind::F32}
                      : std::vector<Kind>{Kind::I1, Kind::I32, Kind::I64})
      for (uint64_t L : D.edges(T))
        for (uint64_t R : D.edges(T))
          D.check(std::string(kir::cmpPredName(Pred)) + " " + D.hex(L) +
                      ", " + D.hex(R),
                  [&](kir::IRBuilder &B) {
                    return B.cmp(Pred, Const(B, T, L), Const(B, T, R));
                  });
  }

  for (Kind T : {Kind::I1, Kind::I32, Kind::I64, Kind::F32})
    for (uint64_t Cond : {0, 1})
      for (uint64_t L : D.edges(T))
        for (uint64_t R : D.edges(T))
          D.check("select " + D.hex(Cond) + ", " + D.hex(L) + ", " +
                      D.hex(R),
                  [&](kir::IRBuilder &B) {
                    return B.select(Const(B, Kind::I1, Cond),
                                    Const(B, T, L), Const(B, T, R));
                  });

  struct CastCase {
    kir::CastKind CK;
    Kind From, To;
  };
  for (CastCase C : std::vector<CastCase>{
           {kir::CastKind::SExt, Kind::I32, Kind::I64},
           {kir::CastKind::Trunc, Kind::I64, Kind::I32},
           {kir::CastKind::SIToFP, Kind::I32, Kind::F32},
           {kir::CastKind::SIToFP, Kind::I64, Kind::F32},
           {kir::CastKind::FPToSI, Kind::F32, Kind::I32},
           {kir::CastKind::FPToSI, Kind::F32, Kind::I64},
           {kir::CastKind::ZExtBool, Kind::I1, Kind::I32},
           {kir::CastKind::ZExtBool, Kind::I1, Kind::I64}})
    for (uint64_t V : D.edges(C.From))
      D.check(std::string(kir::castKindName(C.CK)) + " " + D.hex(V) + " to " +
                  kir::Type::scalar(C.To).str(),
              [&](kir::IRBuilder &B) {
                return B.cast(C.CK, Const(B, C.From, V),
                              kir::Type::scalar(C.To));
              });
  EXPECT_GT(D.Checked, 5000u);
}

//===----------------------------------------------------------------------===//
// Register estimation
//===----------------------------------------------------------------------===//

TEST(RegisterEstimatorTest, MoreLiveValuesMoreRegisters) {
  auto Small = compileOrDie(
      "kernel void k(global float* d) { d[0] = 1.0f; }");
  auto Large = compileOrDie(R"(
    kernel void k(global float* d) {
      long g = get_global_id(0);
      float a = d[g];
      float b = d[g + 1];
      float c = d[g + 2];
      float e = d[g + 3];
      float f = d[g + 4];
      d[g] = a * b + c * e + f * a + b * c + e * f;
    }
  )");
  unsigned RS = passes::estimateRegisters(*Small->getFunction("k"));
  unsigned RL = passes::estimateRegisters(*Large->getFunction("k"));
  EXPECT_LT(RS, RL);
}

//===----------------------------------------------------------------------===//
// accelOS transform: structure
//===----------------------------------------------------------------------===//

const char *FigEightKernel = R"(
  kernel void mop(global const float* ina, global const float* inb,
                  global float* out) {
    long gid = get_global_id(0);
    long grid = get_group_id(0);
    if (grid < 4) {
      out[gid] = ina[gid] + inb[gid];
    } else {
      out[gid] = ina[gid] - inb[gid];
    }
  }
)";

TEST(TransformTest, CreatesSchedulingAndComputeFunctions) {
  auto M = compileOrDie(FigEightKernel);
  auto Transform = std::make_unique<passes::AccelOSTransform>();
  auto *TPtr = Transform.get();
  passes::PassManager PM;
  PM.addPass(std::move(Transform));
  cantFail(PM.run(*M));

  kir::Function *Sched = M->getFunction("mop");
  kir::Function *Comp = M->getFunction("mop__comp");
  ASSERT_NE(Sched, nullptr);
  ASSERT_NE(Comp, nullptr);
  EXPECT_TRUE(Sched->isKernel());
  EXPECT_FALSE(Comp->isKernel());
  // Scheduling kernel: 3 original args + rt.
  EXPECT_EQ(Sched->numArguments(), 4u);
  // Compute fn: 3 original + rt + sd + hdlr.
  EXPECT_EQ(Comp->numArguments(), 6u);
  // Metadata recorded.
  ASSERT_TRUE(TPtr->info().count("mop"));
  EXPECT_GT(TPtr->info().at("mop").ComputeInstCount, 0u);

  // The compute function must no longer contain physical id queries
  // that need virtualisation.
  for (const auto &BB : Comp->blocks())
    for (const auto &I : BB->instructions())
      if (const auto *B = dyn_cast<kir::BuiltinInst>(I.get())) {
        EXPECT_NE(B->builtinKind(), kir::BuiltinKind::GetGlobalId);
        EXPECT_NE(B->builtinKind(), kir::BuiltinKind::GetGroupId);
      }

  // The scheduling kernel contains the dequeue loop.
  bool HasSched = false, HasBarrier = false;
  for (const auto &BB : Sched->blocks())
    for (const auto &I : BB->instructions())
      if (const auto *B = dyn_cast<kir::BuiltinInst>(I.get())) {
        HasSched |= B->builtinKind() == kir::BuiltinKind::RtSchedWGroup;
        HasBarrier |= B->builtinKind() == kir::BuiltinKind::Barrier;
      }
  EXPECT_TRUE(HasSched);
  EXPECT_TRUE(HasBarrier);
}

TEST(TransformTest, DoubleTransformRejected) {
  auto M = compileOrDie(FigEightKernel);
  passes::PassManager PM;
  PM.addPass(std::make_unique<passes::AccelOSTransform>());
  cantFail(PM.run(*M));
  passes::AccelOSTransform Again;
  Error E = Again.run(*M);
  EXPECT_TRUE(static_cast<bool>(E));
}

//===----------------------------------------------------------------------===//
// accelOS transform: semantics preservation
//===----------------------------------------------------------------------===//

/// Writes a Virtual NDRange descriptor for \p Orig into device memory
/// (standing in for the Kernel Scheduler, paper Sec. 5) and returns its
/// address.
uint64_t writeDescriptor(kir::DeviceMemory &Mem, const kir::NDRangeCfg &Orig,
                         uint64_t Batch) {
  using namespace kir::rtlayout;
  uint64_t Rt = cantFail(Mem.allocate(virtualNDRangeBytes()));
  Mem.writeU64(Rt + 8 * RTW_Magic, VirtualNDRangeMagic);
  Mem.writeU64(Rt + 8 * RTW_TotalGroups, Orig.totalGroups());
  Mem.writeU64(Rt + 8 * RTW_Next, 0);
  Mem.writeU64(Rt + 8 * RTW_Batch, Batch);
  Mem.writeU64(Rt + 8 * RTW_WorkDim, Orig.WorkDim);
  for (unsigned D = 0; D != 3; ++D) {
    Mem.writeU64(Rt + 8 * (RTW_NumGroups0 + D), Orig.numGroups(D));
    Mem.writeU64(Rt + 8 * (RTW_LocalSize0 + D), Orig.LocalSize[D]);
    Mem.writeU64(Rt + 8 * (RTW_GlobalSize0 + D), Orig.GlobalSize[D]);
  }
  return Rt;
}

/// Runs \p Source's kernel \p Name both natively and through the
/// transform with \p PhysGroups physical groups and \p Batch batching,
/// comparing the contents of the float output buffer.
void expectTransformPreserves(const std::string &Source,
                              const std::string &Name, bool Inline,
                              const std::vector<std::vector<float>> &FIn,
                              size_t OutIndex, uint64_t Global,
                              uint64_t Local, uint64_t PhysGroups,
                              uint64_t Batch) {
  kir::NDRangeCfg Orig;
  Orig.GlobalSize[0] = Global;
  Orig.LocalSize[0] = Local;

  // Reference: untransformed execution.
  std::vector<float> Want;
  {
    auto M = compileOrDie(Source);
    KernelHarness H;
    std::vector<uint64_t> Args;
    for (const auto &Buf : FIn)
      Args.push_back(H.allocF32(Buf));
    H.run1D(*M, Name, Args, Global, Local);
    Want = H.readF32(Args[OutIndex], FIn[OutIndex].size());
  }

  // Transformed execution on a reduced physical range.
  auto M = compileOrDie(Source);
  passes::PassManager PM;
  if (Inline)
    PM.addPass(std::make_unique<passes::InlinerPass>());
  PM.addPass(std::make_unique<passes::AccelOSTransform>());
  cantFail(PM.run(*M));

  KernelHarness H;
  std::vector<uint64_t> Args;
  for (const auto &Buf : FIn)
    Args.push_back(H.allocF32(Buf));
  uint64_t Rt = writeDescriptor(H.Mem, Orig, Batch);
  std::vector<uint64_t> SchedArgs = Args;
  SchedArgs.push_back(Rt);

  kir::Function *K = M->getFunction(Name);
  ASSERT_NE(K, nullptr);
  kir::NDRangeCfg Reduced;
  Reduced.GlobalSize[0] = PhysGroups * Local;
  Reduced.LocalSize[0] = Local;
  auto Stats = H.Interp.run(*K, SchedArgs, Reduced);
  ASSERT_TRUE(static_cast<bool>(Stats)) << Stats.message();
  EXPECT_GT(Stats->AtomicOps, 0u) << "dequeue loop never ran";

  auto Got = H.readF32(Args[OutIndex], FIn[OutIndex].size());
  for (size_t I = 0; I != Want.size(); ++I)
    ASSERT_FLOAT_EQ(Got[I], Want[I]) << "element " << I;
}

TEST(TransformTest, PreservesFigEightSemantics) {
  std::vector<float> A(64), BV(64), Out(64, 0);
  for (int I = 0; I < 64; ++I) {
    A[I] = static_cast<float>(I);
    BV[I] = static_cast<float>(I % 9);
  }
  expectTransformPreserves(FigEightKernel, "mop", /*Inline=*/false,
                           {A, BV, Out}, 2, /*Global=*/64, /*Local=*/8,
                           /*PhysGroups=*/2, /*Batch=*/1);
}

TEST(TransformTest, PreservesWithInliningAndBatching) {
  std::vector<float> A(64), BV(64), Out(64, 0);
  for (int I = 0; I < 64; ++I) {
    A[I] = static_cast<float>(2 * I);
    BV[I] = static_cast<float>(I % 5);
  }
  expectTransformPreserves(FigEightKernel, "mop", /*Inline=*/true,
                           {A, BV, Out}, 2, 64, 8, /*PhysGroups=*/3,
                           /*Batch=*/4);
}

TEST(TransformTest, PreservesLocalMemoryReduction) {
  const char *Src = R"(
    kernel void reduce(global const float* in, global float* out) {
      local float tile[8];
      long lid = get_local_id(0);
      tile[lid] = in[get_global_id(0)];
      barrier();
      int stride = 4;
      while (stride > 0) {
        if (lid < stride) {
          tile[lid] += tile[lid + stride];
        }
        barrier();
        stride = stride / 2;
      }
      if (lid == 0) {
        out[get_group_id(0)] = tile[0];
      }
    }
  )";
  std::vector<float> In(64);
  for (int I = 0; I < 64; ++I)
    In[I] = static_cast<float>((I * 13) % 11);
  std::vector<float> Out(8, 0);
  expectTransformPreserves(Src, "reduce", /*Inline=*/false, {In, Out}, 1,
                           /*Global=*/64, /*Local=*/8, /*PhysGroups=*/2,
                           /*Batch=*/2);
}

TEST(TransformTest, HelperFunctionsGetRuntimeArgs) {
  const char *Src = R"(
    float readAt(global const float* p, long offset) {
      return p[get_global_id(0) + offset];
    }
    kernel void shift(global const float* in, global float* out) {
      long g = get_global_id(0);
      long n = get_global_size(0);
      if (g + 1 < n) {
        out[g] = readAt(in, 1);
      } else {
        out[g] = in[g];
      }
    }
  )";
  std::vector<float> In(32);
  for (int I = 0; I < 32; ++I)
    In[I] = static_cast<float>(I * I);
  std::vector<float> Out(32, 0);
  // Not inlined: exercises the call-interface extension path.
  expectTransformPreserves(Src, "shift", /*Inline=*/false, {In, Out}, 1,
                           32, 4, /*PhysGroups=*/2, /*Batch=*/1);
}

/// Property-style sweep: semantics hold across physical group counts and
/// batch sizes (paper Sec. 6.4 adaptive values).
struct SweepParam {
  uint64_t PhysGroups;
  uint64_t Batch;
};

class TransformSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TransformSweep, SemanticsHold) {
  std::vector<float> A(96), BV(96), Out(96, 0);
  for (int I = 0; I < 96; ++I) {
    A[I] = static_cast<float>(I % 17);
    BV[I] = static_cast<float>(I % 3 + 1);
  }
  expectTransformPreserves(FigEightKernel, "mop", /*Inline=*/true,
                           {A, BV, Out}, 2, /*Global=*/96, /*Local=*/8,
                           GetParam().PhysGroups, GetParam().Batch);
}

INSTANTIATE_TEST_SUITE_P(
    PhysGroupsAndBatches, TransformSweep,
    ::testing::Values(SweepParam{1, 1}, SweepParam{1, 8}, SweepParam{2, 1},
                      SweepParam{2, 2}, SweepParam{3, 4}, SweepParam{4, 6},
                      SweepParam{6, 8}, SweepParam{12, 1},
                      SweepParam{12, 8}, SweepParam{16, 2}));

TEST(TransformTest, RegisterOverheadBoundedAfterInlining) {
  auto MBase = compileOrDie(FigEightKernel);
  unsigned Before = passes::estimateRegisters(*MBase->getFunction("mop"));

  auto M = compileOrDie(FigEightKernel);
  passes::PassManager PM;
  PM.addPass(std::make_unique<passes::InlinerPass>());
  PM.addPass(std::make_unique<passes::AccelOSTransform>());
  cantFail(PM.run(*M));
  // After the transform the computation happens in mop__comp; the paper
  // reports +3 registers before inlining, 0-1 after (Sec. 6.5). Our
  // estimator works on the un-inlined compute function, so allow the
  // +3-ish interface overhead but no blow-up.
  unsigned After = passes::estimateRegisters(*M->getFunction("mop__comp"));
  EXPECT_LE(After, Before + 4);
}

} // namespace
