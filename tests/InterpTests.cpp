//===- tests/InterpTests.cpp - Functional execution tests ------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "kir/FlatCode.h"
#include "kir/IRBuilder.h"
#include "kir/RtLayout.h"
#include "kir/Verifier.h"
#include "minicl/Lexer.h"
#include "passes/AccelOSTransform.h"
#include "passes/ConstantFold.h"
#include "passes/DCE.h"
#include "passes/Inliner.h"
#include "passes/Pass.h"
#include "support/Random.h"
#include "workloads/KernelSpec.h"

#include "Golden.h"
#include "TestUtil.h"
#include "gtest/gtest.h"

#include <atomic>
#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>
#include <sstream>

namespace {
/// Every global operator new in this binary, so a test can count the
/// heap allocations one launch makes.
std::atomic<uint64_t> HeapAllocations{0};
} // namespace

// Out of line, so no caller sees malloc and free paired with new/delete.
[[gnu::noinline]] void *operator new(std::size_t Size) {
  ++HeapAllocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

using namespace accel;
using accel::testutil::KernelHarness;
using accel::testutil::compileOrDie;

namespace {

/// Runs \p Kernel over one 1-D range and \returns its trap message ("" if
/// it ran to completion).
std::string trapOf(kir::Interpreter &Interp, const kir::Function &Kernel,
                   const std::vector<uint64_t> &Args, uint64_t Global = 1,
                   uint64_t Local = 1) {
  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = Global;
  Range.LocalSize[0] = Local;
  Expected<kir::ExecStats> Stats = Interp.run(Kernel, Args, Range);
  return Stats ? "" : Stats.message();
}

/// Every ExecStats field, for comparing two launches.
std::vector<uint64_t> statsFields(const kir::ExecStats &S) {
  std::vector<uint64_t> F = {S.InstsExecuted, S.AtomicOps, S.Barriers,
                             S.MemoryOps, S.MathOps};
  F.insert(F.end(), S.GroupInsts.begin(), S.GroupInsts.end());
  return F;
}

TEST(InterpTest, VectorAdd) {
  auto M = compileOrDie(R"(
    kernel void vadd(global const float* a, global const float* b,
                     global float* c) {
      long gid = get_global_id(0);
      c[gid] = a[gid] + b[gid];
    }
  )");
  ASSERT_NE(M, nullptr);
  KernelHarness H;
  std::vector<float> A(64), B(64);
  for (int I = 0; I < 64; ++I) {
    A[I] = static_cast<float>(I);
    B[I] = static_cast<float>(2 * I);
  }
  uint64_t PA = H.allocF32(A), PB = H.allocF32(B),
           PC = H.allocF32(std::vector<float>(64, 0));
  H.run1D(*M, "vadd", {PA, PB, PC}, 64, 16);
  auto C = H.readF32(PC, 64);
  for (int I = 0; I < 64; ++I)
    EXPECT_FLOAT_EQ(C[I], 3.0f * I);
}

TEST(InterpTest, BranchingOnGroupId) {
  // The paper's Fig. 8a kernel: adds in low groups, subtracts in high.
  auto M = compileOrDie(R"(
    kernel void mop(global const float* ina, global const float* inb,
                    global float* out) {
      long gid = get_global_id(0);
      long grid = get_group_id(0);
      if (grid < 2) {
        out[gid] = ina[gid] + inb[gid];
      } else {
        out[gid] = ina[gid] - inb[gid];
      }
    }
  )");
  ASSERT_NE(M, nullptr);
  KernelHarness H;
  std::vector<float> A(32, 10.0f), B(32, 3.0f);
  uint64_t PA = H.allocF32(A), PB = H.allocF32(B),
           PC = H.allocF32(std::vector<float>(32, 0));
  H.run1D(*M, "mop", {PA, PB, PC}, 32, 8); // 4 groups of 8
  auto C = H.readF32(PC, 32);
  for (int I = 0; I < 16; ++I)
    EXPECT_FLOAT_EQ(C[I], 13.0f);
  for (int I = 16; I < 32; ++I)
    EXPECT_FLOAT_EQ(C[I], 7.0f);
}

TEST(InterpTest, LocalMemoryReductionWithBarriers) {
  auto M = compileOrDie(R"(
    kernel void reduce(global const float* in, global float* out) {
      local float tile[16];
      long lid = get_local_id(0);
      long gid = get_global_id(0);
      tile[lid] = in[gid];
      barrier();
      int stride = 8;
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
  )");
  ASSERT_NE(M, nullptr);
  KernelHarness H;
  std::vector<float> In(64);
  for (int I = 0; I < 64; ++I)
    In[I] = static_cast<float>(I % 7);
  uint64_t PIn = H.allocF32(In),
           POut = H.allocF32(std::vector<float>(4, 0));
  H.run1D(*M, "reduce", {PIn, POut}, 64, 16);
  auto Out = H.readF32(POut, 4);
  for (int G = 0; G < 4; ++G) {
    float Want = 0;
    for (int I = 0; I < 16; ++I)
      Want += In[G * 16 + I];
    EXPECT_FLOAT_EQ(Out[G], Want) << "group " << G;
  }
}

TEST(InterpTest, AtomicsAcrossGroups) {
  auto M2 = compileOrDie(R"(
    kernel void histo(global const int* keys, global int* bins) {
      long gid = get_global_id(0);
      int k = keys[gid];
      int ignored = atomic_add(bins, k);
    }
  )");
  ASSERT_NE(M2, nullptr);
  KernelHarness H;
  std::vector<int32_t> Keys(128);
  int32_t Want = 0;
  for (int I = 0; I < 128; ++I) {
    Keys[I] = I % 5;
    Want += Keys[I];
  }
  uint64_t PK = H.allocI32(Keys),
           PB = H.allocI32(std::vector<int32_t>(1, 0));
  H.run1D(*M2, "histo", {PK, PB}, 128, 32);
  EXPECT_EQ(H.readI32(PB, 1)[0], Want);
}

TEST(InterpTest, HelperFunctionCalls) {
  auto M = compileOrDie(R"(
    float axpy(float a, float x, float y) { return a * x + y; }
    int clampi(int v, int lo, int hi) {
      if (v < lo) { return lo; }
      if (v > hi) { return hi; }
      return v;
    }
    kernel void k(global float* d, global const int* idx) {
      long gid = get_global_id(0);
      int j = clampi(idx[gid], 0, 7);
      d[gid] = axpy(2.0f, (float)j, 1.0f);
    }
  )");
  ASSERT_NE(M, nullptr);
  KernelHarness H;
  std::vector<int32_t> Idx = {-5, 0, 3, 900, 7, 2, -1, 6};
  uint64_t PD = H.allocF32(std::vector<float>(8, 0)),
           PI = H.allocI32(Idx);
  H.run1D(*M, "k", {PD, PI}, 8, 4);
  auto D = H.readF32(PD, 8);
  int Clamped[] = {0, 0, 3, 7, 7, 2, 0, 6};
  for (int I = 0; I < 8; ++I)
    EXPECT_FLOAT_EQ(D[I], 2.0f * Clamped[I] + 1.0f);
}

TEST(InterpTest, PrivateArrays) {
  auto M = compileOrDie(R"(
    kernel void k(global float* d) {
      long gid = get_global_id(0);
      float acc[4];
      for (int i = 0; i < 4; i++) {
        acc[i] = (float)i * (float)gid;
      }
      float s = 0.0f;
      for (int i = 0; i < 4; i++) {
        s += acc[i];
      }
      d[gid] = s;
    }
  )");
  ASSERT_NE(M, nullptr);
  KernelHarness H;
  uint64_t PD = H.allocF32(std::vector<float>(16, 0));
  H.run1D(*M, "k", {PD}, 16, 4);
  auto D = H.readF32(PD, 16);
  for (int G = 0; G < 16; ++G)
    EXPECT_FLOAT_EQ(D[G], 6.0f * G); // 0+1+2+3 = 6
}

TEST(InterpTest, MathBuiltins) {
  auto M = compileOrDie(R"(
    kernel void k(global float* d) {
      long g = get_global_id(0);
      float x = d[g];
      d[g] = sqrt(x) + fabs(-x) + fmin(x, 1.0f) + fmax(x, 2.0f);
    }
  )");
  ASSERT_NE(M, nullptr);
  KernelHarness H;
  uint64_t PD = H.allocF32({4.0f, 9.0f});
  H.run1D(*M, "k", {PD}, 2, 1);
  auto D = H.readF32(PD, 2);
  EXPECT_FLOAT_EQ(D[0], 2.0f + 4.0f + 1.0f + 4.0f);
  EXPECT_FLOAT_EQ(D[1], 3.0f + 9.0f + 1.0f + 9.0f);
}

TEST(InterpTest, IntegerOpsAndShifts) {
  auto M = compileOrDie(R"(
    kernel void k(global int* d) {
      long g = get_global_id(0);
      int v = d[g];
      d[g] = ((v << 2) | 1) ^ (v >> 1) & ~v % 7;
    }
  )");
  ASSERT_NE(M, nullptr);
  KernelHarness H;
  std::vector<int32_t> In = {0, 1, 5, -9, 1000, -1};
  uint64_t PD = H.allocI32(In);
  H.run1D(*M, "k", {PD}, 6, 2);
  auto D = H.readI32(PD, 6);
  for (int I = 0; I < 6; ++I) {
    int32_t V = In[I];
    int32_t Want = ((V << 2) | 1) ^ ((V >> 1) & (~V % 7));
    EXPECT_EQ(D[I], Want) << "element " << I;
  }
}

TEST(InterpTest, TwoDimensionalRange) {
  auto M = compileOrDie(R"(
    kernel void k(global int* d, int width) {
      long x = get_global_id(0);
      long y = get_global_id(1);
      d[y * (long)width + x] = (int)(x * 100 + y);
    }
  )");
  ASSERT_NE(M, nullptr);
  KernelHarness H;
  uint64_t PD = H.allocI32(std::vector<int32_t>(64, -1));
  kir::Function *K = M->getFunction("k");
  kir::NDRangeCfg Range;
  Range.WorkDim = 2;
  Range.GlobalSize[0] = 8;
  Range.GlobalSize[1] = 8;
  Range.LocalSize[0] = 4;
  Range.LocalSize[1] = 2;
  auto Stats = H.Interp.run(*K, {PD, 8}, Range);
  ASSERT_TRUE(static_cast<bool>(Stats)) << Stats.message();
  auto D = H.readI32(PD, 64);
  for (int Y = 0; Y < 8; ++Y)
    for (int X = 0; X < 8; ++X)
      EXPECT_EQ(D[Y * 8 + X], X * 100 + Y);
}

TEST(InterpTest, GroupCountsReported) {
  auto M = compileOrDie(R"(
    kernel void k(global float* d) {
      long g = get_global_id(0);
      d[g] = (float)g;
    }
  )");
  KernelHarness H;
  uint64_t PD = H.allocF32(std::vector<float>(32, 0));
  auto Stats = H.run1D(*M, "k", {PD}, 32, 8);
  EXPECT_EQ(Stats.GroupInsts.size(), 4u);
  for (uint64_t N : Stats.GroupInsts)
    EXPECT_GT(N, 0u);
  EXPECT_GT(Stats.InstsExecuted, 0u);
}

TEST(InterpTest, MemoryAndMathOpsCounted) {
  // The measured counterpart of the static cost prior's instruction
  // mix: every work item does one sqrt, one global load, and one
  // global store (plus private alloca traffic).
  auto M = compileOrDie(R"(
    kernel void k(global float* d) {
      long g = get_global_id(0);
      d[g] = sqrt(d[g]);
    }
  )");
  KernelHarness H;
  uint64_t PD = H.allocF32(std::vector<float>(32, 4.0f));
  auto Stats = H.run1D(*M, "k", {PD}, 32, 8);
  EXPECT_EQ(Stats.MathOps, 32u);
  // At least the explicit global load + store per work item; private
  // slots add more on top.
  EXPECT_GE(Stats.MemoryOps, 64u);
  auto Out = H.readF32(PD, 32);
  for (float V : Out)
    EXPECT_FLOAT_EQ(V, 2.0f);
}

TEST(InterpTest, OutOfBoundsTraps) {
  // One wild index per address space.
  auto M = compileOrDie(R"(
    kernel void wild_global(global float* d) {
      d[1000000] = 1.0f;
    }
    kernel void wild_local(global int* d) {
      local int tile[4];
      long i = d[0];
      tile[i] = 1;
    }
    kernel void wild_private(global int* d) {
      int a[4];
      long i = d[0];
      a[i] = 1;
      d[1] = a[0];
    }
  )");
  // Small device memory so the wild global index lands outside it.
  KernelHarness H(/*MemBytes=*/1 << 20);
  uint64_t PD = H.allocI32({100000, 0, 0, 0});
  EXPECT_EQ(trapOf(H.Interp, *M->getFunction("wild_global"), {PD}),
            "kernel trap in group 0: global memory store out of bounds "
            "(addr " +
                std::to_string(PD + 4000000) + ")");
  EXPECT_EQ(trapOf(H.Interp, *M->getFunction("wild_local"), {PD}),
            "kernel trap in group 0: local memory access out of bounds");
  EXPECT_EQ(trapOf(H.Interp, *M->getFunction("wild_private"), {PD}),
            "kernel trap in group 0: private memory access out of bounds");
}

TEST(InterpTest, DivisionByZeroTraps) {
  auto M = compileOrDie(R"(
    kernel void k(global int* d) {
      d[0] = 10 / d[1];
    }
  )");
  KernelHarness H;
  uint64_t PD = H.allocI32({1, 0});
  kir::Function *K = M->getFunction("k");
  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = 1;
  Range.LocalSize[0] = 1;
  auto Stats = H.Interp.run(*K, {PD}, Range);
  ASSERT_FALSE(static_cast<bool>(Stats));
  EXPECT_NE(Stats.message().find("division by zero"), std::string::npos);
}

TEST(InterpTest, RunawayLoopTraps) {
  // The trap names the function the budget ran out in.
  auto M = compileOrDie(R"(
    int spin(int n) {
      int i = n;
      while (true) {
        i++;
        if (i < 0) { break; }
      }
      return i;
    }
    kernel void k(global int* d) {
      int i = 0;
      while (true) {
        i++;
        if (i < 0) { break; }
      }
      d[0] = i;
    }
    kernel void k_callee(global int* d) {
      d[0] = spin(d[0]);
    }
  )");
  KernelHarness H;
  H.Interp.setMaxStepsPerWorkItem(10000);
  uint64_t PD = H.allocI32({0});
  EXPECT_EQ(trapOf(H.Interp, *M->getFunction("k"), {PD}),
            "kernel trap in group 0: work item exceeded step budget in 'k'");
  EXPECT_EQ(trapOf(H.Interp, *M->getFunction("k_callee"), {PD}),
            "kernel trap in group 0: work item exceeded step budget in "
            "'spin'");
}

TEST(InterpTest, BarrierDivergenceTraps) {
  auto M = compileOrDie(R"(
    kernel void k(global int* d) {
      long lid = get_local_id(0);
      if (lid == 0) {
        barrier();
      }
      d[lid] = 1;
    }
  )");
  KernelHarness H;
  uint64_t PD = H.allocI32(std::vector<int32_t>(4, 0));
  kir::Function *K = M->getFunction("k");
  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = 4;
  Range.LocalSize[0] = 4;
  auto Stats = H.Interp.run(*K, {PD}, Range);
  ASSERT_FALSE(static_cast<bool>(Stats));
  EXPECT_NE(Stats.message().find("barrier divergence"), std::string::npos);
}

TEST(InterpTest, ManyGroupsBeyondWindow) {
  // More groups than the concurrent-group window forces group retirement
  // and admission logic to run.
  auto M = compileOrDie(R"(
    kernel void k(global int* d) {
      long g = get_global_id(0);
      d[g] = (int)(g * 3);
    }
  )");
  KernelHarness H;
  H.Interp.setMaxConcurrentGroups(4);
  uint64_t PD = H.allocI32(std::vector<int32_t>(256, 0));
  H.run1D(*M, "k", {PD}, 256, 2); // 128 groups, window of 4
  auto D = H.readI32(PD, 256);
  for (int I = 0; I < 256; ++I)
    EXPECT_EQ(D[I], I * 3);
}

//===----------------------------------------------------------------------===//
// Traps and recycled state
//===----------------------------------------------------------------------===//

TEST(InterpTest, WidthSpecificOpcodes) {
  // i32 registers hold sign-extended values; each result is stored as
  // its full 64-bit register. MiniCL emits neither lshr nor the unsigned
  // compares, so the kernel is built by hand.
  using namespace kir;
  Module M("m");
  Function *K = M.createFunction("k", Type::voidTy(), true);
  Argument *Out =
      K->addArgument(Type::ptr(Type::Kind::I64, AddrSpaceKind::Global), "out");
  IRBuilder B(K);
  B.setInsertPoint(B.createBlock("entry"));
  std::vector<int64_t> Want;
  auto Emit = [&](Value *V, int64_t Expected) {
    if (V->type().isBool())
      V = B.cast(CastKind::ZExtBool, V, Type::i32());
    V = B.cast(CastKind::SExt, V, Type::i64());
    B.store(B.gep(Out, B.i64Const(static_cast<int64_t>(Want.size()))), V);
    Want.push_back(Expected);
  };
  Value *I32Min = B.i32Const(INT32_MIN);
  // An i32 constant outside the sign-extended form: only its low 32
  // bits (zero) count.
  Value *Wide = K->getIntConstant(Type::i32(), int64_t(1) << 32);
  Emit(B.add(B.i32Const(INT32_MAX), B.i32Const(1)), INT32_MIN);
  Emit(B.add(B.i64Const(INT32_MAX), B.i64Const(1)), int64_t(1) << 31);
  Emit(B.binary(BinOpKind::Shl, B.i32Const(1), B.i32Const(31)), INT32_MIN);
  Emit(B.binary(BinOpKind::Shl, B.i32Const(1), B.i32Const(33)), 2);
  Emit(B.binary(BinOpKind::AShr, B.i32Const(-8), B.i32Const(1)), -4);
  Emit(B.binary(BinOpKind::LShr, B.i32Const(-8), B.i32Const(1)),
       0x7FFFFFFC);
  Emit(B.binary(BinOpKind::LShr, B.i64Const(-8), B.i64Const(1)),
       INT64_MAX - 3);
  Emit(B.binary(BinOpKind::SDiv, I32Min, B.i32Const(-1)), INT32_MIN);
  Emit(B.binary(BinOpKind::SDiv, B.i64Const(INT64_MIN), B.i64Const(-1)),
       INT64_MIN);
  Emit(B.cmp(CmpPred::ULT, Wide, B.i32Const(1)), 1);
  Emit(B.cmp(CmpPred::UGE, Wide, B.i32Const(1)), 0);
  Emit(B.cast(CastKind::Trunc, B.i64Const(int64_t(3) << 31), Type::i32()),
       INT32_MIN);
  Emit(B.cast(CastKind::FPToSI, B.f32Const(3e9f), Type::i32()),
       int64_t(3000000000) - (int64_t(1) << 32));
  Emit(B.cast(CastKind::FPToSI, B.f32Const(3e9f), Type::i64()), 3000000000);
  Emit(B.builtin(BuiltinKind::IAbs, Type::i32(), {I32Min}), INT32_MIN);
  Emit(B.builtin(BuiltinKind::IAbs, Type::i64(), {B.i64Const(INT32_MIN)}),
       int64_t(1) << 31);
  B.retVoid();

  KernelHarness H;
  uint64_t POut = cantFail(H.Mem.allocate(8 * Want.size()));
  EXPECT_EQ(trapOf(H.Interp, *K, {POut}), "");
  std::vector<int64_t> Got(Want.size());
  H.Mem.copyOut(POut, Got.data(), 8 * Got.size());
  EXPECT_EQ(Got, Want);
}

TEST(InterpTest, RegistersReadZeroAfterReuse) {
  // %x is defined only when `flag` is set but read either way (the
  // verifier does not check dominance), so with `flag` clear it must
  // read zero, as on a fresh interpreter, not the previous launch's 42.
  using namespace kir;
  Module M("m");
  Function *K = M.createFunction("k", Type::voidTy(), true);
  Argument *Out =
      K->addArgument(Type::ptr(Type::Kind::I64, AddrSpaceKind::Global), "out");
  Argument *Flag = K->addArgument(Type::i64(), "flag");
  IRBuilder B(K);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Def = B.createBlock("def");
  BasicBlock *Use = B.createBlock("use");
  B.setInsertPoint(Def);
  Value *X = B.add(Flag, B.i64Const(41), "x");
  B.br(Use);
  B.setInsertPoint(Entry);
  B.condBr(B.cmp(CmpPred::NE, Flag, B.i64Const(0)), Def, Use);
  B.setInsertPoint(Use);
  Value *Gid = B.builtin(BuiltinKind::GetGlobalId, Type::i64(),
                         {B.i32Const(0)});
  B.store(B.gep(Out, Gid), X);
  B.retVoid();

  KernelHarness H;
  uint64_t POut = cantFail(H.Mem.allocate(8 * 4));
  auto Run = [&](uint64_t FlagValue) {
    EXPECT_EQ(trapOf(H.Interp, *K, {POut, FlagValue}, 4, 2), "");
    std::vector<uint64_t> Got(4);
    H.Mem.copyOut(POut, Got.data(), 8 * Got.size());
    return Got;
  };
  EXPECT_EQ(Run(1), std::vector<uint64_t>(4, 42));
  EXPECT_EQ(Run(0), std::vector<uint64_t>(4, 0));
}

TEST(InterpTest, CallStackOverflowsAtSixtyFourFrames) {
  // MiniCL rejects recursion, so build the self-call by hand.
  kir::Module M("m");
  kir::Function *F = M.createFunction("f", kir::Type::voidTy(), false);
  kir::IRBuilder FB(F);
  FB.setInsertPoint(FB.createBlock("entry"));
  FB.call(F, {});
  FB.retVoid();
  kir::Function *K = M.createFunction("k", kir::Type::voidTy(), true);
  kir::IRBuilder KB(K);
  KB.setInsertPoint(KB.createBlock("entry"));
  KB.call(F, {});
  KB.retVoid();

  // Each of the 64 frames executes one call; the 64th one traps.
  KernelHarness H;
  H.Interp.setMaxStepsPerWorkItem(64);
  EXPECT_EQ(trapOf(H.Interp, *K, {}),
            "kernel trap in group 0: call stack overflow (recursion?) in "
            "'f'");
  H.Interp.setMaxStepsPerWorkItem(63);
  EXPECT_EQ(trapOf(H.Interp, *K, {}),
            "kernel trap in group 0: work item exceeded step budget in 'f'");
}

TEST(InterpTest, CleanLaunchAfterTrappedLaunch) {
  // Group `bad` traps after the barrier, while the other groups of the
  // window hold live frames, private arrays and local memory.
  auto M = compileOrDie(R"(
    int twice(int v) { return v * 2; }
    kernel void k(global int* d, int bad) {
      local int tile[8];
      long lid = get_local_id(0);
      int acc[2];
      tile[lid] = (int)lid;
      barrier();
      if (get_group_id(0) == (long)bad) {
        d[100000000] = 1;
      }
      acc[1] = twice(tile[7 - lid]);
      d[get_global_id(0)] = acc[0] + acc[1];
    }
  )");
  kir::Function *K = M->getFunction("k");
  KernelHarness Fresh, Reused;
  uint64_t PFresh = Fresh.allocI32(std::vector<int32_t>(64, -1));
  uint64_t PReused = Reused.allocI32(std::vector<int32_t>(64, -1));
  EXPECT_NE(trapOf(Reused.Interp, *K, {PReused, 2}, 64, 8)
                .find("global memory store out of bounds"),
            std::string::npos);

  kir::ExecStats Want = Fresh.run1D(*M, "k", {PFresh, 99}, 64, 8);
  kir::ExecStats Got = Reused.run1D(*M, "k", {PReused, 99}, 64, 8);
  EXPECT_EQ(statsFields(Got), statsFields(Want));
  std::vector<int32_t> Out = Reused.readI32(PReused, 64);
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Out[I], 2 * (7 - I % 8)) << "element " << I;
}

TEST(InterpTest, UninitializedMemoryReadsZeroAfterReuse) {
  // `r` reads private and local arrays it never wrote, on the work items
  // and group state `w` just filled.
  auto M = compileOrDie(R"(
    kernel void w(global int* d) {
      int a[16];
      local int tile[16];
      for (int i = 0; i < 16; i++) {
        a[i] = 7;
        tile[i] = 7;
      }
      d[get_global_id(0)] = a[15] + tile[15];
    }
    kernel void r(global int* d) {
      int a[16];
      local int tile[16];
      int s = 0;
      for (int i = 0; i < 16; i++) {
        s += a[i] + tile[i];
      }
      d[get_global_id(0)] = s;
    }
  )");
  KernelHarness H;
  uint64_t PD = H.allocI32(std::vector<int32_t>(8, -1));
  H.run1D(*M, "w", {PD}, 8, 4);
  EXPECT_EQ(H.readI32(PD, 8), std::vector<int32_t>(8, 14));
  H.run1D(*M, "r", {PD}, 8, 4);
  EXPECT_EQ(H.readI32(PD, 8), std::vector<int32_t>(8, 0));
}

TEST(InterpTest, StepBudgetIsPerLaunch) {
  auto M = compileOrDie(R"(
    kernel void k(global int* d) {
      int s = 0;
      for (int i = 0; i < 100; i++) {
        s += i;
      }
      d[get_global_id(0)] = s;
    }
  )");
  KernelHarness H;
  uint64_t PD = H.allocI32(std::vector<int32_t>(8, 0));
  kir::ExecStats First = H.run1D(*M, "k", {PD}, 8, 4);
  // Every work item runs the same steps; allow exactly that many.
  H.Interp.setMaxStepsPerWorkItem(First.InstsExecuted / 8);
  for (int Launch = 0; Launch != 3; ++Launch)
    EXPECT_EQ(statsFields(H.run1D(*M, "k", {PD}, 8, 4)), statsFields(First));
  H.Interp.setMaxStepsPerWorkItem(First.InstsExecuted / 8 - 1);
  EXPECT_NE(trapOf(H.Interp, *M->getFunction("k"), {PD}, 8, 4)
                .find("step budget"),
            std::string::npos);
}

TEST(InterpTest, AlternatingKernelsAndWorkGroupSizes) {
  // Two kernels with different local memory, private arrays and calls
  // take turns on one interpreter at changing work-group sizes; each
  // launch must match a fresh interpreter's.
  auto M = compileOrDie(R"(
    int twice(int v) { return v * 2; }
    kernel void sum(global int* d) {
      local int tile[16];
      long lid = get_local_id(0);
      long n = get_local_size(0);
      tile[lid] = d[get_global_id(0)];
      barrier();
      if (lid == 0) {
        int s = 0;
        for (long i = 0; i < n; i++) {
          s += tile[i];
        }
        d[64 + get_group_id(0)] = s;
      }
    }
    kernel void mix(global int* d) {
      int a[3];
      long g = get_global_id(0);
      a[g % 3] = twice(d[g]);
      d[g] = a[0] + a[1] + a[2] + (int)get_local_id(0);
    }
  )");
  std::vector<int32_t> In(128);
  std::iota(In.begin(), In.end(), 0);
  KernelHarness Reused;
  uint64_t RD = Reused.allocI32(In);
  for (auto [Name, Local] :
       {std::pair<const char *, uint64_t>{"sum", 16}, {"mix", 4},
        {"sum", 2}, {"mix", 16}, {"sum", 8}, {"mix", 1}}) {
    KernelHarness Fresh;
    uint64_t FD = Fresh.allocI32(Reused.readI32(RD, 128));
    kir::ExecStats Want = Fresh.run1D(*M, Name, {FD}, 64, Local);
    kir::ExecStats Got = Reused.run1D(*M, Name, {RD}, 64, Local);
    EXPECT_EQ(statsFields(Got), statsFields(Want)) << Name << " " << Local;
    EXPECT_EQ(Reused.readI32(RD, 128), Fresh.readI32(FD, 128))
        << Name << " " << Local;
  }
}

TEST(InterpTest, LaunchHeapAllocationsIndependentOfWorkItemsAndCalls) {
  // Work items and calls run on recycled state: once warm, a launch makes
  // the same few heap allocations however many groups, work items and
  // calls it runs, even right after a trapped launch.
  auto M = compileOrDie(R"(
    float scale(float v, float f) {
      float t[2];
      t[0] = v * f;
      return t[0];
    }
    kernel void k(global float* d) {
      local float tile[16];
      long lid = get_local_id(0);
      tile[lid] = scale(d[get_global_id(0)], 2.0f);
      barrier();
      d[get_global_id(0)] = scale(tile[15 - lid], 0.5f);
    }
  )");
  KernelHarness H;
  uint64_t PD = H.allocF32(std::vector<float>(512, 1.0f));
  kir::Function *K = M->getFunction("k");
  std::vector<uint64_t> Args = {PD};
  auto AllocationsOf = [&](uint64_t Global) {
    kir::NDRangeCfg Range;
    Range.GlobalSize[0] = Global;
    Range.LocalSize[0] = 16;
    uint64_t Before = HeapAllocations.load();
    Expected<kir::ExecStats> Stats = H.Interp.run(*K, Args, Range);
    uint64_t After = HeapAllocations.load();
    EXPECT_TRUE(static_cast<bool>(Stats)) << Stats.message();
    return After - Before;
  };
  AllocationsOf(512); // warm: lowers the code, fills the group pool
  // A trapped launch (null buffer) hands its groups back too.
  EXPECT_NE(trapOf(H.Interp, *K, {0}, 512, 16), "");
  uint64_t Small = AllocationsOf(32);
  uint64_t Large = AllocationsOf(512);
  EXPECT_EQ(Small, Large);
  EXPECT_LE(Large, 4u);
}

//===----------------------------------------------------------------------===//
// Private scalars kept in registers
//===----------------------------------------------------------------------===//

/// \returns the opcode each instruction of \p F lowers to.
std::map<const kir::Value *, kir::Op> loweredOps(const kir::Function &F) {
  kir::CodeCache Cache;
  const kir::FlatFunction &FF = Cache.get(F);
  std::map<const kir::Value *, kir::Op> Ops;
  size_t Idx = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      Ops[I.get()] = FF.Code[Idx++].Opcode;
  return Ops;
}

/// Appends to \p BB a load of an i32 alloca, then the alloca itself.
/// \returns the alloca.
kir::Value *loadThenAlloca(kir::IRBuilder &B, kir::BasicBlock *BB) {
  auto Alloca = std::make_unique<kir::AllocaInst>(kir::Type::Kind::I32, 1);
  kir::Value *A = Alloca.get();
  B.load(A, "early");
  BB->append(std::move(Alloca));
  return A;
}

TEST(InterpTest, PromotesScalarsUsedOnlyThroughLoadsAndStores) {
  // Storing a pointer does not verify (no pointer is a storable scalar),
  // so this function is lowered, not run.
  using namespace kir;
  Module M("m");
  const Type I32Ptr = Type::ptr(Type::Kind::I32, AddrSpaceKind::Private);
  Function *Sink = M.createFunction("sink", Type::voidTy(), false);
  Sink->addArgument(I32Ptr, "p");
  IRBuilder SB(Sink);
  SB.setInsertPoint(SB.createBlock("entry"));
  SB.retVoid();

  Function *K = M.createFunction("k", Type::voidTy(), true);
  Argument *Out =
      K->addArgument(Type::ptr(Type::Kind::I64, AddrSpaceKind::Global), "out");
  IRBuilder B(K);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Later = B.createBlock("later");
  B.setInsertPoint(Entry);
  Value *Late = loadThenAlloca(B, Entry);
  B.store(Late, B.i32Const(1));
  Value *I32 = B.allocaVar(Type::Kind::I32, 1, "i32");
  Value *F32 = B.allocaVar(Type::Kind::F32, 1, "f32");
  Value *I64 = B.allocaVar(Type::Kind::I64, 1, "i64");
  Value *Indexed = B.allocaVar(Type::Kind::I32, 1, "indexed");
  Value *Passed = B.allocaVar(Type::Kind::I32, 1, "passed");
  Value *Escaped = B.allocaVar(Type::Kind::I64, 1, "escaped");
  Value *Array = B.allocaVar(Type::Kind::I32, 2, "array");
  for (Value *P : {I32, Indexed, Passed, Array}) {
    B.store(P, B.i32Const(-7));
    B.load(P);
  }
  B.store(F32, B.f32Const(0.5f));
  B.load(F32);
  for (Value *P : {I64, Escaped}) {
    B.store(P, B.i64Const(int64_t(1) << 40));
    B.load(P);
  }
  B.gep(Indexed, B.i64Const(0));
  B.call(Sink, {Passed});
  B.store(Out, Escaped);
  B.br(Later);
  B.setInsertPoint(Later);
  Value *Nested = B.allocaVar(Type::Kind::I32, 1, "nested");
  B.store(Nested, B.i32Const(3));
  B.load(Nested);
  B.retVoid();

  // Each alloca's opcode, then those of the loads and stores through it.
  std::map<const Value *, Op> Ops = loweredOps(*K);
  std::map<const Value *, std::vector<Op>> OpsOf;
  for (const auto &BB : K->blocks()) {
    for (const auto &I : BB->instructions()) {
      if (I->instKind() == InstKind::Alloca)
        OpsOf[I.get()].insert(OpsOf[I.get()].begin(), Ops.at(I.get()));
      if (I->instKind() == InstKind::Load || I->instKind() == InstKind::Store)
        OpsOf[I->operand(0)].push_back(Ops.at(I.get()));
    }
  }
  using Ops3 = std::vector<Op>;
  EXPECT_EQ(OpsOf[I32], (Ops3{Op::PAlloca, Op::PStore4, Op::PLoad4S}));
  EXPECT_EQ(OpsOf[F32], (Ops3{Op::PAlloca, Op::PStore4, Op::PLoad4}));
  EXPECT_EQ(OpsOf[I64], (Ops3{Op::PAlloca, Op::PStore8, Op::PLoad8}));
  for (Value *Kept : {Indexed, Passed, Array, Nested})
    EXPECT_EQ(OpsOf[Kept], (Ops3{Op::Alloca, Op::Store4, Op::Load4S}))
        << Kept->name();
  EXPECT_EQ(OpsOf[Escaped], (Ops3{Op::Alloca, Op::Store8, Op::Load8}));
  EXPECT_EQ(OpsOf[Late], (Ops3{Op::Alloca, Op::Load4S, Op::Store4}));
}

TEST(InterpTest, PromotedScalarsKeepMemorySemantics) {
  // Every private scalar of k is promoted. out[0] reads x before its
  // first store, out[1] a negative i32 through it, out[2] and out[3] two
  // calls whose callee's scalar must start at 0 each time, out[4] an i64
  // wider than 32 bits, and fout[0] the bits of a negative denormal.
  using namespace kir;
  Module M("m");
  Function *Callee = M.createFunction("swap_in", Type::i32(), false);
  Argument *In = Callee->addArgument(Type::i32(), "in");
  IRBuilder CB(Callee);
  CB.setInsertPoint(CB.createBlock("entry"));
  Value *S = CB.allocaVar(Type::Kind::I32, 1, "s");
  Value *Old = CB.load(S, "old");
  CB.store(S, In);
  Value *New = CB.load(S, "new");
  CB.ret(CB.add(CB.mul(Old, CB.i32Const(100)), New));

  Function *K = M.createFunction("k", Type::voidTy(), true);
  Argument *Out =
      K->addArgument(Type::ptr(Type::Kind::I64, AddrSpaceKind::Global), "out");
  Argument *FOut =
      K->addArgument(Type::ptr(Type::Kind::F32, AddrSpaceKind::Global), "fout");
  IRBuilder B(K);
  B.setInsertPoint(B.createBlock("entry"));
  int64_t Slot = 0;
  auto Emit = [&](Value *V) {
    if (V->type().kind() == Type::Kind::I32)
      V = B.cast(CastKind::SExt, V, Type::i64());
    B.store(B.gep(Out, B.i64Const(Slot++)), V);
  };
  Value *X = B.allocaVar(Type::Kind::I32, 1, "x");
  Emit(B.load(X));
  B.store(X, B.i32Const(-5));
  Emit(B.load(X));
  Emit(B.call(Callee, {B.i32Const(3)}));
  Emit(B.call(Callee, {B.i32Const(4)}));
  Value *L = B.allocaVar(Type::Kind::I64, 1, "l");
  B.store(L, B.i64Const(-(int64_t(1) << 40)));
  Emit(B.load(L));
  const uint32_t Denormal = 0x80000001u;
  Value *F = B.allocaVar(Type::Kind::F32, 1, "f");
  B.store(F, B.f32Const(std::bit_cast<float>(Denormal)));
  B.store(FOut, B.load(F));
  B.retVoid();
  ASSERT_FALSE(static_cast<bool>(verifyModule(M)));
  std::map<const Value *, Op> Ops = loweredOps(*K);
  for (Value *Scalar : {X, L, F})
    EXPECT_EQ(Ops.at(Scalar), Op::PAlloca) << Scalar->name();

  KernelHarness H;
  uint64_t POut = cantFail(H.Mem.allocate(8 * 5));
  uint64_t PFOut = cantFail(H.Mem.allocate(4));
  NDRangeCfg Range;
  Range.GlobalSize[0] = 4;
  Range.LocalSize[0] = 2;
  Expected<ExecStats> Stats = H.Interp.run(*K, {POut, PFOut}, Range);
  ASSERT_TRUE(static_cast<bool>(Stats)) << Stats.message();
  std::vector<int64_t> Got(5);
  H.Mem.copyOut(POut, Got.data(), 8 * Got.size());
  EXPECT_EQ(Got, (std::vector<int64_t>{0, -5, 3, 4, -(int64_t(1) << 40)}));
  EXPECT_EQ(H.Mem.readU32(PFOut), Denormal);
  // Per work item: k runs 28 instructions, 13 of them loads or stores,
  // and each call runs swap_in's 7, 3 of them loads or stores.
  EXPECT_EQ(Stats->InstsExecuted, 4u * (28 + 2 * 7));
  EXPECT_EQ(Stats->MemoryOps, 4u * (13 + 2 * 3));

  // An entry block that branches back to itself runs its alloca again,
  // which yields a fresh zeroed scalar each pass: out[0] sums what x
  // reads before each pass stores 9, over the three passes out[1] counts.
  Function *Again = M.createFunction("again", Type::voidTy(), true);
  Argument *Acc = Again->addArgument(
      Type::ptr(Type::Kind::I64, AddrSpaceKind::Global), "acc");
  IRBuilder AB(Again);
  BasicBlock *Loop = AB.createBlock("entry");
  BasicBlock *Exit = AB.createBlock("exit");
  AB.setInsertPoint(Loop);
  Value *Fresh = AB.allocaVar(Type::Kind::I32, 1, "fresh");
  Value *Read = AB.cast(CastKind::SExt, AB.load(Fresh), Type::i64());
  AB.store(Acc, AB.add(AB.load(Acc), Read));
  AB.store(Fresh, AB.i32Const(9));
  Value *Count = AB.gep(Acc, AB.i64Const(1));
  Value *Passes = AB.add(AB.load(Count), AB.i64Const(1));
  AB.store(Count, Passes);
  AB.condBr(AB.cmp(CmpPred::SLT, Passes, AB.i64Const(3)), Loop, Exit);
  AB.setInsertPoint(Exit);
  AB.retVoid();
  ASSERT_FALSE(static_cast<bool>(verifyFunction(*Again)));
  EXPECT_EQ(loweredOps(*Again).at(Fresh), Op::PAlloca);
  H.Mem.writeU64(POut, 0);
  H.Mem.writeU64(POut + 8, 0);
  EXPECT_EQ(trapOf(H.Interp, *Again, {POut}), "");
  EXPECT_EQ(H.Mem.readU64(POut), 0u);
  EXPECT_EQ(H.Mem.readU64(POut + 8), 3u);

  // A load ahead of its alloca in the entry block reads the register
  // before it holds an address: the alloca stays in memory and the load
  // traps on the null pointer.
  Function *Early = M.createFunction("early", Type::voidTy(), true);
  IRBuilder EB(Early);
  BasicBlock *Entry = EB.createBlock("entry");
  EB.setInsertPoint(Entry);
  EB.store(loadThenAlloca(EB, Entry), EB.i32Const(1));
  EB.retVoid();
  EXPECT_EQ(trapOf(H.Interp, *Early, {}),
            "kernel trap in group 0: global memory load out of bounds "
            "(addr 0)");
}

//===----------------------------------------------------------------------===//
// accelOS runtime builtins on a malformed descriptor
//===----------------------------------------------------------------------===//

/// Builds kernel k(global i64* out, global i64* rt) storing \p BK's
/// result for dimension \p Dim into out[0]; MiniCL cannot name the rt_*
/// builtins.
kir::Function *rtQueryKernel(kir::Module &M, kir::BuiltinKind BK,
                             int32_t Dim) {
  using namespace kir;
  Function *K = M.createFunction("k", Type::voidTy(), true);
  Argument *Out =
      K->addArgument(Type::ptr(Type::Kind::I64, AddrSpaceKind::Global), "out");
  Argument *Rt =
      K->addArgument(Type::ptr(Type::Kind::I64, AddrSpaceKind::Global), "rt");
  IRBuilder B(K);
  B.setInsertPoint(B.createBlock("entry"));
  std::vector<Value *> Args = {Rt};
  if (BK == BuiltinKind::RtGlobalId || BK == BuiltinKind::RtGroupId)
    Args.push_back(B.i64Const(5));
  Args.push_back(B.i32Const(Dim));
  B.store(Out, B.builtin(BK, Type::i64(), Args));
  B.retVoid();
  return K;
}

TEST(InterpTest, RtQueriesCheckDescriptorAndDimension) {
  using namespace kir::rtlayout;
  KernelHarness H;
  uint64_t Out = cantFail(H.Mem.allocate(8));
  uint64_t Rt = cantFail(H.Mem.allocate(virtualNDRangeBytes()));
  for (unsigned W = 0; W != RTW_WordCount; ++W)
    H.Mem.writeU64(Rt + 8 * W, 100 + W);
  H.Mem.writeU64(Rt + 8 * RTW_NumGroups0, 2); // group 5 = (1, 2, ...)
  H.Mem.writeU64(Rt + 8 * RTW_NumGroups1, 3);

  struct Case {
    kir::BuiltinKind BK;
    const char *Name;
    uint64_t Want[3];
  };
  for (const Case &C :
       {Case{kir::BuiltinKind::RtGlobalSize, "size", {111, 112, 113}},
        Case{kir::BuiltinKind::RtNumGroups, "size", {2, 3, 107}},
        Case{kir::BuiltinKind::RtGroupId, "id", {1, 2, 0}},
        Case{kir::BuiltinKind::RtGlobalId, "id", {108, 218, 0}}}) {
    std::string Prefix = std::string("kernel trap in group 0: rt ") + C.Name +
                         " builtin: ";
    for (int32_t Dim = 0; Dim != 4; ++Dim) {
      kir::Module M("m");
      kir::Function *K = rtQueryKernel(M, C.BK, Dim);
      std::string Msg = trapOf(H.Interp, *K, {Out, Rt});
      if (Dim == 3) {
        EXPECT_EQ(Msg, Prefix + "dimension out of range");
      } else {
        EXPECT_EQ(Msg, "");
        EXPECT_EQ(H.Mem.readU64(Out), C.Want[Dim])
            << kir::builtinName(C.BK) << " dim " << Dim;
      }
      EXPECT_EQ(trapOf(H.Interp, *K, {Out, 0}),
                Prefix + "bad Virtual NDRange pointer");
      H.Interp.forget(M);
    }
  }
}

//===----------------------------------------------------------------------===//
// Golden: every suite kernel, untransformed and through the JIT
//===----------------------------------------------------------------------===//

uint64_t fnv1a(const void *Data, size_t Size,
               uint64_t Hash = 0xcbf29ce484222325ULL) {
  const auto *Bytes = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

/// A kernel's launch arguments as the suite runs make them.
struct SeededArgs {
  std::vector<uint64_t> Args;
  std::vector<std::pair<uint64_t, uint64_t>> Buffers; // address, bytes
};

/// Builds arguments for the first \p NumArgs parameters of \p K: a
/// buffer of \p Elems seeded elements per pointer (integers in [0, 8),
/// floats a quarter of that), 1.5 per float and 4 per integer.
SeededArgs seedArgs(kir::DeviceMemory &Mem, const kir::Function &K,
                    unsigned NumArgs, uint64_t Elems, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  SeededArgs Out;
  for (unsigned A = 0; A != NumArgs; ++A) {
    const kir::Type &Ty = K.argument(A)->type();
    if (!Ty.isPtr()) {
      Out.Args.push_back(Ty.isFloat() ? kir::Constant::encodeFloat(1.5f) : 4);
      continue;
    }
    unsigned Size = Ty.elemSizeBytes();
    uint64_t Addr = cantFail(Mem.allocate(Elems * Size));
    for (uint64_t E = 0; E != Elems; ++E) {
      uint64_t V = Rng.nextBelow(8);
      if (Ty.elemKind() == kir::Type::Kind::F32)
        Mem.writeU32(Addr + 4 * E, static_cast<uint32_t>(
                                       kir::Constant::encodeFloat(0.25f * V)));
      else if (Size == 4)
        Mem.writeU32(Addr + 4 * E, static_cast<uint32_t>(V));
      else
        Mem.writeU64(Addr + 8 * E, V);
    }
    Out.Args.push_back(Addr);
    Out.Buffers.push_back({Addr, Elems * Size});
  }
  return Out;
}

/// Runs suite kernel \p Idx over 4 original groups of its work-group size,
/// either as compiled or through the Runtime's JIT pipeline on 2 physical
/// groups with batch 2, and \returns the run's golden line: a hash of
/// every buffer afterwards plus every ExecStats field, or the trap.
std::string suiteRunLine(kir::DeviceMemory &Mem, kir::Interpreter &Interp,
                         size_t Idx, bool Jit) {
  const workloads::KernelSpec &Spec = workloads::parboilSuite()[Idx];
  auto M = compileOrDie(Spec.Source);
  if (!M)
    return Spec.Id + ": compile error\n";
  if (Jit) {
    passes::PassManager PM;
    PM.addPass(std::make_unique<passes::InlinerPass>());
    PM.addPass(std::make_unique<passes::ConstantFoldPass>());
    PM.addPass(std::make_unique<passes::DCEPass>());
    PM.addPass(std::make_unique<passes::AccelOSTransform>());
    cantFail(PM.run(*M));
  }
  kir::Function *K = M->getFunction(Spec.KernelName);
  kir::NDRangeCfg Orig;
  Orig.GlobalSize[0] = 4 * Spec.WGSize;
  Orig.LocalSize[0] = Spec.WGSize;

  auto [Args, Buffers] =
      seedArgs(Mem, *K, K->numArguments() - (Jit ? 1 : 0),
               32 * Orig.GlobalSize[0] + 4096, 0x5eed + Idx);

  kir::NDRangeCfg Range = Orig;
  uint64_t Rt = 0;
  if (Jit) {
    using namespace kir::rtlayout;
    Rt = cantFail(Mem.allocate(virtualNDRangeBytes()));
    Mem.writeU64(Rt + 8 * RTW_Magic, VirtualNDRangeMagic);
    Mem.writeU64(Rt + 8 * RTW_TotalGroups, Orig.totalGroups());
    Mem.writeU64(Rt + 8 * RTW_Next, 0);
    Mem.writeU64(Rt + 8 * RTW_Batch, 2);
    Mem.writeU64(Rt + 8 * RTW_WorkDim, Orig.WorkDim);
    for (unsigned D = 0; D != 3; ++D) {
      Mem.writeU64(Rt + 8 * (RTW_NumGroups0 + D), Orig.numGroups(D));
      Mem.writeU64(Rt + 8 * (RTW_LocalSize0 + D), Orig.LocalSize[D]);
      Mem.writeU64(Rt + 8 * (RTW_GlobalSize0 + D), Orig.GlobalSize[D]);
    }
    Args.push_back(Rt);
    Range.GlobalSize[0] = 2 * Spec.WGSize;
  }

  std::ostringstream Line;
  Line << Spec.Id << (Jit ? " jit" : " plain");
  Expected<kir::ExecStats> Stats = Interp.run(*K, Args, Range);
  if (!Stats) {
    Line << " trap: " << Stats.message();
  } else {
    Line << std::hex;
    for (auto [Addr, Bytes] : Buffers) {
      std::vector<uint8_t> Out(Bytes);
      Mem.copyOut(Addr, Out.data(), Bytes);
      Line << " " << fnv1a(Out.data(), Bytes);
    }
    Line << std::dec << " insts " << Stats->InstsExecuted << " atomics "
         << Stats->AtomicOps << " barriers " << Stats->Barriers
         << " memops " << Stats->MemoryOps << " mathops " << Stats->MathOps
         << " groups " << Stats->GroupInsts.size() << " " << std::hex
         << fnv1a(Stats->GroupInsts.data(),
                  Stats->GroupInsts.size() * sizeof(uint64_t));
  }
  Line << "\n";

  for (auto [Addr, Bytes] : Buffers)
    Mem.release(Addr);
  if (Rt)
    Mem.release(Rt);
  Interp.forget(*M);
  return Line.str();
}

TEST(InterpTest, SuiteMatchesGolden) {
  // One memory and one interpreter for all 50 runs, so launches of
  // different kernels and work-group sizes follow one another.
  kir::DeviceMemory Mem(16ull << 20);
  kir::Interpreter Interp(Mem);
  std::string Got;
  for (size_t Idx = 0; Idx != workloads::parboilSuite().size(); ++Idx)
    for (bool Jit : {false, true})
      Got += suiteRunLine(Mem, Interp, Idx, Jit);

  EXPECT_TRUE(testutil::matchesGolden("interpreter_suite", Got));
}

//===----------------------------------------------------------------------===//
// Hostile kernel source
//===----------------------------------------------------------------------===//

/// Rejected, trapped and finished mutants of one sweep.
struct MutantCounts {
  unsigned Rejected = 0, Trapped = 0, Ran = 0;
};

/// Applies the single-token mutation \p Mutate, which maps a source and
/// the [Begin, End) span of one of its tokens to the mutant, at every
/// token of every suite kernel (barriers, atomics, loops, helper calls)
/// and of one kernel with a private array, which no suite kernel has. A
/// mutant the front end rejects yields an Error (a mutant without the
/// kernel entry counts as rejected too); one that compiles runs on a
/// fresh interpreter with the suite runs' arguments and must trap or
/// finish, never abort.
template <typename MutateFn>
void sweepTokenMutants(MutateFn Mutate, MutantCounts &Counts) {
  struct Subject {
    std::string Source, KernelName;
    uint64_t WGSize;
  };
  std::vector<Subject> Subjects;
  for (const workloads::KernelSpec &Spec : workloads::parboilSuite())
    Subjects.push_back({Spec.Source, Spec.KernelName, Spec.WGSize});
  Subjects.push_back({R"(
    kernel void priv(global const int* in, global int* out, int n) {
      long gid = get_global_id(0);
      int a[8];
      for (int i = 0; i < 8; i++) {
        a[i] = in[(gid + (long)i) % (long)n] * i;
      }
      int s = 0;
      for (int i = 0; i < 8; i++) {
        s += a[(i * 3) % 8];
      }
      out[gid] = s;
    }
  )",
                      "priv", 64});

  for (const Subject &S : Subjects) {
    Expected<std::vector<minicl::Token>> Tokens =
        minicl::Lexer(S.Source).tokenize();
    ASSERT_TRUE(static_cast<bool>(Tokens)) << Tokens.message();
    std::vector<size_t> LineStart = {0, 0}; // Lines count from 1.
    for (size_t I = 0; I != S.Source.size(); ++I)
      if (S.Source[I] == '\n')
        LineStart.push_back(I + 1);
    auto OffsetOf = [&](const minicl::Token &T) {
      return LineStart[T.Line] + T.Column - 1;
    };
    // A token spans from its start to the next token's, less whitespace.
    for (size_t T = 0; T + 1 < Tokens->size(); ++T) {
      size_t Begin = OffsetOf((*Tokens)[T]);
      size_t End = OffsetOf((*Tokens)[T + 1]);
      while (End > Begin && std::isspace(static_cast<unsigned char>(
                                S.Source[End - 1])))
        --End;
      std::string Mutant = Mutate(S.Source, Begin, End);
      Expected<std::unique_ptr<kir::Module>> M =
          minicl::compileSource("mutant", Mutant);
      kir::Function *K = M ? (*M)->getFunction(S.KernelName) : nullptr;
      if (!K || !K->isKernel()) {
        ++Counts.Rejected;
        continue;
      }
      kir::DeviceMemory Mem(16ull << 20);
      kir::Interpreter Interp(Mem);
      Interp.setMaxStepsPerWorkItem(1 << 14);
      kir::NDRangeCfg Range;
      Range.GlobalSize[0] = 2 * S.WGSize;
      Range.LocalSize[0] = S.WGSize;
      SeededArgs In = seedArgs(Mem, *K, K->numArguments(),
                               32 * Range.GlobalSize[0] + 4096, T);
      Expected<kir::ExecStats> Stats = Interp.run(*K, In.Args, Range);
      ++(Stats ? Counts.Ran : Counts.Trapped);
    }
  }
}

TEST(InterpTest, TokenDeletionMutantsFailSoft) {
  MutantCounts C;
  sweepTokenMutants(
      [](const std::string &Source, size_t Begin, size_t End) {
        return Source.substr(0, Begin) + Source.substr(End);
      },
      C);
  std::printf("token deletions: %u rejected, %u trapped, %u ran\n",
              C.Rejected, C.Trapped, C.Ran);
  EXPECT_GT(C.Rejected, 0u);
  EXPECT_GT(C.Trapped, 0u);
  EXPECT_GT(C.Ran, 0u);
}

TEST(InterpTest, TokenDuplicationMutantsFailSoft) {
  // Each token is repeated once, after a space, so the copy lexes as a
  // token of its own ("+ +", not "++").
  MutantCounts C;
  sweepTokenMutants(
      [](const std::string &Source, size_t Begin, size_t End) {
        return Source.substr(0, End) + " " +
               Source.substr(Begin, End - Begin) + Source.substr(End);
      },
      C);
  std::printf("token duplications: %u rejected, %u trapped, %u ran\n",
              C.Rejected, C.Trapped, C.Ran);
  EXPECT_GT(C.Rejected, 0u);
  EXPECT_GT(C.Ran, 0u);
}

} // namespace
