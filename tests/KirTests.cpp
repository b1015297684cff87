//===- tests/KirTests.cpp - Kernel IR unit tests ---------------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "kir/DeviceMemory.h"
#include "kir/IRBuilder.h"
#include "kir/Module.h"
#include "kir/Printer.h"
#include "kir/Verifier.h"

#include "gtest/gtest.h"

using namespace accel;
using namespace accel::kir;

namespace {

TEST(TypeTest, ScalarProperties) {
  EXPECT_TRUE(Type::i32().isInt());
  EXPECT_TRUE(Type::i64().isInt());
  EXPECT_TRUE(Type::f32().isFloat());
  EXPECT_TRUE(Type::i1().isBool());
  EXPECT_TRUE(Type::voidTy().isVoid());
  EXPECT_FALSE(Type::i1().isInt());
}

TEST(TypeTest, PointerProperties) {
  Type P = Type::ptr(Type::Kind::F32, AddrSpaceKind::Global);
  EXPECT_TRUE(P.isPtr());
  EXPECT_EQ(P.elemKind(), Type::Kind::F32);
  EXPECT_EQ(P.addrSpace(), AddrSpaceKind::Global);
  EXPECT_EQ(P.elemSizeBytes(), 4u);
  EXPECT_EQ(P.str(), "global f32*");
}

TEST(TypeTest, Equality) {
  EXPECT_EQ(Type::i32(), Type::i32());
  EXPECT_NE(Type::i32(), Type::i64());
  EXPECT_EQ(Type::ptr(Type::Kind::I32, AddrSpaceKind::Local),
            Type::ptr(Type::Kind::I32, AddrSpaceKind::Local));
  EXPECT_NE(Type::ptr(Type::Kind::I32, AddrSpaceKind::Local),
            Type::ptr(Type::Kind::I32, AddrSpaceKind::Global));
}

TEST(TypeTest, ScalarSizes) {
  EXPECT_EQ(Type::scalarSizeBytes(Type::Kind::I32), 4u);
  EXPECT_EQ(Type::scalarSizeBytes(Type::Kind::I64), 8u);
  EXPECT_EQ(Type::scalarSizeBytes(Type::Kind::F32), 4u);
}

TEST(ModuleTest, ConstantPoolInterns) {
  Function F("f", Type::voidTy(), false);
  Constant *A = F.getIntConstant(Type::i32(), 5);
  Constant *B = F.getIntConstant(Type::i32(), 5);
  Constant *C = F.getIntConstant(Type::i32(), 6);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(A->intValue(), 5);
}

TEST(ModuleTest, FloatConstantRoundTrip) {
  Function F("f", Type::voidTy(), false);
  Constant *C = F.getFloatConstant(3.25f);
  EXPECT_FLOAT_EQ(C->floatValue(), 3.25f);
}

TEST(ModuleTest, FunctionLookup) {
  Module M("m");
  Function *F = M.createFunction("k", Type::voidTy(), true);
  EXPECT_EQ(M.getFunction("k"), F);
  EXPECT_EQ(M.getFunction("missing"), nullptr);
  EXPECT_EQ(M.kernels().size(), 1u);
}

TEST(ModuleTest, LocalAllocAccounting) {
  Function F("k", Type::voidTy(), true);
  F.addLocalAlloc({"a", Type::Kind::F32, 256});
  F.addLocalAlloc({"b", Type::Kind::I32, 64});
  EXPECT_EQ(F.localMemoryBytes(), 256 * 4 + 64 * 4u);
}

/// Builds: kernel void k(global f32* out) { out[gid] = 2 * in; } style
/// function and checks the verifier accepts it.
TEST(VerifierTest, AcceptsWellFormed) {
  Module M("m");
  Function *F = M.createFunction("k", Type::voidTy(), true);
  Argument *Out =
      F->addArgument(Type::ptr(Type::Kind::F32, AddrSpaceKind::Global),
                     "out");
  IRBuilder B(F);
  B.setInsertPoint(B.createBlock("entry"));
  Value *Gid = B.builtin(BuiltinKind::GetGlobalId, Type::i64(),
                         {B.i32Const(0)});
  Value *Ptr = B.gep(Out, Gid);
  B.store(Ptr, B.f32Const(1.0f));
  B.retVoid();
  Error E = verifyModule(M);
  EXPECT_FALSE(static_cast<bool>(E)) << E.message();
}

TEST(VerifierTest, RejectsUnterminatedBlock) {
  Module M("m");
  Function *F = M.createFunction("k", Type::voidTy(), true);
  IRBuilder B(F);
  B.setInsertPoint(B.createBlock("entry"));
  B.i32Const(0); // interned, not an instruction; block stays empty
  Error E = verifyFunction(*F);
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("terminator"), std::string::npos);
}

TEST(VerifierTest, RejectsKernelWithReturnValue) {
  Module M("m");
  Function *F = M.createFunction("k", Type::i32(), true);
  IRBuilder B(F);
  B.setInsertPoint(B.createBlock("entry"));
  B.ret(B.i32Const(0));
  Error E = verifyFunction(*F);
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("kernel"), std::string::npos);
}

TEST(VerifierTest, RejectsBinaryTypeMismatch) {
  Module M("m");
  Function *F = M.createFunction("f", Type::voidTy(), false);
  IRBuilder B(F);
  B.setInsertPoint(B.createBlock("entry"));
  // Bypass the builder's assert by constructing the instruction directly.
  auto Bad = std::make_unique<BinaryInst>(BinOpKind::Add, B.i32Const(1),
                                          B.i64Const(2));
  B.insertBlock()->append(std::move(Bad));
  B.retVoid();
  Error E = verifyFunction(*F);
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("mismatch"), std::string::npos);
}

TEST(VerifierTest, RejectsFloatOpOnInts) {
  Module M("m");
  Function *F = M.createFunction("f", Type::voidTy(), false);
  IRBuilder B(F);
  B.setInsertPoint(B.createBlock("entry"));
  auto Bad = std::make_unique<BinaryInst>(BinOpKind::FAdd, B.i32Const(1),
                                          B.i32Const(2));
  B.insertBlock()->append(std::move(Bad));
  B.retVoid();
  EXPECT_TRUE(static_cast<bool>(verifyFunction(*F)));
}

TEST(VerifierTest, RejectsBadWorkItemDimension) {
  Module M("m");
  Function *F = M.createFunction("k", Type::voidTy(), true);
  IRBuilder B(F);
  B.setInsertPoint(B.createBlock("entry"));
  B.builtin(BuiltinKind::GetGlobalId, Type::i64(), {B.i32Const(7)});
  B.retVoid();
  Error E = verifyFunction(*F);
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("dimension"), std::string::npos);
}

TEST(VerifierTest, RtBuiltinDimensionsLimitedToThree) {
  // The rt_* id and size builtins index the same three dimensions as the
  // OpenCL work-item queries.
  for (BuiltinKind BK : {BuiltinKind::RtGlobalId, BuiltinKind::RtGroupId,
                         BuiltinKind::RtGlobalSize, BuiltinKind::RtNumGroups})
    for (int64_t Dim : {-1, 0, 2, 3}) {
      Module M("m");
      Function *F = M.createFunction("k", Type::voidTy(), true);
      Argument *Rt = F->addArgument(
          Type::ptr(Type::Kind::I64, AddrSpaceKind::Global), "rt");
      IRBuilder B(F);
      B.setInsertPoint(B.createBlock("entry"));
      bool IsId = BK == BuiltinKind::RtGlobalId || BK == BuiltinKind::RtGroupId;
      std::vector<Value *> Args = {Rt};
      if (IsId)
        Args.push_back(B.i64Const(5));
      Args.push_back(B.i32Const(static_cast<int32_t>(Dim)));
      B.builtin(BK, Type::i64(), Args);
      B.retVoid();
      Error E = verifyFunction(*F);
      bool InRange = Dim >= 0 && Dim <= 2;
      EXPECT_EQ(static_cast<bool>(E), !InRange)
          << builtinName(BK) << " dim " << Dim;
      if (!InRange) {
        EXPECT_NE(E.message().find("dimension out of range"),
                  std::string::npos)
            << E.message();
      }
    }
}

TEST(VerifierTest, RejectsAtomicOnFloat) {
  Module M("m");
  Function *F = M.createFunction("k", Type::voidTy(), true);
  Argument *P =
      F->addArgument(Type::ptr(Type::Kind::F32, AddrSpaceKind::Global), "p");
  IRBuilder B(F);
  B.setInsertPoint(B.createBlock("entry"));
  B.builtin(BuiltinKind::AtomicAdd, Type::i32(), {P, B.i32Const(1)});
  B.retVoid();
  EXPECT_TRUE(static_cast<bool>(verifyFunction(*F)));
}

TEST(VerifierTest, RejectsCallArityMismatch) {
  Module M("m");
  Function *Callee = M.createFunction("helper", Type::i32(), false);
  Callee->addArgument(Type::i32(), "a");
  IRBuilder CB(Callee);
  CB.setInsertPoint(CB.createBlock("entry"));
  CB.ret(CB.i32Const(0));

  Function *F = M.createFunction("k", Type::voidTy(), true);
  IRBuilder B(F);
  B.setInsertPoint(B.createBlock("entry"));
  B.insertBlock()->append(
      std::make_unique<CallInst>(Callee, Type::i32(), std::vector<Value *>{}));
  B.retVoid();
  Error E = verifyFunction(*F);
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("arity"), std::string::npos);
}

TEST(PrinterTest, ContainsStructure) {
  Module M("m");
  Function *F = M.createFunction("k", Type::voidTy(), true);
  Argument *Out =
      F->addArgument(Type::ptr(Type::Kind::F32, AddrSpaceKind::Global),
                     "out");
  F->addLocalAlloc({"tile", Type::Kind::F32, 64});
  IRBuilder B(F);
  B.setInsertPoint(B.createBlock("entry"));
  Value *Gid =
      B.builtin(BuiltinKind::GetGlobalId, Type::i64(), {B.i32Const(0)},
                "gid");
  B.store(B.gep(Out, Gid), B.f32Const(2.0f));
  B.retVoid();

  std::string Text = printFunction(*F);
  EXPECT_NE(Text.find("kernel void @k"), std::string::npos);
  EXPECT_NE(Text.find("get_global_id"), std::string::npos);
  EXPECT_NE(Text.find("local f32 tile[64]"), std::string::npos);
  EXPECT_NE(Text.find("ret void"), std::string::npos);
}

TEST(DeviceMemoryTest, AllocateAndRelease) {
  DeviceMemory Mem(1 << 20);
  uint64_t A = cantFail(Mem.allocate(100));
  uint64_t B = cantFail(Mem.allocate(100));
  EXPECT_NE(A, 0u);
  EXPECT_NE(A, B);
  EXPECT_GT(Mem.usedBytes(), 0u);
  Mem.release(A);
  Mem.release(B);
  EXPECT_EQ(Mem.usedBytes(), 0u);
}

TEST(DeviceMemoryTest, ExhaustionIsRecoverable) {
  DeviceMemory Mem(4096);
  Expected<uint64_t> Big = Mem.allocate(1 << 20);
  EXPECT_FALSE(static_cast<bool>(Big));
  EXPECT_NE(Big.message().find("exhausted"), std::string::npos);
}

TEST(DeviceMemoryTest, CoalescingAllowsReuse) {
  DeviceMemory Mem(4096 + 64);
  uint64_t A = cantFail(Mem.allocate(1024));
  uint64_t B = cantFail(Mem.allocate(1024));
  uint64_t C = cantFail(Mem.allocate(1024));
  Mem.release(A);
  Mem.release(B);
  Mem.release(C);
  // After coalescing, a single allocation of the full span must fit.
  uint64_t D = cantFail(Mem.allocate(3072));
  EXPECT_EQ(D, A);
}

TEST(DeviceMemoryTest, ReadWriteRoundTrip) {
  DeviceMemory Mem(4096);
  uint64_t A = cantFail(Mem.allocate(16));
  Mem.writeU32(A, 0xDEADBEEF);
  Mem.writeU64(A + 8, 0x0123456789ABCDEFull);
  EXPECT_EQ(Mem.readU32(A), 0xDEADBEEFu);
  EXPECT_EQ(Mem.readU64(A + 8), 0x0123456789ABCDEFull);
}

TEST(DeviceMemoryTest, AtomicAdd) {
  DeviceMemory Mem(4096);
  uint64_t A = cantFail(Mem.allocate(8));
  Mem.writeU64(A, 10);
  EXPECT_EQ(cantFail(Mem.atomicAddI64(A, 5)), 10);
  EXPECT_EQ(Mem.readU64(A), 15u);
}

TEST(DeviceMemoryTest, AtomicRmwI32) {
  DeviceMemory Mem(4096);
  uint64_t A = cantFail(Mem.allocate(8));
  Mem.writeU32(A, 7);
  Expected<int32_t> Old = Mem.atomicRmwI32(
      A, 3, +[](int32_t L, int32_t R) { return L < R ? L : R; });
  ASSERT_TRUE(static_cast<bool>(Old));
  EXPECT_EQ(*Old, 7);
  EXPECT_EQ(Mem.readU32(A), 3u);
  // 4-byte alignment suffices for i32 atomics.
  Mem.writeU32(A + 4, 1);
  EXPECT_EQ(cantFail(Mem.atomicRmwI32(
                A + 4, 2, +[](int32_t L, int32_t R) { return L + R; })),
            1);
}

TEST(DeviceMemoryTest, UnalignedAtomicsAreRejected) {
  DeviceMemory Mem(4096);
  uint64_t A = cantFail(Mem.allocate(16));
  // i64 atomics need 8-byte alignment: +4 is aligned for i32 but not
  // for i64, and +1 is aligned for nothing.
  for (uint64_t Off : {1u, 4u}) {
    Expected<int64_t> R = Mem.atomicAddI64(A + Off, 1);
    ASSERT_FALSE(static_cast<bool>(R));
    EXPECT_NE(R.message().find("unaligned i64 atomic"), std::string::npos);
    EXPECT_NE(R.message().find("8-byte alignment"), std::string::npos);
  }
  Expected<int32_t> R = Mem.atomicRmwI32(
      A + 2, 1, +[](int32_t L, int32_t R2) { return L + R2; });
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.message().find("unaligned i32 atomic"), std::string::npos);
  // A rejected atomic must not touch the cell.
  EXPECT_EQ(Mem.readU64(A), 0u);
  EXPECT_EQ(Mem.readU64(A + 8), 0u);
}

TEST(DeviceMemoryTest, FreshAllocationIsZeroed) {
  DeviceMemory Mem(4096);
  uint64_t A = cantFail(Mem.allocate(64));
  Mem.writeU64(A, ~0ull);
  Mem.release(A);
  uint64_t B = cantFail(Mem.allocate(64));
  EXPECT_EQ(B, A);
  EXPECT_EQ(Mem.readU64(B), 0u);
}

} // namespace
