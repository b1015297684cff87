//===- kir/Verifier.cpp - IR structural validation -------------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "kir/Verifier.h"

#include "kir/Module.h"
#include "kir/analysis/Cfg.h"
#include "kir/analysis/Uniformity.h"

#include <set>
#include <string>

using namespace accel;
using namespace accel::kir;

namespace {

/// Walks one function and accumulates the first violation.
class FunctionVerifier {
public:
  explicit FunctionVerifier(const Function &F) : F(F) {}

  Error run() {
    if (F.isDeclaration()) {
      if (F.isKernel())
        return fail("kernel has no body");
      return Error::success();
    }
    if (F.isKernel() && !F.returnType().isVoid())
      return fail("kernel must return void");

    collectBlocks();
    for (const auto &BB : F.blocks()) {
      if (Error E = checkBlock(*BB))
        return E;
    }
    return Error::success();
  }

private:
  Error fail(const std::string &Why) {
    return makeError("verifier: function '" + F.name() + "': " + Why);
  }

  void collectBlocks() {
    for (const auto &BB : F.blocks())
      KnownBlocks.insert(BB.get());
  }

  Error checkBlock(const BasicBlock &BB) {
    if (!BB.terminator())
      return fail("block '" + BB.name() + "' lacks a terminator");
    for (size_t I = 0, E = BB.size(); I != E; ++I) {
      const Instruction *Inst = BB.inst(I);
      if (Inst->isTerminator() && I + 1 != E)
        return fail("terminator in the middle of block '" + BB.name() + "'");
      if (Error Err = checkInst(*Inst, BB))
        return Err;
    }
    return Error::success();
  }

  Error checkInst(const Instruction &I, const BasicBlock &BB) {
    // All operands must be non-null; defs must dominate uses is not
    // enforced (the frontend emits allocas + loads, so cross-block value
    // flow is limited to straight-line temporaries).
    for (const Value *Op : I.operands())
      if (!Op)
        return fail("null operand in block '" + BB.name() + "'");

    switch (I.instKind()) {
    case InstKind::Binary: {
      const auto &B = cast<BinaryInst>(I);
      if (B.lhs()->type() != B.rhs()->type())
        return fail("binary operand type mismatch");
      bool WantFloat = isFloatBinOp(B.op());
      if (WantFloat != B.lhs()->type().isFloat())
        return fail(std::string("operand domain mismatch for ") +
                    binOpName(B.op()));
      if (!WantFloat && !B.lhs()->type().isInt())
        return fail("integer binary op on non-integer");
      return Error::success();
    }
    case InstKind::Cmp: {
      const auto &C = cast<CmpInst>(I);
      if (C.lhs()->type() != C.rhs()->type())
        return fail("cmp operand type mismatch");
      if (isFloatCmpPred(C.pred()) != C.lhs()->type().isFloat())
        return fail("cmp predicate domain mismatch");
      return Error::success();
    }
    case InstKind::Select: {
      const auto &S = cast<SelectInst>(I);
      if (!S.cond()->type().isBool())
        return fail("select condition must be i1");
      if (S.trueValue()->type() != S.falseValue()->type())
        return fail("select arm type mismatch");
      return Error::success();
    }
    case InstKind::Cast: {
      const auto &C = cast<CastInst>(I);
      switch (C.castKind()) {
      case CastKind::SExt:
        if (C.src()->type().kind() != Type::Kind::I32 ||
            C.type().kind() != Type::Kind::I64)
          return fail("sext must be i32 -> i64");
        break;
      case CastKind::Trunc:
        if (C.src()->type().kind() != Type::Kind::I64 ||
            C.type().kind() != Type::Kind::I32)
          return fail("trunc must be i64 -> i32");
        break;
      case CastKind::SIToFP:
        if (!C.src()->type().isInt() || !C.type().isFloat())
          return fail("sitofp must be int -> f32");
        break;
      case CastKind::FPToSI:
        if (!C.src()->type().isFloat() || !C.type().isInt())
          return fail("fptosi must be f32 -> int");
        break;
      case CastKind::ZExtBool:
        if (!C.src()->type().isBool() || !C.type().isInt())
          return fail("zext must be i1 -> int");
        break;
      }
      return Error::success();
    }
    case InstKind::Alloca:
      return Error::success();
    case InstKind::LocalAddr: {
      const auto &L = cast<LocalAddrInst>(I);
      if (L.slotIndex() >= F.localAllocs().size())
        return fail("local slot index out of range");
      if (F.localAllocs()[L.slotIndex()].ElemKind != L.type().elemKind())
        return fail("local slot element kind mismatch");
      return Error::success();
    }
    case InstKind::Load: {
      const auto &L = cast<LoadInst>(I);
      if (!L.pointer()->type().isPtr())
        return fail("load from non-pointer");
      if (L.type().kind() != L.pointer()->type().elemKind())
        return fail("load result kind mismatch");
      return Error::success();
    }
    case InstKind::Store: {
      const auto &S = cast<StoreInst>(I);
      if (!S.pointer()->type().isPtr())
        return fail("store to non-pointer");
      if (S.value()->type().kind() != S.pointer()->type().elemKind())
        return fail("store value kind mismatch");
      return Error::success();
    }
    case InstKind::Gep: {
      const auto &G = cast<GepInst>(I);
      if (!G.pointer()->type().isPtr())
        return fail("gep on non-pointer");
      if (!G.index()->type().isInt())
        return fail("gep index must be integer");
      return Error::success();
    }
    case InstKind::Call: {
      const auto &C = cast<CallInst>(I);
      const Function *Callee = C.callee();
      if (!Callee)
        return fail("call to null function");
      if (Callee->isKernel())
        return fail("call to kernel function '" + Callee->name() + "'");
      if (C.numOperands() != Callee->numArguments())
        return fail("call arity mismatch for '" + Callee->name() + "'");
      for (unsigned A = 0; A != C.numOperands(); ++A)
        if (C.operand(A)->type() != Callee->argument(A)->type())
          return fail("call argument type mismatch for '" + Callee->name() +
                      "'");
      if (C.type() != Callee->returnType())
        return fail("call result type mismatch for '" + Callee->name() + "'");
      return Error::success();
    }
    case InstKind::Builtin:
      return checkBuiltin(cast<BuiltinInst>(I));
    case InstKind::Br: {
      const auto &B = cast<BrInst>(I);
      if (B.isConditional() && !B.cond()->type().isBool())
        return fail("branch condition must be i1");
      if (!KnownBlocks.count(B.trueTarget()))
        return fail("branch to foreign block");
      if (B.isConditional() && !KnownBlocks.count(B.falseTarget()))
        return fail("branch to foreign block");
      return Error::success();
    }
    case InstKind::Ret: {
      const auto &R = cast<RetInst>(I);
      if (F.returnType().isVoid()) {
        if (R.hasValue())
          return fail("value returned from void function");
      } else {
        if (!R.hasValue())
          return fail("missing return value");
        if (R.value()->type() != F.returnType())
          return fail("return type mismatch");
      }
      return Error::success();
    }
    }
    accel_unreachable("unhandled instruction kind");
  }

  Error checkBuiltin(const BuiltinInst &B) {
    auto RequireArgs = [&](unsigned N) -> bool {
      return B.numOperands() == N;
    };
    // Dimensions index three-element arrays in the interpreter.
    auto DimInRange = [&](unsigned Op) {
      int64_t D = cast<Constant>(B.operand(Op))->intValue();
      return D >= 0 && D <= 2;
    };
    switch (B.builtinKind()) {
    case BuiltinKind::GetGlobalId:
    case BuiltinKind::GetLocalId:
    case BuiltinKind::GetGroupId:
    case BuiltinKind::GetGlobalSize:
    case BuiltinKind::GetLocalSize:
    case BuiltinKind::GetNumGroups:
      if (!RequireArgs(1) || !isa<Constant>(B.operand(0)))
        return fail("work-item query needs a constant dimension");
      if (!DimInRange(0))
        return fail("work-item dimension out of range");
      return Error::success();
    case BuiltinKind::GetWorkDim:
      return RequireArgs(0) ? Error::success()
                            : fail("get_work_dim takes no arguments");
    case BuiltinKind::Barrier:
      return RequireArgs(0) ? Error::success()
                            : fail("barrier takes no arguments");
    case BuiltinKind::Sqrt:
    case BuiltinKind::Rsqrt:
    case BuiltinKind::Sin:
    case BuiltinKind::Cos:
    case BuiltinKind::Exp:
    case BuiltinKind::Log:
    case BuiltinKind::Fabs:
    case BuiltinKind::Floor:
      if (!RequireArgs(1) || !B.operand(0)->type().isFloat())
        return fail("unary float builtin signature mismatch");
      return Error::success();
    case BuiltinKind::FMin:
    case BuiltinKind::FMax:
      if (!RequireArgs(2) || !B.operand(0)->type().isFloat() ||
          !B.operand(1)->type().isFloat())
        return fail("binary float builtin signature mismatch");
      return Error::success();
    case BuiltinKind::IMin:
    case BuiltinKind::IMax:
      if (!RequireArgs(2) || !B.operand(0)->type().isInt() ||
          B.operand(0)->type() != B.operand(1)->type())
        return fail("binary int builtin signature mismatch");
      return Error::success();
    case BuiltinKind::IAbs:
      if (!RequireArgs(1) || !B.operand(0)->type().isInt())
        return fail("abs expects an integer");
      return Error::success();
    case BuiltinKind::AtomicAdd:
    case BuiltinKind::AtomicSub:
    case BuiltinKind::AtomicMin:
    case BuiltinKind::AtomicMax:
    case BuiltinKind::AtomicXchg: {
      if (!RequireArgs(2))
        return fail("atomic builtin arity mismatch");
      const Type &PtrTy = B.operand(0)->type();
      if (!PtrTy.isPtr() || PtrTy.elemKind() != Type::Kind::I32)
        return fail("atomics require an i32 pointer");
      if (PtrTy.addrSpace() == AddrSpaceKind::Private)
        return fail("atomics require global or local memory");
      if (B.operand(1)->type().kind() != Type::Kind::I32)
        return fail("atomic operand must be i32");
      return Error::success();
    }
    case BuiltinKind::RtIsMaster:
      return RequireArgs(0) ? Error::success()
                            : fail("rt_is_master takes no arguments");
    case BuiltinKind::RtEnvInit:
    case BuiltinKind::RtSchedWGroup:
      if (!RequireArgs(2) || !B.operand(0)->type().isPtr() ||
          !B.operand(1)->type().isPtr())
        return fail("rt scheduling builtin signature mismatch");
      return Error::success();
    case BuiltinKind::RtGlobalId:
    case BuiltinKind::RtGroupId:
      if (!RequireArgs(3) || !B.operand(0)->type().isPtr() ||
          !B.operand(1)->type().isInt() || !isa<Constant>(B.operand(2)))
        return fail("rt id builtin signature mismatch");
      if (!DimInRange(2))
        return fail("rt id builtin dimension out of range");
      return Error::success();
    case BuiltinKind::RtGlobalSize:
    case BuiltinKind::RtNumGroups:
      if (!RequireArgs(2) || !B.operand(0)->type().isPtr() ||
          !isa<Constant>(B.operand(1)))
        return fail("rt size builtin signature mismatch");
      if (!DimInRange(1))
        return fail("rt size builtin dimension out of range");
      return Error::success();
    }
    accel_unreachable("unhandled builtin kind");
  }

  const Function &F;
  std::set<const BasicBlock *> KnownBlocks;
};

} // namespace

Error kir::verifyFunction(const Function &F) {
  return FunctionVerifier(F).run();
}

Error kir::verifyFunction(const Function &F, const VerifierOptions &Opts) {
  if (Error E = FunctionVerifier(F).run())
    return E;
  if (Opts.RejectDivergentBarriers && !F.isDeclaration()) {
    analysis::Cfg G(F);
    analysis::UniformityAnalysis UA(G);
    const auto &Bad = UA.divergentBarriers();
    if (!Bad.empty()) {
      const analysis::DivergentBarrier &DB = Bad.front();
      std::string Msg = "verifier: function '" + F.name() +
                        "': barrier in block '" +
                        DB.Barrier->parent()->name() +
                        "' under work-item-divergent control flow";
      if (DB.Barrier->line())
        Msg += " (line " + std::to_string(DB.Barrier->line()) + ")";
      return Error::failure(Msg);
    }
  }
  return Error::success();
}

Error kir::verifyModule(const Module &M) {
  for (const auto &F : M.functions())
    if (Error E = verifyFunction(*F))
      return E;
  return Error::success();
}

Error kir::verifyModule(const Module &M, const VerifierOptions &Opts) {
  for (const auto &F : M.functions())
    if (Error E = verifyFunction(*F, Opts))
      return E;
  return Error::success();
}
