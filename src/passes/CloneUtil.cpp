//===- passes/CloneUtil.cpp - Instruction cloning helpers -------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "passes/CloneUtil.h"

#include "support/Casting.h"

using namespace accel;
using namespace accel::kir;
using namespace accel::passes;

Value *passes::mapValue(const Value *V, ValueMap &VM, Function &Dest) {
  auto It = VM.find(V);
  if (It != VM.end())
    return It->second;
  if (const auto *C = dyn_cast<Constant>(V)) {
    Constant *NewC = Dest.getConstant(C->type(), C->bits());
    VM.emplace(V, NewC);
    return NewC;
  }
  accel_unreachable("unmapped non-constant value during cloning");
}

std::unique_ptr<Instruction>
passes::cloneInstruction(const Instruction &I, ValueMap &VM, BlockMap &BM,
                         Function &Dest) {
  auto Op = [&](unsigned Idx) {
    return mapValue(I.operand(Idx), VM, Dest);
  };

  switch (I.instKind()) {
  case InstKind::Binary: {
    const auto &B = cast<BinaryInst>(I);
    return std::make_unique<BinaryInst>(B.op(), Op(0), Op(1));
  }
  case InstKind::Cmp: {
    const auto &C = cast<CmpInst>(I);
    return std::make_unique<CmpInst>(C.pred(), Op(0), Op(1));
  }
  case InstKind::Select:
    return std::make_unique<SelectInst>(Op(0), Op(1), Op(2));
  case InstKind::Cast: {
    const auto &C = cast<CastInst>(I);
    return std::make_unique<CastInst>(C.castKind(), Op(0), C.type());
  }
  case InstKind::Alloca: {
    const auto &A = cast<AllocaInst>(I);
    return std::make_unique<AllocaInst>(A.elemKind(), A.count());
  }
  case InstKind::LocalAddr: {
    const auto &L = cast<LocalAddrInst>(I);
    return std::make_unique<LocalAddrInst>(L.type().elemKind(),
                                           L.slotIndex());
  }
  case InstKind::Load:
    return std::make_unique<LoadInst>(Op(0));
  case InstKind::Store:
    return std::make_unique<StoreInst>(Op(0), Op(1));
  case InstKind::Gep:
    return std::make_unique<GepInst>(Op(0), Op(1));
  case InstKind::Call: {
    const auto &C = cast<CallInst>(I);
    std::vector<Value *> Args;
    for (unsigned A = 0; A != C.numOperands(); ++A)
      Args.push_back(Op(A));
    return std::make_unique<CallInst>(C.callee(), C.type(),
                                      std::move(Args));
  }
  case InstKind::Builtin: {
    const auto &B = cast<BuiltinInst>(I);
    std::vector<Value *> Args;
    for (unsigned A = 0; A != B.numOperands(); ++A)
      Args.push_back(Op(A));
    return std::make_unique<BuiltinInst>(B.builtinKind(), B.type(),
                                         std::move(Args));
  }
  case InstKind::Br: {
    const auto &Br = cast<BrInst>(I);
    BasicBlock *TrueBB = BM.at(Br.trueTarget());
    if (!Br.isConditional())
      return std::make_unique<BrInst>(TrueBB);
    return std::make_unique<BrInst>(Op(0), TrueBB,
                                    BM.at(Br.falseTarget()));
  }
  case InstKind::Ret:
    break;
  }
  accel_unreachable("ret instructions are rewritten, not cloned");
}

void passes::replaceAllUses(Function &F, const Value *Old, Value *New) {
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      for (unsigned OpIdx = 0; OpIdx != I->numOperands(); ++OpIdx)
        if (I->operand(OpIdx) == Old)
          I->setOperand(OpIdx, New);
}
