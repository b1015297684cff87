//===- kir/FlatCode.cpp - Flattened code for interpretation ----------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "kir/FlatCode.h"

#include "support/Casting.h"

using namespace accel;
using namespace accel::kir;

std::unique_ptr<FlatFunction> kir::lowerFunction(const Function &F) {
  auto FF = std::make_unique<FlatFunction>();
  FF->F = &F;

  // Arguments occupy the first register slots.
  std::map<const Value *, uint32_t> Slot;
  uint32_t NextReg = 0;
  for (unsigned I = 0; I != F.numArguments(); ++I)
    Slot[F.argument(I)] = NextReg++;

  // First pass: instruction indices, block starts, value slots.
  std::map<const BasicBlock *, uint32_t> BlockStart;
  uint32_t Index = 0;
  for (const auto &BB : F.blocks()) {
    BlockStart[BB.get()] = Index;
    for (const auto &I : BB->instructions()) {
      if (!I->type().isVoid())
        Slot[I.get()] = NextReg++;
      ++Index;
    }
  }
  FF->NumRegs = NextReg;

  // Second pass: emit flat instructions with resolved operands.
  auto ResolveOperand = [&](const Value *V) {
    FlatOperand Op;
    if (const auto *C = dyn_cast<Constant>(V)) {
      Op.IsImm = true;
      Op.Imm = C->bits();
      return Op;
    }
    auto It = Slot.find(V);
    assert(It != Slot.end() && "operand without a register slot");
    Op.Reg = It->second;
    return Op;
  };

  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      FlatInst FI;
      FI.I = I.get();
      if (!I->type().isVoid())
        FI.Dst = Slot.at(I.get());
      for (const Value *Op : I->operands())
        FI.Ops.push_back(ResolveOperand(Op));
      if (const auto *Br = dyn_cast<BrInst>(I.get())) {
        FI.BrTrue = BlockStart.at(Br->trueTarget());
        if (Br->isConditional())
          FI.BrFalse = BlockStart.at(Br->falseTarget());
      }
      FF->Code.push_back(std::move(FI));
    }
  }

  // Local-memory layout: each slot 8-byte aligned.
  uint64_t Offset = 0;
  for (const LocalAllocDecl &Decl : F.localAllocs()) {
    FF->LocalSlotOffsets.push_back(Offset);
    Offset += (Decl.sizeBytes() + 7) & ~static_cast<uint64_t>(7);
  }
  FF->LocalBytes = Offset;
  return FF;
}

void CodeCache::invalidate(const Module &M) {
  for (const std::unique_ptr<Function> &F : M.functions())
    Cache.erase(F.get());
}

const FlatFunction &CodeCache::get(const Function &F) {
  auto It = Cache.find(&F);
  if (It != Cache.end())
    return *It->second;
  auto Lowered = lowerFunction(F);
  const FlatFunction &Ref = *Lowered;
  Cache.emplace(&F, std::move(Lowered));
  return Ref;
}
