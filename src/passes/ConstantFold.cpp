//===- passes/ConstantFold.cpp - Constant folding ----------------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "passes/ConstantFold.h"

#include "kir/FlatCode.h"
#include "passes/CloneUtil.h"
#include "support/Casting.h"

using namespace accel;
using namespace accel::kir;
using namespace accel::passes;

namespace {

/// Folds one instruction whose operands are all constants, with the
/// interpreter's semantics. \returns the replacement constant or null.
Constant *foldInst(Function &F, const Instruction &I) {
  std::vector<uint64_t> Bits;
  for (const Value *Op : I.operands()) {
    const auto *C = dyn_cast<Constant>(Op);
    if (!C)
      return nullptr;
    Bits.push_back(C->bits());
  }
  // Only Binary, Cmp, Select and Cast evaluate, and a zero divisor does
  // not: the runtime trap is preserved.
  std::optional<uint64_t> Out = evaluate(I, Bits.data());
  return Out ? F.getConstant(I.type(), *Out) : nullptr;
}

bool runOnFunction(Function &F) {
  bool EverChanged = false;
  for (int Iter = 0; Iter < 10; ++Iter) {
    bool Changed = false;
    for (const auto &BB : F.blocks()) {
      for (const auto &I : BB->instructions()) {
        if (I->type().isVoid())
          continue;
        if (Constant *C = foldInst(F, *I)) {
          replaceAllUses(F, I.get(), C);
          Changed = true;
        }
      }
    }
    EverChanged |= Changed;
    if (!Changed)
      break;
  }
  return EverChanged;
}

} // namespace

Error ConstantFoldPass::run(Module &M) {
  for (const auto &F : M.functions())
    runOnFunction(*F);
  return Error::success();
}
