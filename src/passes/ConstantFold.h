//===- passes/ConstantFold.h - Constant folding -----------------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Folds binary, comparison, select and cast instructions whose operands
/// are all constants, re-interning the results in the owning function's
/// constant pool. kir::evaluate computes each result with the
/// interpreter's own op table, so folding never changes what a kernel
/// computes. Runs to a fixed point so chains fold completely.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_PASSES_CONSTANTFOLD_H
#define ACCEL_PASSES_CONSTANTFOLD_H

#include "passes/Pass.h"

namespace accel {
namespace passes {

/// Folds constant expressions. Division by a constant zero is left in
/// place so the runtime trap semantics are preserved.
class ConstantFoldPass : public ModulePass {
public:
  const char *name() const override { return "constfold"; }
  Error run(kir::Module &M) override;
};

} // namespace passes
} // namespace accel

#endif // ACCEL_PASSES_CONSTANTFOLD_H
