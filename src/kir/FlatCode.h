//===- kir/FlatCode.h - Flattened code for interpretation -------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a KIR function into a flat instruction array with pre-resolved
/// register slots and branch targets, so the interpreter's inner loop is
/// an index-based dispatch instead of pointer chasing through blocks.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_KIR_FLATCODE_H
#define ACCEL_KIR_FLATCODE_H

#include "kir/Module.h"

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace accel {
namespace kir {

/// Sentinel register index for instructions that produce no value.
constexpr uint32_t NoReg = ~0u;

/// A pre-resolved operand: either an immediate payload or a register.
struct FlatOperand {
  bool IsImm = false;
  uint32_t Reg = NoReg;
  uint64_t Imm = 0;
};

/// One lowered instruction.
struct FlatInst {
  const Instruction *I = nullptr;
  uint32_t Dst = NoReg;
  std::vector<FlatOperand> Ops;
  uint32_t BrTrue = 0;  ///< Target index for (true-edge of) branches.
  uint32_t BrFalse = 0; ///< Target index for the false edge.
};

/// A fully lowered function.
struct FlatFunction {
  const Function *F = nullptr;
  std::vector<FlatInst> Code;
  /// Total register slots (arguments occupy slots [0, numArguments)).
  uint32_t NumRegs = 0;
  /// Byte offset of each local-memory slot within the group's local
  /// buffer, parallel to F->localAllocs().
  std::vector<uint64_t> LocalSlotOffsets;
  /// Total local-memory bytes required by the function.
  uint64_t LocalBytes = 0;
};

/// Lowers \p F. The function must verify.
std::unique_ptr<FlatFunction> lowerFunction(const Function &F);

/// Caches lowered functions per Function identity.
class CodeCache {
public:
  /// \returns the lowered form of \p F, lowering on first use.
  const FlatFunction &get(const Function &F);

  /// Drops the cached code of every function in \p M. Call it before \p
  /// M is destroyed: cache keys are function addresses, which a later
  /// module's functions may reuse.
  void invalidate(const Module &M);

private:
  std::map<const Function *, std::unique_ptr<FlatFunction>> Cache;
};

} // namespace kir
} // namespace accel

#endif // ACCEL_KIR_FLATCODE_H
