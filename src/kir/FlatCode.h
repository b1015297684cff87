//===- kir/FlatCode.h - Bytecode for interpretation -------------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers each KIR function once into a dense bytecode for the
/// interpreter. Every instruction becomes one fixed-size FlatInst whose
/// opcode already encodes the instruction kind, its sub-operation, width
/// and sign handling, so the interpreter runs it from one switch with no
/// type tests. Operands are registers of the frame's window into its work
/// item's register file, laid out as
///
///   [arguments][one per value][sink][constants]
///
/// Void instructions name the sink as their destination, and constants
/// (including local-memory addresses and alloca sizes) are preset when
/// the frame is entered. Branch targets are instruction indices. A call
/// names a call site whose callee's code the CodeCache resolves once.
///
/// A private scalar that is only ever loaded and stored (an alloca of one
/// element in the entry block, no use ahead of it there, every use the
/// pointer of a load or a store) is promoted: its alloca's register holds
/// the scalar's value, not an address, and its alloca, loads and stores
/// lower to the register moves PAlloca, PLoad* and PStore*. Each is still
/// one step, and each promoted load or store still one memory operation,
/// so a launch's ExecStats do not change.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_KIR_FLATCODE_H
#define ACCEL_KIR_FLATCODE_H

#include "kir/Module.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

namespace accel {
namespace kir {

/// Pointer values carry their address space in their top two bits so the
/// interpreter can route accesses to global, local, or private storage.
enum class AddrTag : uint8_t { Global = 0, Local = 1, Private = 2 };
constexpr unsigned AddrTagShift = 62;
constexpr uint64_t AddrOffsetMask = (1ULL << AddrTagShift) - 1;

constexpr uint64_t tagAddr(AddrTag Tag, uint64_t Offset) {
  return (static_cast<uint64_t>(Tag) << AddrTagShift) | Offset;
}

/// Bytecode operations. "32" forms sign-extend their i32 result from bit
/// 31 (i32 registers are kept sign-extended); "W" forms keep all 64 bits
/// (i64, i1 and pointers). The opcodes of one family follow the order of
/// the KIR enum they lower from (see FlatCode.cpp). kir/PureOps.def
/// defines what the register-only ops compute.
enum class Op : uint8_t {
  // Integer binary operators, in BinOpKind order, 32 and W alternating.
  Add32, AddW, Sub32, SubW, Mul32, MulW, SDiv32, SDivW, SRem32, SRemW,
  And32, AndW, Or32, OrW, Xor32, XorW, Shl32, ShlW, AShr32, AShrW,
  LShr32, LShrW,
  // f32 binary operators.
  FAdd, FSub, FMul, FDiv,
  // Comparisons yielding 0 or 1. Equality and signed predicates compare
  // the registers; the unsigned ones mask i32 operands to 32 bits.
  CmpEQ, CmpNE, CmpSLT, CmpSLE, CmpSGT, CmpSGE, CmpULT32, CmpULTW,
  CmpUGE32, CmpUGEW,
  FCmpOEQ, FCmpONE, FCmpOLT, FCmpOLE, FCmpOGT, FCmpOGE,
  Select,
  // Casts. Mov also lowers sext (a no-op on sign-extended registers) and
  // local_addr (whose address is a preset constant).
  Mov, Trunc, SIToFP, FPToSI32, FPToSIW, ZExtBool,
  // Memory: alloca reads its byte size from register A; Load4S loads an
  // i32 and sign-extends it, Load4 an f32.
  Alloca, Load4S, Load4, Load8, Store4, Store8, Gep4, Gep8,
  // Promoted private scalars, in the order of the six memory ops they
  // replace. The alloca's register (PAlloca's Dst, the loads' and stores'
  // A) holds the value, not an address: PAlloca zeroes it, a load moves
  // it to Dst and a store moves B into it, with the width rule of the
  // memory op (PStore4 keeps the low 32 bits, PLoad4S sign-extends them).
  PAlloca, PLoad4S, PLoad4, PLoad8, PStore4, PStore8,
  // Control flow: A is the target (Br), the call site (Call) or the
  // returned value (Ret); CondBr jumps to B if A holds nonzero, else C.
  Br, CondBr, Call, Ret, RetVoid,
  // Builtins, in BuiltinKind order with IAbs split by width.
  GlobalId, LocalId, GroupId, GlobalSize, LocalSize, NumGroups, WorkDim,
  Barrier, Sqrt, Rsqrt, Sin, Cos, Exp, Log, Fabs, FMin, FMax, Floor,
  IMin, IMax, IAbs32, IAbsW,
  AtomicAdd, AtomicSub, AtomicMin, AtomicMax, AtomicXchg,
  RtIsMaster, RtEnvInit, RtSchedWGroup, RtGlobalId, RtGroupId,
  RtGlobalSize, RtNumGroups,
  // Traps: a local_addr of a slot the function does not declare, and the
  // sentinel after the last instruction.
  BadLocalSlot, FellOff
};

/// \returns the i32 in the low half of \p Bits, sign-extended.
inline uint64_t canonicalizeI32(uint64_t Bits) {
  return static_cast<uint64_t>(
      static_cast<int64_t>(static_cast<int32_t>(Bits)));
}

/// \returns the f32 in the low half of \p Bits.
inline float asF32(uint64_t Bits) {
  return std::bit_cast<float>(static_cast<uint32_t>(Bits));
}

/// \returns the register bits of \p F.
inline uint64_t fromF32(float F) { return std::bit_cast<uint32_t>(F); }

/// f32 -> signed integer toward zero, saturating, NaN to 0.
inline uint64_t fpToSI(uint64_t Bits) {
  float F = asF32(Bits);
  int64_t Out;
  if (std::isnan(F))
    Out = 0;
  else if (F >= 9.2233715e18f)
    Out = INT64_MAX;
  else if (F <= -9.2233715e18f)
    Out = INT64_MIN;
  else
    Out = static_cast<int64_t>(F);
  return static_cast<uint64_t>(Out);
}

/// Computes \p Opcode (SDiv32, SDivW, SRem32 or SRemW) of \p A by \p B,
/// which must be nonzero: a zero divisor traps.
inline uint64_t sdivrem(Op Opcode, uint64_t A, uint64_t B) {
  int64_t Num = static_cast<int64_t>(A), Den = static_cast<int64_t>(B);
  bool IsDiv = Opcode == Op::SDiv32 || Opcode == Op::SDivW;
  uint64_t Out;
  if (Den == -1) // INT_MIN / -1 would be UB; wraps like hardware.
    Out = IsDiv ? 0 - A : 0;
  else
    Out = static_cast<uint64_t>(IsDiv ? Num / Den : Num % Den);
  bool Is32 = Opcode == Op::SDiv32 || Opcode == Op::SRem32;
  return Is32 ? canonicalizeI32(Out) : Out;
}

/// Evaluates the Binary, Cmp, Select or Cast instruction \p I on the
/// bits of its operands, \p Bits[0, I.numOperands()), exactly as the
/// interpreter would. \returns nothing for any other instruction and for
/// one that would trap (a zero divisor).
std::optional<uint64_t> evaluate(const Instruction &I, const uint64_t *Bits);

/// One bytecode instruction: an opcode and up to four register operands.
struct FlatInst {
  Op Opcode = Op::FellOff;
  uint32_t Dst = 0;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
};

struct FlatFunction;

/// One call site: the callee and the caller registers holding its
/// arguments.
struct FlatCallSite {
  const Function *Target = nullptr;
  /// Target's lowered code, resolved by CodeCache::get.
  const FlatFunction *Callee = nullptr;
  std::vector<uint32_t> ArgRegs;
};

/// A fully lowered function.
struct FlatFunction {
  const Function *F = nullptr;
  /// The bytecode; the last instruction is Op::FellOff.
  std::vector<FlatInst> Code;
  std::vector<FlatCallSite> Calls;
  /// Constant payloads, preset into registers [ConstBase, NumRegs).
  std::vector<uint64_t> Consts;
  uint32_t NumArgs = 0;
  uint32_t ConstBase = 0;
  uint32_t NumRegs = 0;
  /// Total local-memory bytes required by the function.
  uint64_t LocalBytes = 0;
};

/// Caches lowered functions per Function identity.
class CodeCache {
public:
  /// \returns the lowered form of \p F, lowering it and, transitively,
  /// its callees on first use. \p F must verify.
  const FlatFunction &get(const Function &F);

  /// Drops the cached code of every function in \p M. Call it before \p
  /// M is destroyed: cache keys are function addresses, which a later
  /// module's functions may reuse. Calls stay inside one module, so no
  /// cached call site outlives its callee.
  void invalidate(const Module &M);

private:
  std::map<const Function *, std::unique_ptr<FlatFunction>> Cache;
};

} // namespace kir
} // namespace accel

#endif // ACCEL_KIR_FLATCODE_H
