//===- kir/FlatCode.cpp - Bytecode for interpretation ----------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "kir/FlatCode.h"

#include "support/Casting.h"

#include <algorithm>
#include <set>

using namespace accel;
using namespace accel::kir;

namespace {

Op offset(Op Base, unsigned By) {
  return static_cast<Op>(static_cast<unsigned>(Base) + By);
}

constexpr unsigned ord(auto Kind) { return static_cast<unsigned>(Kind); }

// The opcode families follow the order of the enums they lower from.
static_assert(ord(Op::LShrW) - ord(Op::Add32) ==
              2 * ord(BinOpKind::LShr) + 1);
static_assert(ord(Op::FDiv) - ord(Op::FAdd) ==
              ord(BinOpKind::FDiv) - ord(BinOpKind::FAdd));
static_assert(ord(Op::CmpSGE) - ord(Op::CmpEQ) == ord(CmpPred::SGE));
static_assert(ord(Op::FCmpOGE) - ord(Op::FCmpOEQ) ==
              ord(CmpPred::FOGE) - ord(CmpPred::FOEQ));
static_assert(ord(Op::PStore8) - ord(Op::PAlloca) ==
              ord(Op::Store8) - ord(Op::Alloca));
static_assert(ord(Op::IAbs32) - ord(Op::GlobalId) == ord(BuiltinKind::IAbs));
static_assert(ord(Op::RtNumGroups) - ord(Op::GlobalId) ==
              ord(BuiltinKind::RtNumGroups) + 1);

Op binaryOp(BinOpKind K, bool Is32) {
  if (isFloatBinOp(K))
    return offset(Op::FAdd, ord(K) - ord(BinOpKind::FAdd));
  return offset(Op::Add32, 2 * ord(K) + (Is32 ? 0 : 1));
}

Op cmpOp(CmpPred P, bool Is32) {
  if (isFloatCmpPred(P))
    return offset(Op::FCmpOEQ, ord(P) - ord(CmpPred::FOEQ));
  if (P == CmpPred::ULT)
    return Is32 ? Op::CmpULT32 : Op::CmpULTW;
  if (P == CmpPred::UGE)
    return Is32 ? Op::CmpUGE32 : Op::CmpUGEW;
  return offset(Op::CmpEQ, ord(P));
}

Op builtinOp(BuiltinKind BK, bool Is32) {
  unsigned K = ord(BK), IAbs = ord(BuiltinKind::IAbs);
  return offset(Op::GlobalId, K + (K > IAbs || (K == IAbs && !Is32)));
}

Op castOp(CastKind CK, bool Is32) {
  switch (CK) {
  case CastKind::SExt:
    return Op::Mov;
  case CastKind::Trunc:
    return Op::Trunc;
  case CastKind::SIToFP:
    return Op::SIToFP;
  case CastKind::FPToSI:
    return Is32 ? Op::FPToSI32 : Op::FPToSIW;
  case CastKind::ZExtBool:
    return Op::ZExtBool;
  }
  accel_unreachable("bad cast kind");
}

/// \returns the opcode of a Binary, Cmp, Select or Cast instruction, or
/// nothing for any other kind.
std::optional<Op> pureOp(const Instruction &I) {
  bool Is32 = I.type().kind() == Type::Kind::I32;
  switch (I.instKind()) {
  case InstKind::Binary:
    return binaryOp(cast<BinaryInst>(I).op(), Is32);
  case InstKind::Cmp: {
    const auto &C = cast<CmpInst>(I);
    return cmpOp(C.pred(), C.lhs()->type().kind() == Type::Kind::I32);
  }
  case InstKind::Select:
    return Op::Select;
  case InstKind::Cast:
    return castOp(cast<CastInst>(I).castKind(), Is32);
  default:
    return std::nullopt;
  }
}

/// \returns the register move that replaces memory op \p Memory (Alloca
/// to Store8) on a promoted scalar.
Op promoted(Op Memory) {
  return offset(Op::PAlloca, ord(Memory) - ord(Op::Alloca));
}

/// \returns the allocas of \p F whose value can live in their own
/// register: one element, in the entry block with no use ahead of them
/// there, and every use the pointer of a load or a store. Control enters
/// the entry block at its top and leaves it only through its terminator,
/// so every other use runs after the alloca.
std::set<const Value *> promotableScalars(const Function &F) {
  std::set<const Value *> Promoted;
  const BasicBlock *Entry = F.entryBlock();
  if (!Entry)
    return Promoted;
  for (const auto &I : Entry->instructions())
    if (const auto *A = dyn_cast<AllocaInst>(I.get()); A && A->count() == 1)
      Promoted.insert(A);
  std::set<const Value *> Reached; // entry-block instructions passed
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      for (unsigned K = 0; K != I->numOperands(); ++K) {
        const Value *V = I->operand(K);
        bool AsPointer = K == 0 && (I->instKind() == InstKind::Load ||
                                    I->instKind() == InstKind::Store);
        if (!AsPointer || (BB.get() == Entry && !Reached.count(V)))
          Promoted.erase(V);
      }
      if (BB.get() == Entry)
        Reached.insert(I.get());
    }
  }
  return Promoted;
}

/// Lowers \p F; call sites are left for CodeCache::get to resolve.
std::unique_ptr<FlatFunction> lowerFunction(const Function &F) {
  auto FF = std::make_unique<FlatFunction>();
  FF->F = &F;
  const std::set<const Value *> Promoted = promotableScalars(F);

  // Local-memory layout: each slot 8-byte aligned.
  std::vector<uint64_t> LocalSlotOffsets;
  for (const LocalAllocDecl &Decl : F.localAllocs()) {
    LocalSlotOffsets.push_back(FF->LocalBytes);
    FF->LocalBytes += (Decl.sizeBytes() + 7) & ~static_cast<uint64_t>(7);
  }

  // First pass: argument and value registers, block starts.
  std::map<const Value *, uint32_t> Slot;
  FF->NumArgs = F.numArguments();
  uint32_t NextReg = 0;
  for (unsigned I = 0; I != F.numArguments(); ++I)
    Slot[F.argument(I)] = NextReg++;
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
  const uint32_t Sink = NextReg++;
  FF->ConstBase = NextReg;

  // Second pass: emit, interning constants after the sink.
  std::map<uint64_t, uint32_t> ConstReg;
  auto Const = [&](uint64_t Bits) {
    auto [It, New] = ConstReg.emplace(
        Bits, FF->ConstBase + static_cast<uint32_t>(FF->Consts.size()));
    if (New)
      FF->Consts.push_back(Bits);
    return It->second;
  };
  auto Reg = [&](const Value *V) {
    if (const auto *C = dyn_cast<Constant>(V))
      return Const(C->bits());
    auto It = Slot.find(V);
    assert(It != Slot.end() && "operand without a register slot");
    return It->second;
  };

  for (const auto &BB : F.blocks()) {
    for (const auto &IPtr : BB->instructions()) {
      const Instruction &I = *IPtr;
      FlatInst FI;
      FI.Dst = I.type().isVoid() ? Sink : Slot.at(&I);
      uint32_t *Ops[] = {&FI.A, &FI.B, &FI.C};
      if (I.instKind() != InstKind::Call) {
        assert(I.numOperands() <= 3 && "too many operands");
        for (unsigned K = 0; K != I.numOperands(); ++K)
          *Ops[K] = Reg(I.operand(K));
      }
      bool Is32 = I.type().kind() == Type::Kind::I32;
      switch (I.instKind()) {
      case InstKind::Binary:
      case InstKind::Cmp:
      case InstKind::Select:
      case InstKind::Cast:
        FI.Opcode = pureOp(I).value_or(Op::FellOff);
        break;
      case InstKind::Alloca: {
        const auto &A = cast<AllocaInst>(I);
        if (Promoted.count(&A)) {
          FI.Opcode = Op::PAlloca;
          break;
        }
        FI.Opcode = Op::Alloca;
        FI.A = Const(A.count() * Type::scalarSizeBytes(A.elemKind()));
        break;
      }
      case InstKind::LocalAddr: {
        unsigned Idx = cast<LocalAddrInst>(I).slotIndex();
        if (Idx >= LocalSlotOffsets.size()) {
          FI.Opcode = Op::BadLocalSlot;
          break;
        }
        FI.Opcode = Op::Mov;
        FI.A = Const(tagAddr(AddrTag::Local, LocalSlotOffsets[Idx]));
        break;
      }
      case InstKind::Load:
        FI.Opcode = I.type().kind() == Type::Kind::I64 ? Op::Load8
                    : Is32                             ? Op::Load4S
                                                       : Op::Load4;
        if (Promoted.count(I.operand(0)))
          FI.Opcode = promoted(FI.Opcode);
        break;
      case InstKind::Store: {
        // A pointer value does not verify, but lowers like an i64.
        Type::Kind K = cast<StoreInst>(I).value()->type().kind();
        FI.Opcode = K == Type::Kind::I64 || K == Type::Kind::Ptr ? Op::Store8
                                                                 : Op::Store4;
        if (Promoted.count(I.operand(0)))
          FI.Opcode = promoted(FI.Opcode);
        break;
      }
      case InstKind::Gep:
        FI.Opcode = I.type().elemSizeBytes() == 8 ? Op::Gep8 : Op::Gep4;
        break;
      case InstKind::Call: {
        FlatCallSite CS;
        CS.Target = cast<CallInst>(I).callee();
        for (const Value *Arg : I.operands())
          CS.ArgRegs.push_back(Reg(Arg));
        FI.Opcode = Op::Call;
        FI.A = static_cast<uint32_t>(FF->Calls.size());
        FF->Calls.push_back(std::move(CS));
        break;
      }
      case InstKind::Builtin:
        FI.Opcode = builtinOp(cast<BuiltinInst>(I).builtinKind(), Is32);
        break;
      case InstKind::Br: {
        const auto &Br = cast<BrInst>(I);
        if (Br.isConditional()) {
          FI.Opcode = Op::CondBr;
          FI.B = BlockStart.at(Br.trueTarget());
          FI.C = BlockStart.at(Br.falseTarget());
        } else {
          FI.Opcode = Op::Br;
          FI.A = BlockStart.at(Br.trueTarget());
        }
        break;
      }
      case InstKind::Ret:
        FI.Opcode = cast<RetInst>(I).hasValue() ? Op::Ret : Op::RetVoid;
        break;
      }
      FF->Code.push_back(FI);
    }
  }
  FF->Code.push_back(FlatInst());
  FF->NumRegs = FF->ConstBase + static_cast<uint32_t>(FF->Consts.size());
  return FF;
}

} // namespace

std::optional<uint64_t> kir::evaluate(const Instruction &I,
                                      const uint64_t *Bits) {
  std::optional<Op> Opcode = pureOp(I);
  if (!Opcode)
    return std::nullopt;
  uint64_t Ops[3] = {0, 0, 0};
  std::copy_n(Bits, I.numOperands(), Ops);
  [[maybe_unused]] uint64_t A = Ops[0], B = Ops[1], C = Ops[2];
  switch (*Opcode) {
#define PURE_OP(Name, Expr)                                                    \
  case Op::Name:                                                               \
    return static_cast<uint64_t>(Expr);
#include "kir/PureOps.def"
  case Op::SDiv32:
  case Op::SDivW:
  case Op::SRem32:
  case Op::SRemW:
    if (B == 0)
      return std::nullopt;
    return sdivrem(*Opcode, A, B);
  default:
    accel_unreachable("pure instruction without a pure opcode");
  }
}

void CodeCache::invalidate(const Module &M) {
  for (const std::unique_ptr<Function> &F : M.functions())
    Cache.erase(F.get());
}

const FlatFunction &CodeCache::get(const Function &F) {
  auto It = Cache.find(&F);
  if (It != Cache.end())
    return *It->second;
  // Cache the function before resolving its callees, so recursion ends.
  FlatFunction &FF = *Cache.emplace(&F, lowerFunction(F)).first->second;
  for (FlatCallSite &CS : FF.Calls) {
    CS.Callee = &get(*CS.Target);
    assert(CS.ArgRegs.size() == CS.Callee->NumArgs && "call arity mismatch");
  }
  return FF;
}
