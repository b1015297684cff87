//===- kir/Module.h - Blocks, functions and modules -------------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural containers of the kernel IR. A Module owns Functions, a
/// Function owns its Arguments, BasicBlocks, local-memory declarations
/// and a uniquing constant pool, and a BasicBlock owns Instructions.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_KIR_MODULE_H
#define ACCEL_KIR_MODULE_H

#include "kir/Instructions.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace accel {
namespace kir {

/// A straight-line sequence of instructions ending in a terminator.
class BasicBlock {
public:
  BasicBlock(std::string Name, Function *Parent)
      : Name(std::move(Name)), Parent(Parent) {}

  const std::string &name() const { return Name; }
  Function *parent() const { return Parent; }

  /// Appends \p Inst and returns a raw pointer to it.
  Instruction *append(std::unique_ptr<Instruction> Inst) {
    Inst->setParent(this);
    Insts.push_back(std::move(Inst));
    return Insts.back().get();
  }

  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }

  Instruction *inst(size_t I) const { return Insts[I].get(); }

  /// \returns the terminator, or null if the block is unterminated.
  Instruction *terminator() const {
    if (Insts.empty() || !Insts.back()->isTerminator())
      return nullptr;
    return Insts.back().get();
  }

  const std::vector<std::unique_ptr<Instruction>> &instructions() const {
    return Insts;
  }

  /// Replaces the instruction list wholesale (used by transforms).
  void setInstructions(std::vector<std::unique_ptr<Instruction>> NewInsts) {
    Insts = std::move(NewInsts);
    for (auto &I : Insts)
      I->setParent(this);
  }

  /// Moves the instruction list out (used by transforms when splitting
  /// or rewriting blocks). The block is left empty.
  std::vector<std::unique_ptr<Instruction>> takeInstructions() {
    return std::move(Insts);
  }

  /// Swaps the instruction at \p I for \p New and returns the old one
  /// (kept alive so remaining uses can be rewritten before disposal).
  std::unique_ptr<Instruction> replaceInst(size_t I,
                                           std::unique_ptr<Instruction> New) {
    assert(I < Insts.size() && "replaceInst index out of range");
    New->setParent(this);
    std::swap(Insts[I], New);
    return New;
  }

private:
  std::string Name;
  Function *Parent;
  std::vector<std::unique_ptr<Instruction>> Insts;
};

/// A statically-sized local-memory (work-group scratchpad) array
/// declaration attached to a function. The accelOS transform hoists
/// these from the computation function into the scheduling kernel.
struct LocalAllocDecl {
  std::string Name;
  Type::Kind ElemKind;
  uint64_t Count;

  /// \returns the footprint in bytes.
  uint64_t sizeBytes() const {
    return Count * Type::scalarSizeBytes(ElemKind);
  }
};

/// A KIR function: either a device kernel (entry point launched over an
/// NDRange) or a regular function callable from kernels.
class Function {
public:
  Function(std::string Name, Type RetTy, bool IsKernel)
      : Name(std::move(Name)), RetTy(RetTy), IsKernel(IsKernel) {}

  const std::string &name() const { return Name; }
  void setName(std::string NewName) { Name = std::move(NewName); }

  const Type &returnType() const { return RetTy; }

  bool isKernel() const { return IsKernel; }
  void setIsKernel(bool K) { IsKernel = K; }

  /// Appends a formal parameter of type \p Ty named \p ArgName.
  Argument *addArgument(Type Ty, std::string ArgName) {
    auto Arg = std::make_unique<Argument>(
        Ty, static_cast<unsigned>(Args.size()));
    Arg->setName(std::move(ArgName));
    Args.push_back(std::move(Arg));
    return Args.back().get();
  }

  unsigned numArguments() const { return static_cast<unsigned>(Args.size()); }
  Argument *argument(unsigned I) const { return Args[I].get(); }

  /// Creates and appends a new basic block.
  BasicBlock *createBlock(std::string BlockName) {
    Blocks.push_back(std::make_unique<BasicBlock>(std::move(BlockName),
                                                  this));
    return Blocks.back().get();
  }

  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }

  BasicBlock *entryBlock() const {
    return Blocks.empty() ? nullptr : Blocks.front().get();
  }

  bool isDeclaration() const { return Blocks.empty(); }

  /// Declares a local-memory array; returns its slot index.
  unsigned addLocalAlloc(LocalAllocDecl Decl) {
    LocalAllocs.push_back(std::move(Decl));
    return static_cast<unsigned>(LocalAllocs.size() - 1);
  }

  const std::vector<LocalAllocDecl> &localAllocs() const {
    return LocalAllocs;
  }

  std::vector<LocalAllocDecl> &localAllocs() { return LocalAllocs; }

  /// \returns total local-memory footprint of this function in bytes.
  uint64_t localMemoryBytes() const {
    uint64_t Total = 0;
    for (const LocalAllocDecl &Decl : LocalAllocs)
      Total += Decl.sizeBytes();
    return Total;
  }

  /// Interns the integer constant \p V of type \p Ty in this function's
  /// constant pool.
  Constant *getIntConstant(Type Ty, int64_t V) {
    return getConstant(Ty, static_cast<uint64_t>(V));
  }

  /// Interns the f32 constant \p V.
  Constant *getFloatConstant(float V) {
    return getConstant(Type::f32(), Constant::encodeFloat(V));
  }

  /// Interns the boolean constant \p V.
  Constant *getBoolConstant(bool V) {
    return getConstant(Type::i1(), V ? 1 : 0);
  }

  /// Total number of instructions across all blocks. Drives the paper's
  /// adaptive-scheduling thresholds (Sec. 6.4).
  uint64_t instructionCount() const {
    uint64_t N = 0;
    for (const auto &BB : Blocks)
      N += BB->size();
    return N;
  }

  /// Interns the constant of type \p Ty with payload \p Bits (see
  /// Constant::bits).
  Constant *getConstant(Type Ty, uint64_t Bits) {
    ConstantKey Key{static_cast<uint8_t>(Ty.kind()), Bits};
    auto It = ConstantPool.find(Key);
    if (It != ConstantPool.end())
      return It->second.get();
    auto C = std::make_unique<Constant>(Ty, Bits);
    Constant *Raw = C.get();
    ConstantPool.emplace(Key, std::move(C));
    return Raw;
  }

private:
  using ConstantKey = std::pair<uint8_t, uint64_t>;

  std::string Name;
  Type RetTy;
  bool IsKernel;
  std::vector<std::unique_ptr<Argument>> Args;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  std::vector<LocalAllocDecl> LocalAllocs;
  std::map<ConstantKey, std::unique_ptr<Constant>> ConstantPool;
};

/// A translation unit: the result of compiling one MiniCL program.
class Module {
public:
  explicit Module(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  /// Creates a new function; names must be unique within the module.
  Function *createFunction(std::string FnName, Type RetTy, bool IsKernel) {
    assert(!getFunction(FnName) && "duplicate function name");
    Functions.push_back(
        std::make_unique<Function>(std::move(FnName), RetTy, IsKernel));
    return Functions.back().get();
  }

  /// \returns the function named \p FnName, or null.
  Function *getFunction(const std::string &FnName) const {
    for (const auto &F : Functions)
      if (F->name() == FnName)
        return F.get();
    return nullptr;
  }

  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Functions;
  }

  /// \returns all kernel entry points in declaration order.
  std::vector<Function *> kernels() const {
    std::vector<Function *> Result;
    for (const auto &F : Functions)
      if (F->isKernel())
        Result.push_back(F.get());
    return Result;
  }

private:
  std::string Name;
  std::vector<std::unique_ptr<Function>> Functions;
};

} // namespace kir
} // namespace accel

#endif // ACCEL_KIR_MODULE_H
