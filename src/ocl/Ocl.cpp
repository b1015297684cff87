//===- ocl/Ocl.cpp - OpenCL-style host API over the simulator ---------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "ocl/Ocl.h"

#include "kir/Module.h"
#include "minicl/Frontend.h"

#include <cstring>

using namespace accel;
using namespace accel::ocl;

//===----------------------------------------------------------------------===//
// Buffer
//===----------------------------------------------------------------------===//

Expected<Buffer> Buffer::create(Device &Dev, uint64_t Size) {
  Expected<uint64_t> Addr = Dev.memory().allocate(Size);
  if (!Addr)
    return Addr.takeError();
  return Buffer(Dev, *Addr, Size);
}

Buffer::Buffer(Buffer &&Other) noexcept
    : Dev(Other.Dev), Address(Other.Address), Size(Other.Size) {
  Other.Dev = nullptr;
  Other.Address = 0;
}

Buffer &Buffer::operator=(Buffer &&Other) noexcept {
  if (this != &Other) {
    if (Dev && Address)
      Dev->memory().release(Address);
    Dev = Other.Dev;
    Address = Other.Address;
    Size = Other.Size;
    Other.Dev = nullptr;
    Other.Address = 0;
  }
  return *this;
}

Buffer::~Buffer() {
  if (Dev && Address)
    Dev->memory().release(Address);
}

Error Buffer::write(const void *Src, uint64_t Bytes, uint64_t Offset) {
  if (Offset + Bytes > Size)
    return makeError("buffer write out of range");
  Dev->memory().copyIn(Address + Offset, Src, Bytes);
  return Error::success();
}

Error Buffer::read(void *Dst, uint64_t Bytes, uint64_t Offset) const {
  if (Offset + Bytes > Size)
    return makeError("buffer read out of range");
  Dev->memory().copyOut(Address + Offset, Dst, Bytes);
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Program / Kernel / CommandQueue
//===----------------------------------------------------------------------===//

Program::~Program() {
  if (M)
    Dev->interpreter().forget(*M);
}

void Program::adoptModule(std::unique_ptr<kir::Module> NewModule) {
  if (M)
    Dev->interpreter().forget(*M);
  M = std::move(NewModule);
}

Error Program::build() {
  if (M)
    return Error::success();
  Expected<std::unique_ptr<kir::Module>> Built =
      minicl::compileSource("program", Source);
  if (!Built)
    return Built.takeError();
  M = Built.take();
  return Error::success();
}

KernelArg KernelArg::scalarF32(float V) {
  uint32_t Bits;
  std::memcpy(&Bits, &V, 4);
  return {Bits};
}

Expected<Kernel> Kernel::create(Program &Prog, const std::string &Name) {
  if (!Prog.isBuilt())
    return makeError("program is not built");
  kir::Function *Fn = Prog.module()->getFunction(Name);
  if (!Fn || !Fn->isKernel())
    return makeError("no kernel named '" + Name + "' in program");
  return Kernel(Prog, Fn, Name);
}

Error Kernel::setArg(unsigned Index, KernelArg Arg) {
  if (Index >= Args.size())
    return makeError("kernel argument index " + std::to_string(Index) +
                     " out of range for '" + Name + "'");
  Args[Index] = Arg.Bits;
  ArgSet[Index] = true;
  return Error::success();
}

Expected<std::vector<uint64_t>> Kernel::packedArgs() const {
  for (size_t I = 0; I != ArgSet.size(); ++I)
    if (!ArgSet[I])
      return makeError("kernel argument " + std::to_string(I) +
                       " of '" + Name + "' is unset");
  return Args;
}

Expected<kir::ExecStats>
CommandQueue::enqueueNDRange(Kernel &K, const kir::NDRangeCfg &Range) {
  for (unsigned D = 0; D != 3; ++D) {
    if (Range.LocalSize[D] == 0)
      return makeError("zero local size in dimension " + std::to_string(D));
    if (Range.GlobalSize[D] % Range.LocalSize[D] != 0)
      return makeError("global size not divisible by local size in "
                       "dimension " +
                       std::to_string(D));
  }
  Expected<std::vector<uint64_t>> Args = K.packedArgs();
  if (!Args)
    return Args.takeError();
  return Dev->interpreter().run(*K.function(), *Args, Range);
}
