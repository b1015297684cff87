//===- ocl/Ocl.h - OpenCL-style host API over the simulator -----*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact OpenCL-style host API (platform/device/buffer/program/
/// kernel/queue) over the simulated accelerator: the "standard OpenCL"
/// level-0 system interface of the paper's Fig. 5. Applications are
/// expected to go through accelos::ProxyCL, which intercepts program
/// creation and kernel enqueues exactly as the paper's Application
/// Monitor does; using this API directly corresponds to running without
/// accelOS.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_OCL_OCL_H
#define ACCEL_OCL_OCL_H

#include "kir/DeviceMemory.h"
#include "kir/Interpreter.h"
#include "sim/DeviceSpec.h"
#include "support/Error.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace accel {

namespace kir {
class Module;
class Function;
}

namespace ocl {

/// A simulated accelerator: static capabilities plus global memory and
/// a functional executor.
class Device {
public:
  explicit Device(sim::DeviceSpec Spec)
      : Spec(std::move(Spec)), Memory(this->Spec.GlobalMemBytes),
        Interp(Memory) {}

  const sim::DeviceSpec &spec() const { return Spec; }
  kir::DeviceMemory &memory() { return Memory; }
  kir::Interpreter &interpreter() { return Interp; }

private:
  sim::DeviceSpec Spec;
  kir::DeviceMemory Memory;
  kir::Interpreter Interp;
};

/// Enumerates the available simulated platforms (paper Sec. 7.1).
class Platform {
public:
  /// \returns a freshly constructed device of the requested model.
  static std::unique_ptr<Device> createNvidiaK20m() {
    return std::make_unique<Device>(sim::DeviceSpec::nvidiaK20m());
  }
  static std::unique_ptr<Device> createAmdR9295X2() {
    return std::make_unique<Device>(sim::DeviceSpec::amdR9295X2());
  }
};

/// A device-memory buffer (cl_mem equivalent).
class Buffer {
public:
  /// Allocates \p Size bytes on \p Dev.
  static Expected<Buffer> create(Device &Dev, uint64_t Size);

  Buffer(Buffer &&Other) noexcept;
  Buffer &operator=(Buffer &&Other) noexcept;
  Buffer(const Buffer &) = delete;
  Buffer &operator=(const Buffer &) = delete;
  ~Buffer();

  uint64_t deviceAddress() const { return Address; }
  uint64_t size() const { return Size; }

  /// Host -> device transfer of \p Bytes starting at \p Offset.
  Error write(const void *Src, uint64_t Bytes, uint64_t Offset = 0);

  /// Device -> host transfer.
  Error read(void *Dst, uint64_t Bytes, uint64_t Offset = 0) const;

private:
  Buffer(Device &Dev, uint64_t Address, uint64_t Size)
      : Dev(&Dev), Address(Address), Size(Size) {}

  Device *Dev;
  uint64_t Address;
  uint64_t Size;
};

/// A compiled program (cl_program equivalent). Building runs the MiniCL
/// front end — the "vendor compiler" of the paper's Fig. 7a.
class Program {
public:
  Program(Device &Dev, std::string Source)
      : Dev(&Dev), Source(std::move(Source)) {}
  /// Drops the module's code from the device interpreter's cache.
  ~Program();
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  /// Compiles the source. Idempotent.
  Error build();

  bool isBuilt() const { return M != nullptr; }
  kir::Module *module() const { return M.get(); }
  const std::string &source() const { return Source; }
  Device &device() const { return *Dev; }

  /// Replaces the compiled module (used by the accelOS JIT after its
  /// transformation pipeline, Fig. 7b).
  void adoptModule(std::unique_ptr<kir::Module> NewModule);

private:
  Device *Dev;
  std::string Source;
  std::unique_ptr<kir::Module> M;
};

/// A kernel argument value: a scalar payload or a buffer address.
struct KernelArg {
  uint64_t Bits = 0;

  static KernelArg scalarI32(int32_t V) {
    return {static_cast<uint64_t>(static_cast<int64_t>(V))};
  }
  static KernelArg scalarI64(int64_t V) {
    return {static_cast<uint64_t>(V)};
  }
  static KernelArg scalarF32(float V);
  static KernelArg buffer(const Buffer &B) { return {B.deviceAddress()}; }
};

/// A kernel instance with bound arguments (cl_kernel equivalent).
class Kernel {
public:
  /// Looks up kernel \p Name in \p Prog (which must be built).
  static Expected<Kernel> create(Program &Prog, const std::string &Name);

  const std::string &name() const { return Name; }
  kir::Function *function() const { return Fn; }
  Program &program() const { return *Prog; }

  /// Binds argument \p Index.
  Error setArg(unsigned Index, KernelArg Arg);

  /// \returns the bound argument payloads; unset arguments are an error.
  Expected<std::vector<uint64_t>> packedArgs() const;

private:
  Kernel(Program &Prog, kir::Function *Fn, std::string Name)
      : Prog(&Prog), Fn(Fn), Name(std::move(Name)),
        Args(Fn->numArguments()), ArgSet(Fn->numArguments(), false) {}

  Program *Prog;
  kir::Function *Fn;
  std::string Name;
  std::vector<uint64_t> Args;
  std::vector<bool> ArgSet;
};

/// An in-order command queue (functional execution; timing is the job
/// of sim::Engine).
class CommandQueue {
public:
  explicit CommandQueue(Device &Dev) : Dev(&Dev) {}

  /// Synchronously executes \p K over \p Range.
  Expected<kir::ExecStats> enqueueNDRange(Kernel &K,
                                          const kir::NDRangeCfg &Range);

  /// No-op (execution is synchronous); kept for API fidelity.
  void finish() {}

private:
  Device *Dev;
};

} // namespace ocl
} // namespace accel

#endif // ACCEL_OCL_OCL_H
