//===- kir/Interpreter.h - Functional kernel execution ----------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes KIR kernels over an NDRange against simulated device memory.
/// Work-groups run in interleaved barrier-delimited phases so the
/// device-side scheduling library's atomic dequeues (paper Fig. 8b)
/// interleave across physical work-groups the way they would on hardware.
/// Used to validate that the accelOS JIT transformation preserves kernel
/// semantics; the timing model in src/sim handles performance.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_KIR_INTERPRETER_H
#define ACCEL_KIR_INTERPRETER_H

#include "kir/DeviceMemory.h"
#include "kir/FlatCode.h"
#include "support/Error.h"

#include <cstdint>
#include <vector>

namespace accel {
namespace kir {

/// The geometry of one kernel launch.
struct NDRangeCfg {
  unsigned WorkDim = 1;
  uint64_t GlobalSize[3] = {1, 1, 1};
  uint64_t LocalSize[3] = {1, 1, 1};

  /// \returns the number of work groups along \p Dim. Global sizes must
  /// be divisible by local sizes (checked by the OpenCL layer).
  uint64_t numGroups(unsigned Dim) const {
    return GlobalSize[Dim] / LocalSize[Dim];
  }

  uint64_t totalGroups() const {
    return numGroups(0) * numGroups(1) * numGroups(2);
  }

  uint64_t workGroupSize() const {
    return LocalSize[0] * LocalSize[1] * LocalSize[2];
  }

  uint64_t totalWorkItems() const {
    return GlobalSize[0] * GlobalSize[1] * GlobalSize[2];
  }
};

/// Dynamic execution statistics of one launch.
struct ExecStats {
  uint64_t InstsExecuted = 0;
  uint64_t AtomicOps = 0;
  uint64_t Barriers = 0;
  /// Dynamic load + store count (all address spaces). Together with
  /// MathOps this gives the measured counterpart of the static cost
  /// prior's instruction-mix estimate.
  uint64_t MemoryOps = 0;
  /// Dynamic sqrt/rsqrt/sin/cos/exp/log builtin count.
  uint64_t MathOps = 0;
  /// Dynamic instruction count per physical work-group (for observing
  /// the load balance that software scheduling produces).
  std::vector<uint64_t> GroupInsts;
};

/// Functional executor for KIR kernels.
class Interpreter {
public:
  explicit Interpreter(DeviceMemory &GlobalMem) : GlobalMem(GlobalMem) {}

  /// Runs \p Kernel over \p Range with the given argument payloads
  /// (scalars by value, buffers as device addresses). \returns execution
  /// statistics or a trap description.
  Expected<ExecStats> run(const Function &Kernel,
                          const std::vector<uint64_t> &Args,
                          const NDRangeCfg &Range);

  /// Caps the dynamic instructions any single work-item may execute
  /// before the interpreter traps (guards against runaway loops).
  void setMaxStepsPerWorkItem(uint64_t Max) { MaxSteps = Max; }

  /// Caps how many work-groups are kept in flight concurrently.
  void setMaxConcurrentGroups(uint64_t Max) { MaxGroups = Max; }

  /// Drops the lowered code of \p M's functions; call before \p M is
  /// destroyed (see CodeCache::invalidate).
  void forget(const Module &M) { Cache.invalidate(M); }

private:
  DeviceMemory &GlobalMem;
  CodeCache Cache;
  uint64_t MaxSteps = 50'000'000;
  uint64_t MaxGroups = 64;
};

} // namespace kir
} // namespace accel

#endif // ACCEL_KIR_INTERPRETER_H
