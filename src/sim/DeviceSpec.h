//===- sim/DeviceSpec.h - Accelerator device models -------------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameters of the simulated accelerators. Two models mirror the
/// paper's evaluation platforms (Sec. 7.1): an NVIDIA Tesla K20m-like
/// device and an AMD R9 295X2-like device. The three resources the
/// resource-sharing solver reasons about (threads, local memory,
/// registers; paper Sec. 3) are per-CU capacities here; device-wide
/// totals are derived.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_SIM_DEVICESPEC_H
#define ACCEL_SIM_DEVICESPEC_H

#include <cstdint>
#include <string>

namespace accel {
namespace sim {

/// How the device begins executing a newly submitted kernel while older
/// ones still occupy resources. Models the vendor-stack difference the
/// paper observes in Fig. 12 (NVIDIA shows tail overlap, AMD nearly
/// none).
enum class KernelAdmissionKind {
  /// WG-granular FIFO: the next kernel's work groups begin as soon as
  /// the previous kernel has no *pending* work groups (tail overlap).
  GreedyTail,
  /// Kernel-exclusive: a kernel begins only when the device is empty or
  /// the kernel's whole footprint fits in the free space.
  ExclusiveUnlessFits
};

/// Static description of one accelerator.
struct DeviceSpec {
  std::string Name;
  unsigned NumCUs = 0;
  uint64_t MaxThreadsPerCU = 0;
  uint64_t MaxWGsPerCU = 0;
  uint64_t LocalMemPerCU = 0; ///< Bytes.
  uint64_t RegsPerCU = 0;     ///< 32-bit registers.
  uint64_t GlobalMemBytes = 0;
  /// SIMD lanes per CU: peak thread-cycles retired per cycle.
  unsigned LanesPerCU = 0;
  /// Cost, in per-thread cycles, of launching one hardware work group.
  double WGDispatchCycles = 0;
  /// Cost, in per-thread cycles, of one software dequeue (the atomic
  /// rt_sched_wgroup operation, paper Sec. 6.4).
  double DequeueCycles = 0;
  KernelAdmissionKind Admission = KernelAdmissionKind::GreedyTail;

  /// Equal specs model the same device: every launch runs the same way.
  bool operator==(const DeviceSpec &) const = default;

  uint64_t totalThreads() const { return NumCUs * MaxThreadsPerCU; }
  uint64_t totalLocalMem() const { return NumCUs * LocalMemPerCU; }
  uint64_t totalRegs() const { return NumCUs * RegsPerCU; }
  uint64_t totalWGSlots() const { return NumCUs * MaxWGsPerCU; }

  /// The NVIDIA Tesla K20m-like model (13 SMX, Kepler limits).
  static DeviceSpec nvidiaK20m();

  /// The AMD R9 295X2-like model (one Hawaii GPU: 44 CUs, GCN limits).
  static DeviceSpec amdR9295X2();
};

} // namespace sim
} // namespace accel

#endif // ACCEL_SIM_DEVICESPEC_H
