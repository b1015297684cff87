//===- kir/DeviceMemory.h - Simulated device global memory ------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-addressable simulated device (global) memory with a first-fit
/// allocator. OpenCL buffers, Virtual NDRange descriptors, and kernel
/// atomics all live here. The capacity is reserved with calloc, so pages
/// are committed on first touch: a stock 5 GiB device costs only what
/// its buffers use. allocate() zeroes every range it hands out, so a
/// reused range reads zero too. The typed accessors are inline for the
/// interpreter's loop. Single-threaded by construction; "atomic"
/// operations are atomic with respect to interleaved work-item execution
/// in the interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_KIR_DEVICEMEMORY_H
#define ACCEL_KIR_DEVICEMEMORY_H

#include "support/Error.h"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

namespace accel {
namespace kir {

/// Simulated global memory of one accelerator. Move-only: it owns its
/// storage.
class DeviceMemory {
public:
  /// Creates a memory of \p CapacityBytes bytes.
  explicit DeviceMemory(uint64_t CapacityBytes);

  /// Allocates \p Size bytes (8-byte aligned). \returns the device
  /// address, or an error when memory is exhausted.
  Expected<uint64_t> allocate(uint64_t Size);

  /// Releases the allocation starting at \p Addr (must be a live
  /// allocation address).
  void release(uint64_t Addr);

  /// \returns bytes currently allocated.
  uint64_t usedBytes() const { return Used; }

  /// \returns total capacity in bytes.
  uint64_t capacityBytes() const { return Capacity; }

  /// \returns true when [Addr, Addr+Size) lies within the memory.
  bool inBounds(uint64_t Addr, uint64_t Size) const {
    return Addr != 0 && Addr + Size <= Capacity && Addr + Size >= Addr;
  }

  // Typed accessors. Callers must bounds-check via inBounds first (the
  // interpreter turns violations into kernel traps); these assert.
  uint32_t readU32(uint64_t Addr) const {
    assert(inBounds(Addr, 4) && "device read out of bounds");
    uint32_t V;
    std::memcpy(&V, Storage.get() + Addr, 4);
    return V;
  }
  void writeU32(uint64_t Addr, uint32_t Value) {
    assert(inBounds(Addr, 4) && "device write out of bounds");
    std::memcpy(Storage.get() + Addr, &Value, 4);
  }
  uint64_t readU64(uint64_t Addr) const {
    assert(inBounds(Addr, 8) && "device read out of bounds");
    uint64_t V;
    std::memcpy(&V, Storage.get() + Addr, 8);
    return V;
  }
  void writeU64(uint64_t Addr, uint64_t Value) {
    assert(inBounds(Addr, 8) && "device write out of bounds");
    std::memcpy(Storage.get() + Addr, &Value, 8);
  }

  /// Fetch-add on an i64 cell; \returns the previous value, or a
  /// diagnostic when \p Addr is not 8-byte aligned (real devices fault
  /// or silently tear on unaligned atomics — neither is acceptable in
  /// a simulator).
  Expected<int64_t> atomicAddI64(uint64_t Addr, int64_t Delta);

  /// Fetch-op on an i32 cell; \returns the previous value, or a
  /// diagnostic when \p Addr is not 4-byte aligned.
  Expected<int32_t> atomicRmwI32(uint64_t Addr, int32_t Operand,
                                 int32_t (*Op)(int32_t, int32_t));

  /// Bulk host<->device transfer helpers (used by the OpenCL layer).
  void copyIn(uint64_t Addr, const void *Src, uint64_t Size);
  void copyOut(uint64_t Addr, void *Dst, uint64_t Size) const;

private:
  uint64_t Capacity;
  uint64_t Used = 0;
  struct FreeStorage {
    void operator()(uint8_t *P) const { std::free(P); }
  };
  std::unique_ptr<uint8_t[], FreeStorage> Storage;
  // Live allocations: address -> size.
  std::map<uint64_t, uint64_t> Allocations;
  // Free regions: address -> size (coalesced).
  std::map<uint64_t, uint64_t> FreeList;
};

} // namespace kir
} // namespace accel

#endif // ACCEL_KIR_DEVICEMEMORY_H
