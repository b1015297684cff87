//===- kir/DeviceMemory.cpp - Simulated device global memory ---------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "kir/DeviceMemory.h"

using namespace accel;
using namespace accel::kir;

// Address 0 is the null pointer; the first 64 bytes are never handed out.
static constexpr uint64_t ReservedPrefix = 64;

DeviceMemory::DeviceMemory(uint64_t CapacityBytes)
    : Capacity(CapacityBytes),
      Storage(static_cast<uint8_t *>(std::calloc(CapacityBytes, 1))) {
  assert(CapacityBytes > ReservedPrefix && "degenerate device memory");
  if (!Storage)
    reportFatalError("cannot reserve simulated device memory");
  FreeList.emplace(ReservedPrefix, CapacityBytes - ReservedPrefix);
}

Expected<uint64_t> DeviceMemory::allocate(uint64_t Size) {
  if (Size == 0)
    Size = 8;
  // Keep everything 8-byte aligned so i64 atomics are natural.
  Size = (Size + 7) & ~static_cast<uint64_t>(7);

  for (auto It = FreeList.begin(); It != FreeList.end(); ++It) {
    if (It->second < Size)
      continue;
    uint64_t Addr = It->first;
    uint64_t Remaining = It->second - Size;
    FreeList.erase(It);
    if (Remaining > 0)
      FreeList.emplace(Addr + Size, Remaining);
    Allocations.emplace(Addr, Size);
    Used += Size;
    std::memset(Storage.get() + Addr, 0, Size);
    return Addr;
  }
  return makeError("device memory exhausted: requested " +
                   std::to_string(Size) + " bytes, " +
                   std::to_string(Capacity - Used) + " free");
}

void DeviceMemory::release(uint64_t Addr) {
  auto It = Allocations.find(Addr);
  assert(It != Allocations.end() && "release of unknown allocation");
  uint64_t Size = It->second;
  Allocations.erase(It);
  Used -= Size;

  // Insert into the free list and coalesce with neighbours.
  auto [Pos, Inserted] = FreeList.emplace(Addr, Size);
  assert(Inserted && "double free");
  (void)Inserted;
  if (Pos != FreeList.begin()) {
    auto Prev = std::prev(Pos);
    if (Prev->first + Prev->second == Pos->first) {
      Prev->second += Pos->second;
      FreeList.erase(Pos);
      Pos = Prev;
    }
  }
  auto Next = std::next(Pos);
  if (Next != FreeList.end() && Pos->first + Pos->second == Next->first) {
    Pos->second += Next->second;
    FreeList.erase(Next);
  }
}

Expected<int64_t> DeviceMemory::atomicAddI64(uint64_t Addr, int64_t Delta) {
  if (Addr % 8 != 0)
    return makeError("unaligned i64 atomic at device address " +
                     std::to_string(Addr) + " (requires 8-byte alignment)");
  int64_t Old = static_cast<int64_t>(readU64(Addr));
  writeU64(Addr, static_cast<uint64_t>(Old + Delta));
  return Old;
}

Expected<int32_t> DeviceMemory::atomicRmwI32(uint64_t Addr, int32_t Operand,
                                             int32_t (*Op)(int32_t, int32_t)) {
  if (Addr % 4 != 0)
    return makeError("unaligned i32 atomic at device address " +
                     std::to_string(Addr) + " (requires 4-byte alignment)");
  int32_t Old = static_cast<int32_t>(readU32(Addr));
  writeU32(Addr, static_cast<uint32_t>(Op(Old, Operand)));
  return Old;
}

void DeviceMemory::copyIn(uint64_t Addr, const void *Src, uint64_t Size) {
  assert(inBounds(Addr, Size) && "copyIn out of bounds");
  std::memcpy(Storage.get() + Addr, Src, Size);
}

void DeviceMemory::copyOut(uint64_t Addr, void *Dst, uint64_t Size) const {
  assert(inBounds(Addr, Size) && "copyOut out of bounds");
  std::memcpy(Dst, Storage.get() + Addr, Size);
}
