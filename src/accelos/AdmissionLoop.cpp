//===- accelos/AdmissionLoop.cpp - Shared continuous-admission loop ----------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "accelos/AdmissionLoop.h"

#include <algorithm>
#include <cassert>

using namespace accel;

size_t accelos::quantumSliceEnd(const std::vector<double> &WGCosts,
                                size_t Cursor, uint64_t GrantWGs,
                                uint64_t WGThreads,
                                double IssueEfficiency, double Quantum) {
  size_t End = WGCosts.size();
  assert(Cursor <= End && "slice cursor past the virtual range");
  if (Quantum <= 0 || Cursor == End)
    return End;
  // The budget approximates the thread-cycles retired in one quantum by
  // the workers that will actually run: the grant capped to the
  // remaining virtual groups. Budgeting the uncapped grant would let a
  // tail slice (fewer groups left than granted workers) overrun the
  // quantum.
  uint64_t Workers =
      std::min<uint64_t>(std::max<uint64_t>(GrantWGs, 1), End - Cursor);
  double Budget = Quantum * static_cast<double>(Workers) *
                  static_cast<double>(WGThreads) * IssueEfficiency;
  double Cost = 0;
  size_t Take = Cursor;
  while (Take != End && (Take == Cursor || Cost < Budget))
    Cost += WGCosts[Take++];
  return Take;
}

void accelos::narrowToSlice(sim::KernelLaunchDesc &L,
                            const std::vector<double> &WGCosts,
                            size_t &Cursor, uint64_t GrantWGs,
                            SchedulingMode Mode, uint64_t InstCount,
                            double Quantum) {
  size_t End = quantumSliceEnd(WGCosts, Cursor, GrantWGs, L.WGThreads,
                               L.IssueEfficiency, Quantum);
  const uint64_t SliceLen = End - Cursor;
  L.ViewCosts = WGCosts.data();
  L.ViewBegin = Cursor;
  L.ViewEnd = End;
  L.PhysicalWGs =
      std::min<uint64_t>(std::max<uint64_t>(GrantWGs, 1), SliceLen);
  L.Batch = cappedBatchFor(Mode, InstCount, SliceLen, L.PhysicalWGs);
  Cursor = End;
}
