//===- accelos/AdmissionLoop.h - Shared continuous-admission loop -*-C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission-pass machinery shared by the fleet replay behind
/// harness::runClusterReplay (and so runStream / runClosedLoop) and the
/// functional Runtime's pump: quantum-bounded slice sizing and the
/// grant -> slice-launch -> shrink -> admitFrom pass over a scheduler
/// and a persistent engine session. Extracted from harness/ReplayDetail
/// when the Runtime moved onto the continuous stack, so the API layer
/// and the replay harness admit work through literally the same code.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_ACCELOS_ADMISSIONLOOP_H
#define ACCEL_ACCELOS_ADMISSIONLOOP_H

#include "accelos/Scheduler.h"
#include "sim/Engine.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace accel {
namespace accelos {

/// Computes the end of the quantum-bounded slice [Cursor, End) of a
/// virtual work range. The thread-cycle budget is derived from the
/// physical work groups that will actually run — \p GrantWGs capped to
/// the remaining virtual groups — so tail slices (fewer groups left
/// than granted workers) do not overrun the quantum the way a budget
/// computed from the uncapped grant would. Always takes at least one
/// group; \p Quantum <= 0 disables slicing (returns the full range).
size_t quantumSliceEnd(const std::vector<double> &WGCosts, size_t Cursor,
                       uint64_t GrantWGs, uint64_t WGThreads,
                       double IssueEfficiency, double Quantum);

/// One continuous-admission pass over \p Sched at the current event:
/// every grant is turned into a slice launch by \p MakeSlice(Id, WGs)
/// and admitted into \p Session through the reused \p LaunchBuf.
/// MakeSlice returns std::nullopt when the grant carries no launch — a
/// request with no remaining work retiring at the boundary, or a caller
/// that failed the request; \p RetireZeroWork(Id) is then called for
/// the caller's completion bookkeeping. A slice that runs fewer
/// physical work groups than granted (a quantum tail) returns the
/// unused reservation via shrink(). \returns true when the pass itself
/// freed capacity and must re-run at this same instant; each re-pass
/// needs a fresh shrink, so the caller's loop terminates.
template <typename SchedulerT, typename MakeSliceFn, typename RetireZeroFn>
inline bool runAdmissionPass(SchedulerT &Sched, sim::EngineSession &Session,
                             std::vector<sim::KernelLaunchDesc> &LaunchBuf,
                             MakeSliceFn &&MakeSlice,
                             RetireZeroFn &&RetireZeroWork) {
  bool Repass = false;
  LaunchBuf.clear();
  for (const RoundGrant &G : Sched.admit()) {
    std::optional<sim::KernelLaunchDesc> L = MakeSlice(G.Id, G.WGs);
    if (!L) {
      RetireZeroWork(G.Id);
      continue;
    }
    // A tail slice runs fewer physical WGs than granted; return the
    // unused reservation and re-admit at this same instant so waiting
    // requests can take it.
    if (L->PhysicalWGs < G.WGs) {
      Sched.shrink(G.Id, L->PhysicalWGs);
      Repass = true;
    }
    LaunchBuf.push_back(std::move(*L));
  }
  if (!LaunchBuf.empty())
    Session.admitFrom(LaunchBuf);
  return Repass;
}

} // namespace accelos
} // namespace accel

#endif // ACCEL_ACCELOS_ADMISSIONLOOP_H
