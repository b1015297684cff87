//===- kir/analysis/CostPrior.h - Static work estimation --------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A static per-work-item work estimate from weighted instruction
/// counts, loop nesting and derivable trip-count bounds. Memory
/// operations are classified with the uniformity analysis (uniform
/// broadcast / coalesced id-affine / data-dependent gather) because
/// access pattern, not instruction count, dominates accelerator cost.
/// The estimate seeds workloads::CostProfile so the schedulers have a
/// solo-duration prior for kernels they have never executed (the
/// ROADMAP's cold-start hole); it is a prior, not a promise, and blends
/// away as measurements arrive.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_KIR_ANALYSIS_COSTPRIOR_H
#define ACCEL_KIR_ANALYSIS_COSTPRIOR_H

#include "kir/analysis/Lint.h"

#include <vector>

namespace accel {
namespace kir {
namespace analysis {

class Cfg;
class IntervalAnalysis;
class UniformityAnalysis;

/// How a loop's iteration bound was established.
enum class TripBoundKind {
  Exact,    ///< Derived numerically from init/bound/step intervals.
  Argument, ///< Bound flows from a kernel argument; default used.
  WorkItem, ///< Bound flows from work-item ids; default used.
  Data,     ///< Bound loaded from global/local memory; default used.
  Fallback  ///< No recognisable induction; fallback (diagnosed).
};

/// \returns a short printable name for \p K ("exact", "argument", ...).
const char *tripBoundKindName(TripBoundKind K);

/// Per-loop summary, index-aligned with Cfg::loops().
struct LoopTripInfo {
  TripBoundKind BoundKind = TripBoundKind::Fallback;
  double Trips = 1.0; ///< Estimated iterations per entry.
  unsigned Line = 0;  ///< Source line of the loop header, when known.
};

/// The static work estimate for one function.
struct CostEstimate {
  /// Estimated thread-cycles executed by one work item.
  double PerItemCycles = 0.0;
  /// True when any loop needed the fallback trip count.
  bool UsedFallback = false;
  std::vector<LoopTripInfo> LoopInfo;
};

/// Estimates \p G's function. Appends a CostFallback diagnostic per
/// unanalysable loop to \p Diags when non-null.
CostEstimate estimateCost(const Cfg &G, const UniformityAnalysis &UA,
                          const IntervalAnalysis &IA,
                          std::vector<Diagnostic> *Diags = nullptr);

} // namespace analysis
} // namespace kir
} // namespace accel

#endif // ACCEL_KIR_ANALYSIS_COSTPRIOR_H
