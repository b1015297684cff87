//===- workloads/StaticPrior.h - Analysis-seeded cost priors ----*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges the KIR static cost analysis into the workload layer: a
/// KernelSpec's MiniCL source is compiled and analysed, and the
/// per-work-item cycle estimate becomes a mean work-group cost.
/// Schedulers use it as a solo-duration prior for kernels they have
/// never executed (the cold-start hole): it is calibrated to land within
/// 3x of the measured mean for the whole suite, then blends away as real
/// measurements arrive.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_WORKLOADS_STATICPRIOR_H
#define ACCEL_WORKLOADS_STATICPRIOR_H

#include "workloads/KernelSpec.h"

namespace accel {
namespace workloads {

/// The static analysis' view of one suite kernel.
struct StaticPrior {
  double PerItemCycles = 0; ///< Estimated thread-cycles per work item.
  double MeanWGCycles = 0;  ///< PerItemCycles x WGSize.
  /// True when a loop needed the diagnosed fallback trip count; the
  /// prior is then weaker and callers may widen their blend window.
  bool UsedFallback = false;
};

/// Compiles \p Spec's source and runs the cost analysis over its entry
/// kernel (fatal on compile error: suite sources are tested). Results
/// are memoized per spec.
const StaticPrior &staticCostPrior(const KernelSpec &Spec);

} // namespace workloads
} // namespace accel

#endif // ACCEL_WORKLOADS_STATICPRIOR_H
