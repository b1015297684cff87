//===- harness/Experiment.h - Experiment driver -----------------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One device's view of the paper's experiments: the 25-kernel suite
/// compiled through the real front end and JIT cleanup pipeline (so
/// instruction counts, register estimates, and local-memory footprints
/// that feed the Sec. 3 solver and Sec. 6.4 batching come from actual
/// IR), and each kernel's launch under the four schedulers: standard
/// OpenCL (Baseline), Elastic Kernels, and accelOS in naive and
/// optimized modes. Nothing in the compiled suite depends on the
/// device, so views of several devices may share one (a cluster::Fleet
/// compiles it once). The replays that run those launches live in
/// harness/Streaming.h — one arrival source feeding one FIFO loop and
/// one round loop — where harness::runWorkload, the paper's batch
/// experiment, is the open trace whose arrivals are all zero.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_HARNESS_EXPERIMENT_H
#define ACCEL_HARNESS_EXPERIMENT_H

#include "accelos/AdaptivePolicy.h"
#include "accelos/ResourceSolver.h"
#include "ek/ElasticKernels.h"
#include "sim/Engine.h"
#include "workloads/KernelSpec.h"
#include "workloads/Sampler.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace accel {
namespace harness {

/// The schemes compared throughout Sec. 8.
enum class SchedulerKind {
  Baseline,         ///< Standard OpenCL stack.
  ElasticKernels,   ///< Static merging baseline [31].
  AccelOSNaive,     ///< accelOS, one virtual group per dequeue.
  AccelOSOptimized  ///< accelOS with adaptive batching (default).
};

/// \returns a short printable name.
const char *schedulerName(SchedulerKind Kind);

/// A suite kernel with its compiler-derived facts and generated costs.
struct CompiledKernel {
  const workloads::KernelSpec *Spec = nullptr;
  uint64_t InstCount = 0;     ///< IR instructions (drives batching).
  uint64_t RegsPerThread = 0; ///< r_i for the solver.
  uint64_t LocalMemBytes = 0; ///< m_i for the solver.
  std::vector<double> WGCosts;
};

/// The whole suite, compiled; indexed like workloads::parboilSuite().
using CompiledSuite = std::vector<CompiledKernel>;

/// The compiled suite and its launch builders on one device model.
class ExperimentDriver {
public:
  /// A view of \p Spec over a freshly compiled suite.
  explicit ExperimentDriver(const sim::DeviceSpec &Spec);

  /// A view of \p Spec over \p Suite, which views of other devices may
  /// share.
  ExperimentDriver(const sim::DeviceSpec &Spec,
                   std::shared_ptr<const CompiledSuite> Suite);

  /// The compiled suite this view reads.
  const std::shared_ptr<const CompiledSuite> &suite() const {
    return Suite;
  }

  /// Number of suite kernels.
  size_t numKernels() const { return Suite->size(); }

  const CompiledKernel &kernel(size_t Idx) const { return (*Suite)[Idx]; }

  const sim::DeviceSpec &device() const { return Spec; }

  /// Duration of kernel \p Idx running alone under \p Kind (cached):
  /// the standard launch, EK's merge of one, or the accelOS launch at
  /// the share accelos::RoundScheduler grants a lone request.
  double isolatedDuration(SchedulerKind Kind, size_t Idx);

  /// Predicted solo duration of kernel \p Idx before it has ever run:
  /// the same engine math as isolatedDuration, but with every
  /// work-group cost replaced by the static analysis prior
  /// (workloads::staticCostPrior). Cached.
  double priorSoloDuration(size_t Idx);

  /// Builds the launch descriptor of suite kernel \p Idx as the
  /// standard OpenCL stack would submit it (also used by the streaming
  /// harness's FIFO baseline).
  sim::KernelLaunchDesc baselineDesc(size_t Idx, int AppId) const;

  /// Builds one accelOS WorkQueue launch for \p Idx with the solved
  /// share \p PhysWGs. Its virtual costs are a view of the whole range
  /// in kernel(Idx).WGCosts, not a copy: the driver must outlive it.
  sim::KernelLaunchDesc accelosDesc(size_t Idx, int AppId,
                                    uint64_t PhysWGs,
                                    accelos::SchedulingMode Mode) const;

  /// Builds the Elastic Kernels merge input for suite kernel \p Idx.
  ek::EKKernelDesc ekDesc(size_t Idx, int AppId) const;

  /// The Sec. 3 demand terms of suite kernel \p Idx (full range, unit
  /// weight — callers adjust RequestedWGs/Weight as needed).
  accelos::KernelDemand demandFor(size_t Idx) const;

private:
  sim::DeviceSpec Spec;
  std::shared_ptr<const CompiledSuite> Suite;
  std::map<std::pair<int, size_t>, double> IsolatedCache;
  std::map<size_t, double> PriorSoloCache;
};

/// \returns the bench scale factor from ACCELOS_REPRO_SCALE (default 1).
double reproScale();

} // namespace harness
} // namespace accel

#endif // ACCEL_HARNESS_EXPERIMENT_H
