//===- bench/abl_adaptive_sched.cpp - Sec. 6.4 ablation ------------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the adaptive scheduling policy (Sec. 6.4): sweeps the
/// dequeue batch size for a short kernel (uniformAdd-like) and a long
/// kernel (tpacf-like), showing why instruction-count-driven batching
/// matters: small batches drown short kernels in atomic overhead while
/// long kernels are insensitive.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "accelos/AdaptivePolicy.h"

using namespace accel;
using namespace accel::bench;

int main() {
  raw_ostream &OS = outs();
  OS << "=== Ablation: dequeue batch size vs single-kernel slowdown "
        "(NVIDIA model) ===\n\n";

  ExperimentDriver Driver(sim::DeviceSpec::nvidiaK20m());
  harness::TextTable T({"Kernel", "batch=1", "batch=2", "batch=4",
                        "batch=6", "batch=8", "adaptive(paper)"});

  for (const char *Id :
       {"mri_gridding_uniformAdd", "mri_q_ComputePhiMag", "stencil",
        "tpacf"}) {
    size_t Idx = 0;
    for (size_t I = 0; I != Driver.numKernels(); ++I)
      if (Driver.kernel(I).Spec->Id == Id)
        Idx = I;
    const harness::CompiledKernel &CK = Driver.kernel(Idx);
    double Base = Driver.isolatedDuration(SchedulerKind::Baseline, Idx);

    auto RunWithBatch = [&](uint64_t Batch) {
      sim::KernelLaunchDesc L;
      L.WGThreads = CK.Spec->WGSize;
      L.LocalMemPerWG = CK.LocalMemBytes;
      L.RegsPerThread = CK.RegsPerThread;
      L.IssueEfficiency = CK.Spec->IssueEfficiency;
      L.Mode = sim::KernelLaunchDesc::ModeKind::WorkQueue;
      L.VirtualCosts = CK.WGCosts;
      // Fix the physical work-group count across the sweep (an eighth
      // of the grid) so the comparison isolates the per-dequeue
      // overhead amortization from work starvation.
      L.PhysicalWGs = std::max<uint64_t>(1, CK.Spec->NumWGs / 8);
      L.Batch = Batch;
      sim::Engine E(Driver.device());
      return E.run({L}).Makespan / Base;
    };

    uint64_t Adaptive = accelos::adaptiveBatchSize(CK.InstCount);
    T.addRow({std::string(Id) + " (ir=" +
                  std::to_string(CK.InstCount) + ")",
              fmt(RunWithBatch(1)), fmt(RunWithBatch(2)),
              fmt(RunWithBatch(4)), fmt(RunWithBatch(6)),
              fmt(RunWithBatch(8)),
              fmt(RunWithBatch(Adaptive)) + " (b=" +
                  std::to_string(Adaptive) + ")"});
  }
  T.print(OS);
  OS << "\nValues are slowdowns vs the standard stack (lower is "
        "better). Short kernels need large batches; long kernels are "
        "insensitive (Sec. 6.4 thresholds).\n";
  return 0;
}
