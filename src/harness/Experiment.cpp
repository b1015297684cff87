//===- harness/Experiment.cpp - Experiment driver ----------------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "accelos/AdaptivePolicy.h"
#include "accelos/ResourceSolver.h"
#include "ek/ElasticKernels.h"
#include "kir/Module.h"
#include "kir/RtLayout.h"
#include "minicl/Frontend.h"
#include "passes/ConstantFold.h"
#include "passes/DCE.h"
#include "passes/Inliner.h"
#include "passes/Pass.h"
#include "passes/RegisterEstimator.h"
#include "workloads/StaticPrior.h"

#include <cstdlib>

using namespace accel;
using namespace accel::harness;

const char *harness::schedulerName(SchedulerKind Kind) {
  switch (Kind) {
  case SchedulerKind::Baseline:
    return "Standard";
  case SchedulerKind::ElasticKernels:
    return "EK";
  case SchedulerKind::AccelOSNaive:
    return "accelOS-naive";
  case SchedulerKind::AccelOSOptimized:
    return "accelOS";
  }
  accel_unreachable("bad scheduler kind");
}

double harness::reproScale() {
  const char *Env = std::getenv("ACCELOS_REPRO_SCALE");
  if (!Env)
    return 1.0;
  double V = std::atof(Env);
  return V > 0 ? V : 1.0;
}

namespace {

/// Compiles every suite kernel through the front end and the GPU
/// cleanup pipeline; the solver/batching inputs come from the IR.
std::shared_ptr<const CompiledSuite> compileSuite() {
  auto Suite = std::make_shared<CompiledSuite>();
  for (const workloads::KernelSpec &WS : workloads::parboilSuite()) {
    Expected<std::unique_ptr<kir::Module>> M =
        minicl::compileSource(WS.Id, WS.Source);
    if (!M)
      reportFatalError(("workload kernel '" + WS.Id +
                        "' failed to compile: " + M.message())
                           .c_str());
    passes::PassManager PM;
    PM.addPass(std::make_unique<passes::InlinerPass>());
    PM.addPass(std::make_unique<passes::ConstantFoldPass>());
    PM.addPass(std::make_unique<passes::DCEPass>());
    cantFail(PM.run(**M));

    kir::Function *K = (*M)->getFunction(WS.KernelName);
    if (!K)
      reportFatalError(("kernel entry '" + WS.KernelName +
                        "' missing in workload '" + WS.Id + "'")
                           .c_str());
    CompiledKernel CK;
    CK.Spec = &WS;
    CK.InstCount = K->instructionCount();
    CK.RegsPerThread = passes::estimateRegisters(*K);
    CK.LocalMemBytes = K->localMemoryBytes();
    CK.WGCosts = workloads::generateWGCosts(WS);
    Suite->push_back(std::move(CK));
  }
  return Suite;
}

} // namespace

ExperimentDriver::ExperimentDriver(const sim::DeviceSpec &Spec)
    : ExperimentDriver(Spec, compileSuite()) {}

ExperimentDriver::ExperimentDriver(const sim::DeviceSpec &Spec,
                                   std::shared_ptr<const CompiledSuite> Suite)
    : Spec(Spec), Suite(std::move(Suite)) {}

sim::KernelLaunchDesc ExperimentDriver::baselineDesc(size_t Idx,
                                                     int AppId) const {
  const CompiledKernel &CK = kernel(Idx);
  sim::KernelLaunchDesc L;
  L.AppId = AppId;
  L.WGThreads = CK.Spec->WGSize;
  L.LocalMemPerWG = CK.LocalMemBytes;
  L.RegsPerThread = CK.RegsPerThread;
  L.IssueEfficiency = CK.Spec->IssueEfficiency;
  L.Mode = sim::KernelLaunchDesc::ModeKind::Static;
  L.StaticCosts = CK.WGCosts;
  return L;
}

ek::EKKernelDesc ExperimentDriver::ekDesc(size_t Idx, int AppId) const {
  const CompiledKernel &CK = kernel(Idx);
  ek::EKKernelDesc D;
  D.Name = CK.Spec->Id;
  D.AppId = AppId;
  D.WGThreads = CK.Spec->WGSize;
  D.LocalMemPerWG = CK.LocalMemBytes;
  D.RegsPerThread = CK.RegsPerThread;
  D.IssueEfficiency = CK.Spec->IssueEfficiency;
  D.WGCosts = CK.WGCosts;
  return D;
}

accelos::KernelDemand ExperimentDriver::demandFor(size_t Idx) const {
  const CompiledKernel &CK = kernel(Idx);
  accelos::KernelDemand D;
  D.WGThreads = CK.Spec->WGSize;
  D.LocalMemPerWG = CK.LocalMemBytes + kir::rtlayout::schedDescBytes();
  D.RegsPerThread = CK.RegsPerThread;
  D.RequestedWGs = CK.Spec->NumWGs;
  return D;
}

sim::KernelLaunchDesc
ExperimentDriver::accelosDesc(size_t Idx, int AppId, uint64_t PhysWGs,
                              accelos::SchedulingMode Mode) const {
  const CompiledKernel &CK = kernel(Idx);
  sim::KernelLaunchDesc L;
  L.AppId = AppId;
  L.WGThreads = CK.Spec->WGSize;
  L.LocalMemPerWG = CK.LocalMemBytes + kir::rtlayout::schedDescBytes();
  L.RegsPerThread = CK.RegsPerThread;
  L.IssueEfficiency = CK.Spec->IssueEfficiency;
  L.Mode = sim::KernelLaunchDesc::ModeKind::WorkQueue;
  L.ViewCosts = CK.WGCosts.data();
  L.ViewEnd = CK.WGCosts.size();
  L.PhysicalWGs = PhysWGs;
  L.Batch = accelos::cappedBatchFor(Mode, CK.InstCount, CK.Spec->NumWGs,
                                    PhysWGs);
  return L;
}

double ExperimentDriver::isolatedDuration(SchedulerKind Kind, size_t Idx) {
  auto Key = std::make_pair(static_cast<int>(Kind), Idx);
  auto It = IsolatedCache.find(Key);
  if (It != IsolatedCache.end())
    return It->second;

  std::vector<sim::KernelLaunchDesc> Solo;
  switch (Kind) {
  case SchedulerKind::Baseline:
    Solo.push_back(baselineDesc(Idx, 0));
    break;
  case SchedulerKind::ElasticKernels:
    Solo = ek::planMergedLaunch(Spec, {ekDesc(Idx, 0)});
    break;
  case SchedulerKind::AccelOSNaive:
  case SchedulerKind::AccelOSOptimized: {
    // The share accelos::RoundScheduler grants a lone request.
    uint64_t WGs = accelos::soloShare(accelos::ResourceCaps::fromDevice(Spec),
                                      demandFor(Idx));
    Solo.push_back(accelosDesc(Idx, 0, WGs,
                               Kind == SchedulerKind::AccelOSNaive
                                   ? accelos::SchedulingMode::Naive
                                   : accelos::SchedulingMode::Optimized));
    break;
  }
  }
  sim::Engine Engine(Spec);
  double D = Engine.run(std::move(Solo)).Kernels[0].duration();
  IsolatedCache.emplace(Key, D);
  return D;
}

double ExperimentDriver::priorSoloDuration(size_t Idx) {
  auto It = PriorSoloCache.find(Idx);
  if (It != PriorSoloCache.end())
    return It->second;

  const CompiledKernel &CK = kernel(Idx);
  const workloads::StaticPrior &P = workloads::staticCostPrior(*CK.Spec);
  sim::KernelLaunchDesc L = baselineDesc(Idx, 0);
  L.StaticCosts.assign(CK.WGCosts.size(), P.MeanWGCycles);
  sim::Engine Engine(Spec);
  sim::SimResult R = Engine.run({std::move(L)});
  double D = R.Kernels[0].duration();
  PriorSoloCache.emplace(Idx, D);
  return D;
}
