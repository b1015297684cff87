//===- workloads/StaticPrior.cpp - Analysis-seeded cost priors --------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "workloads/StaticPrior.h"

#include "kir/Module.h"
#include "kir/analysis/Cfg.h"
#include "kir/analysis/CostPrior.h"
#include "kir/analysis/Intervals.h"
#include "kir/analysis/Uniformity.h"
#include "minicl/Frontend.h"
#include "support/ErrorHandling.h"

#include <map>
#include <mutex>

using namespace accel;
using namespace accel::workloads;

const StaticPrior &workloads::staticCostPrior(const KernelSpec &Spec) {
  // The suite vector is a function-local static, so keying the memo by
  // spec address is stable for the process lifetime.
  static std::map<const KernelSpec *, StaticPrior> Cache;
  static std::mutex Lock;
  std::lock_guard<std::mutex> Guard(Lock);
  auto It = Cache.find(&Spec);
  if (It != Cache.end())
    return It->second;

  // Analyse the front end's output directly (no cleanup passes): the
  // calibration in tests/AnalysisTests.cpp holds for this exact form.
  Expected<std::unique_ptr<kir::Module>> M =
      minicl::compileSource(Spec.Id, Spec.Source);
  if (!M)
    reportFatalError(("static prior: workload kernel '" + Spec.Id +
                      "' failed to compile: " + M.message())
                         .c_str());
  kir::Function *K = (*M)->getFunction(Spec.KernelName);
  if (!K)
    reportFatalError(("static prior: kernel entry '" + Spec.KernelName +
                      "' missing in workload '" + Spec.Id + "'")
                         .c_str());

  kir::analysis::Cfg G(*K);
  kir::analysis::UniformityAnalysis UA(G);
  kir::analysis::IntervalAnalysis IA(G);
  kir::analysis::CostEstimate Est = kir::analysis::estimateCost(G, UA, IA);

  StaticPrior P;
  P.PerItemCycles = Est.PerItemCycles;
  P.MeanWGCycles = Est.PerItemCycles * static_cast<double>(Spec.WGSize);
  P.UsedFallback = Est.UsedFallback;
  return Cache.emplace(&Spec, P).first->second;
}
