//===- kir/analysis/Lint.cpp - Analysis diagnostics and driver --------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "kir/analysis/Lint.h"

#include "kir/Module.h"
#include "kir/analysis/Cfg.h"
#include "kir/analysis/CostPrior.h"
#include "kir/analysis/Intervals.h"
#include "kir/analysis/RtWindowSafety.h"
#include "kir/analysis/Uniformity.h"

using namespace accel;
using namespace accel::kir;
using namespace accel::kir::analysis;

const char *analysis::diagnosticKindName(Diagnostic::Kind K) {
  switch (K) {
  case Diagnostic::Kind::DivergentBarrier:
    return "divergence";
  case Diagnostic::Kind::RtWindowWrite:
    return "rt-window";
  case Diagnostic::Kind::CostFallback:
    return "cost";
  }
  return "unknown";
}

std::string Diagnostic::str() const {
  std::string S = FunctionName;
  if (Line) {
    S += ":";
    S += std::to_string(Line);
  }
  S += ": [";
  S += diagnosticKindName(DiagKind);
  S += "] ";
  S += Message;
  if (!BlockName.empty())
    S += " (block '" + BlockName + "')";
  return S;
}

bool analysis::isSchedulingKernel(const Module &M, const Function &F) {
  return F.isKernel() && M.getFunction(F.name() + "__comp") != nullptr;
}

std::vector<Diagnostic> analysis::lintFunction(const Function &F,
                                               bool IsSchedulingKernel,
                                               const LintOptions &Opts) {
  std::vector<Diagnostic> Diags;
  if (F.isDeclaration())
    return Diags;

  Cfg G(F);
  UniformityAnalysis UA(G);
  IntervalAnalysis IA(G);

  if (Opts.CheckDivergence) {
    for (const DivergentBarrier &DB : UA.divergentBarriers()) {
      Diagnostic D;
      D.DiagKind = Diagnostic::Kind::DivergentBarrier;
      D.FunctionName = F.name();
      D.BlockName = DB.Barrier->parent()->name();
      D.Line = DB.Barrier->line();
      D.Message = "barrier under work-item-divergent control flow";
      if (DB.Branch && DB.Branch->line())
        D.Message += " (divergent branch at line " +
                     std::to_string(DB.Branch->line()) + ")";
      Diags.push_back(std::move(D));
    }
  }

  if (Opts.CheckRtWindow)
    checkRtWindowSafety(G, IA, IsSchedulingKernel, Diags);

  // The cost prior is a property of the user's kernel. A scheduling
  // kernel's persistent-thread loop runs until the host-side scheduler
  // posts RUN_TERMINATE, so its trip count is contention-dependent and a
  // fallback diagnostic there would be pure noise.
  if (Opts.CheckCost && !IsSchedulingKernel)
    estimateCost(G, UA, IA, &Diags);

  return Diags;
}

std::vector<Diagnostic> analysis::lintModule(const Module &M,
                                             const LintOptions &Opts) {
  std::vector<Diagnostic> Diags;
  for (const auto &F : M.functions()) {
    std::vector<Diagnostic> FD =
        lintFunction(*F, isSchedulingKernel(M, *F), Opts);
    Diags.insert(Diags.end(), FD.begin(), FD.end());
  }
  return Diags;
}
