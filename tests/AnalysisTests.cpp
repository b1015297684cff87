//===- tests/AnalysisTests.cpp - KIR dataflow-analysis tests ----------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-analysis framework end to end: CFG structure (loops,
/// reverse postorder), uniformity / barrier divergence, interval
/// arithmetic, the exact diagnostics of the three committed negative
/// lint fixtures, the strict Verifier mode, the calibration contract of
/// the static cost prior (within 3x of the measured solo duration for
/// every suite kernel), and the cold-start placement payoff (the prior
/// beats prior-less placement on first-contact p95 queueing).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "cluster/ClusterHarness.h"
#include "cluster/Fleet.h"
#include "harness/Experiment.h"
#include "kir/Module.h"
#include "kir/Verifier.h"
#include "kir/analysis/Cfg.h"
#include "kir/analysis/CostPrior.h"
#include "kir/analysis/Intervals.h"
#include "kir/analysis/Lint.h"
#include "kir/analysis/Uniformity.h"
#include "minicl/Frontend.h"
#include "workloads/KernelSpec.h"
#include "workloads/StaticPrior.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace accel;
using namespace accel::kir::analysis;
using accel::testutil::compileOrDie;

namespace {

//===----------------------------------------------------------------------===//
// CFG structure
//===----------------------------------------------------------------------===//

const kir::BasicBlock *blockNamed(const Cfg &G, const std::string &Name) {
  for (unsigned B = 0; B != G.numBlocks(); ++B)
    if (G.block(B)->name() == Name)
      return G.block(B);
  return nullptr;
}

TEST(CfgTest, LoopsAndRpo) {
  auto M = compileOrDie(R"(
    kernel void k(global float* a, int n) {
      for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < n; j = j + 1) {
          a[i * n + j] = 0.0;
        }
      }
    }
  )");
  ASSERT_NE(M, nullptr);
  Cfg G(*M->getFunction("k"));

  // RPO starts at the entry block and covers every reachable block.
  ASSERT_FALSE(G.reversePostOrder().empty());
  EXPECT_EQ(G.reversePostOrder().front(), 0u);
  for (unsigned B : G.reversePostOrder())
    EXPECT_TRUE(G.isReachable(B));

  // Two natural loops, properly nested: the inner header sits at
  // depth 2 and points at the outer loop as its parent.
  ASSERT_EQ(G.loops().size(), 2u);
  const CfgLoop *Outer = nullptr, *Inner = nullptr;
  for (const CfgLoop &L : G.loops())
    (L.Depth == 1 ? Outer : Inner) = &L;
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Depth, 2u);
  EXPECT_EQ(Inner->Parent, static_cast<int>(Outer - &G.loops()[0]));
  EXPECT_TRUE(Outer->contains(Inner->Header));
  EXPECT_EQ(G.loopDepth(Inner->Header), 2u);
  EXPECT_EQ(G.loopDepth(Outer->Header), 1u);
  EXPECT_FALSE(Outer->Latches.empty());
}

//===----------------------------------------------------------------------===//
// Uniformity
//===----------------------------------------------------------------------===//

TEST(UniformityTest, WorkItemBranchDivergesItsRegion) {
  auto M = compileOrDie(R"(
    kernel void k(global float* d, int n) {
      long gid = get_global_id(0);
      if (gid < (long)n) {
        d[gid] = 1.0;
      }
      d[0] = 2.0;
    }
  )");
  ASSERT_NE(M, nullptr);
  Cfg G(*M->getFunction("k"));
  UniformityAnalysis UA(G);

  // The guarded store runs only on some work items; the entry and the
  // code after reconvergence run on all of them.
  const kir::BasicBlock *Then = blockNamed(G, "if.then0");
  ASSERT_NE(Then, nullptr);
  EXPECT_TRUE(UA.isDivergentBlock(G.id(Then)));
  EXPECT_FALSE(UA.isDivergentBlock(0));
  EXPECT_TRUE(UA.divergentBarriers().empty());
}

TEST(UniformityTest, UniformLoopWithInnerDivergenceKeepsBarriersLegal) {
  // The classic reduction shape: the barrier sits in the uniform loop
  // body, NOT inside the work-item-divergent if — every work item
  // reaches it, so the divergent-barrier lint must stay quiet.
  auto M = compileOrDie(R"(
    kernel void reduce(global float* d) {
      local float tile[16];
      long lid = get_local_id(0);
      tile[lid] = d[lid];
      barrier();
      int stride = 8;
      while (stride > 0) {
        if (lid < stride) {
          tile[lid] += tile[lid + stride];
        }
        barrier();
        stride = stride / 2;
      }
      if (lid == 0) {
        d[0] = tile[0];
      }
    }
  )");
  ASSERT_NE(M, nullptr);
  Cfg G(*M->getFunction("reduce"));
  UniformityAnalysis UA(G);
  EXPECT_TRUE(UA.divergentBarriers().empty());
}

TEST(UniformityTest, BarrierUnderDivergentBranchIsCaught) {
  auto M = compileOrDie(R"(
    kernel void k(global float* d, int n) {
      if (get_global_id(0) < (long)n) {
        barrier();
        d[0] = 1.0;
      }
    }
  )");
  ASSERT_NE(M, nullptr);
  Cfg G(*M->getFunction("k"));
  UniformityAnalysis UA(G);
  ASSERT_EQ(UA.divergentBarriers().size(), 1u);
  EXPECT_NE(UA.divergentBarriers()[0].Barrier, nullptr);
  EXPECT_NE(UA.divergentBarriers()[0].Branch, nullptr);
}

//===----------------------------------------------------------------------===//
// Interval arithmetic
//===----------------------------------------------------------------------===//

TEST(IntervalTest, ArithmeticAndSaturation) {
  Interval A = Interval::range(1, 5);
  EXPECT_EQ(A.add(Interval::constant(2)), Interval::range(3, 7));
  EXPECT_EQ(A.sub(Interval::range(0, 1)), Interval::range(0, 5));
  EXPECT_EQ(A.mul(Interval::constant(3)), Interval::range(3, 15));

  // The INT64 extremes behave as infinities: arithmetic saturates
  // instead of wrapping.
  Interval Top = Interval::full();
  EXPECT_TRUE(Top.add(Interval::constant(1)).isFull());
  Interval Hi = Interval::range(0, Interval::PosInf);
  EXPECT_EQ(Hi.add(Interval::constant(5)).Lo, 5);
  EXPECT_FALSE(Hi.add(Interval::constant(5)).hasUpperBound());

  EXPECT_EQ(A.hull(Interval::range(10, 12)), Interval::range(1, 12));
  EXPECT_TRUE(A.mayIntersect(5, 9));
  EXPECT_FALSE(A.mayIntersect(6, 9));
  EXPECT_TRUE(Interval::constant(4).isConstant());
}

//===----------------------------------------------------------------------===//
// The committed negative fixtures produce their exact diagnostics
//===----------------------------------------------------------------------===//

std::string readFixture(const std::string &Name) {
  std::string Path =
      std::string(ACCEL_SOURCE_DIR) + "/tests/lint/" + Name + ".cl";
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<Diagnostic> lintFixture(const std::string &Name) {
  Expected<minicl::CompiledWithLints> R =
      minicl::compileSourceWithLints(Name, readFixture(Name));
  EXPECT_TRUE(static_cast<bool>(R)) << R.message();
  if (!R)
    return {};
  return R->Lints;
}

TEST(LintFixtureTest, DivergentBarrier) {
  std::vector<Diagnostic> Diags = lintFixture("divergent_barrier");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].DiagKind, Diagnostic::Kind::DivergentBarrier);
  EXPECT_EQ(Diags[0].str(),
            "divergent_barrier:8: [divergence] barrier under "
            "work-item-divergent control flow (divergent branch at "
            "line 7) (block 'if.then0')");
}

TEST(LintFixtureTest, RtWindowWrite) {
  std::vector<Diagnostic> Diags = lintFixture("rt_window_write");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].DiagKind, Diagnostic::Kind::RtWindowWrite);
  EXPECT_EQ(Diags[0].str(),
            "rt_window_write:7: [rt-window] store may clobber reserved "
            "runtime window 'rt' (word offset [2, 2] overlaps [0, 13]) "
            "(block 'start')");
}

TEST(LintFixtureTest, UnboundedCost) {
  std::vector<Diagnostic> Diags = lintFixture("unbounded_cost");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].DiagKind, Diagnostic::Kind::CostFallback);
  EXPECT_EQ(Diags[0].str(),
            "unbounded_cost:9: [cost] cannot derive a trip count "
            "(unrecognised update of the loop variable 'i.addr'); "
            "assuming 16 iterations (block 'while.cond0')");
}

TEST(LintFixtureTest, SuiteKernelsAreClean) {
  for (const workloads::KernelSpec &WS : workloads::parboilSuite()) {
    Expected<minicl::CompiledWithLints> R =
        minicl::compileSourceWithLints(WS.Id, WS.Source);
    ASSERT_TRUE(static_cast<bool>(R)) << WS.Id << ": " << R.message();
    EXPECT_TRUE(R->Lints.empty())
        << WS.Id << ": " << R->Lints.front().str();
  }
}

//===----------------------------------------------------------------------===//
// Strict Verifier mode
//===----------------------------------------------------------------------===//

TEST(VerifierStrictTest, RejectsDivergentBarriersOnlyWhenAsked) {
  auto M = compileOrDie(readFixture("divergent_barrier"));
  ASSERT_NE(M, nullptr);

  // Structurally the module is fine; the default verifier accepts it.
  EXPECT_FALSE(static_cast<bool>(kir::verifyModule(*M)));

  kir::VerifierOptions Opts;
  Opts.RejectDivergentBarriers = true;
  Error E = kir::verifyModule(*M, Opts);
  ASSERT_TRUE(static_cast<bool>(E));
  std::string Msg = E.message();
  EXPECT_NE(Msg.find("divergent_barrier"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("barrier"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("work-item-divergent"), std::string::npos) << Msg;
}

//===----------------------------------------------------------------------===//
// Cost prior calibration and the cold-start placement payoff
//===----------------------------------------------------------------------===//

class ColdStartTest : public ::testing::Test {
protected:
  /// A deliberately lopsided fleet: a full K20m next to a cut-down
  /// 6-CU variant. Shared across tests (each driver compiles the whole
  /// suite, so construction is the expensive part).
  static cluster::Fleet &fleet() {
    static cluster::Fleet F = [] {
      cluster::Fleet Built;
      Built.addDevice(sim::DeviceSpec::nvidiaK20m());
      sim::DeviceSpec Slow = sim::DeviceSpec::nvidiaK20m();
      Slow.Name = "K20m-cut";
      Slow.NumCUs = 6;
      Built.addDevice(Slow);
      return Built;
    }();
    return F;
  }

  static size_t kernelIdx(const char *Id) {
    harness::ExperimentDriver &D = fleet().driver(0);
    for (size_t I = 0; I != D.numKernels(); ++I)
      if (D.kernel(I).Spec->Id == Id)
        return I;
    ADD_FAILURE() << "no suite kernel named " << Id;
    return 0;
  }

  static double p95(std::vector<double> V) {
    std::sort(V.begin(), V.end());
    size_t I = (V.size() * 95) / 100;
    return V[I >= V.size() ? V.size() - 1 : I];
  }
};

TEST_F(ColdStartTest, PriorSoloDurationWithin3xForEverySuiteKernel) {
  // The calibration contract of the whole cost model: on the K20m
  // model, the analysis-seeded solo duration lands within 3x of the
  // measured (simulated) solo duration for every suite kernel — before
  // that kernel has ever run.
  harness::ExperimentDriver &D = fleet().driver(0);
  for (size_t I = 0; I != D.numKernels(); ++I) {
    double Prior = D.priorSoloDuration(I);
    double Measured =
        D.isolatedDuration(harness::SchedulerKind::Baseline, I);
    ASSERT_GT(Measured, 0.0);
    double Ratio = Prior / Measured;
    EXPECT_GE(Ratio, 1.0 / 3.0) << D.kernel(I).Spec->Id;
    EXPECT_LE(Ratio, 3.0) << D.kernel(I).Spec->Id;
  }
}

TEST_F(ColdStartTest, StaticPriorIsMemoizedAndShaped) {
  const workloads::KernelSpec *Spec =
      fleet().driver(0).kernel(kernelIdx("sgemm")).Spec;
  const workloads::StaticPrior &A = workloads::staticCostPrior(*Spec);
  const workloads::StaticPrior &B = workloads::staticCostPrior(*Spec);
  EXPECT_EQ(&A, &B); // Memoized per spec.
  EXPECT_GT(A.PerItemCycles, 0.0);
  EXPECT_EQ(A.MeanWGCycles,
            A.PerItemCycles * static_cast<double>(Spec->WGSize));
  EXPECT_FALSE(A.UsedFallback); // Suite kernels have derivable trips.

  workloads::CostProfile P = workloads::staticPriorProfile(*Spec);
  EXPECT_EQ(P.MeanWGCycles, A.MeanWGCycles);
  EXPECT_EQ(P.Shape, workloads::CostShapeKind::Uniform);
}

TEST_F(ColdStartTest, PriorBeatsBlindPlacementOnFirstContactQueueing) {
  // Cold start: every request is the fleet's first contact with its
  // kernel. Four medium kernels back up the fast device, then a stream
  // of small kernels arrives. A prior-less (Blind) placement assumes
  // every kernel costs the device mean, which makes the idle slow
  // device look terrible for the small kernels — they pile onto the
  // busy fast device and queue. The static prior knows they are cheap
  // anywhere, so they overflow to the idle device and start clean.
  const char *Mediums[] = {"stencil", "histo_main",
                           "mri_gridding_binning",
                           "mri_gridding_splitSort"};
  const char *Smalls[] = {
      "mri_gridding_uniformAdd",     "mri_q_ComputePhiMag",
      "histo_final",                 "mri_gridding_scan_inter2",
      "mri_gridding_scan_inter1",    "mri_gridding_scan_L1",
      "histo_intermediates",         "histo_prescan",
      "sad_larger_sad_calc_16",      "sad_larger_sad_calc_8",
      "mri_gridding_splitRearrange", "mri_gridding_reorder"};

  double MeanFast = fleet().meanSoloDuration(0);
  std::vector<workloads::TimedRequest> Trace;
  int Tenant = 0;
  double Now = 0;
  for (const char *Id : Mediums) {
    workloads::TimedRequest R;
    R.Tenant = Tenant++ % 4;
    R.KernelIdx = kernelIdx(Id);
    R.ArrivalTime = Now;
    Now += 0.01 * MeanFast;
    Trace.push_back(R);
  }
  for (const char *Id : Smalls) {
    workloads::TimedRequest R;
    R.Tenant = Tenant++ % 4;
    R.KernelIdx = kernelIdx(Id);
    R.ArrivalTime = Now;
    Now += 0.05 * MeanFast;
    Trace.push_back(R);
  }

  harness::ClusterOptions Opts;
  Opts.Stream.RoundQuantum = 0.25 * fleet().meanSoloDurationAcrossFleet();

  auto p95QueueingFor = [&](harness::SoloEstimateKind Kind,
                            std::vector<size_t> &Placement) {
    Opts.SoloEstimate = Kind;
    auto P = cluster::makePlacementPolicy(
        cluster::PlacementKind::HeterogeneityAware);
    harness::ClusterOutcome O =
        harness::runClusterReplay(
            fleet(), *P, harness::ClusterWorkload::openLoop(Trace), Opts);
    Placement = O.Placement;
    std::vector<double> Q;
    for (const harness::StreamRequestResult &R : O.Stream.Requests)
      Q.push_back(R.queueingExcess());
    return p95(Q);
  };

  std::vector<size_t> BlindPlaced, PriorPlaced;
  double Blind =
      p95QueueingFor(harness::SoloEstimateKind::Blind, BlindPlaced);
  double Prior =
      p95QueueingFor(harness::SoloEstimateKind::StaticPrior, PriorPlaced);

  // The prior must actually change decisions, and must win the
  // first-contact p95 with real margin (observed ~35% better).
  EXPECT_NE(BlindPlaced, PriorPlaced);
  EXPECT_LT(Prior, 0.9 * Blind)
      << "prior p95 " << Prior << " vs blind p95 " << Blind;
}

TEST_F(ColdStartTest, ObservationsBlendTheEstimateTowardMeasurement) {
  // Replaying the SAME kernel repeatedly in StaticPrior mode must not
  // behave like the raw prior forever: completions feed service-span
  // observations back into the estimate. Indirect check: the replay
  // completes and places deterministically with blending enabled.
  std::vector<workloads::TimedRequest> Trace;
  double MeanFast = fleet().meanSoloDuration(0);
  for (int I = 0; I != 6; ++I) {
    workloads::TimedRequest R;
    R.Tenant = I % 2;
    R.KernelIdx = kernelIdx("mri_gridding_uniformAdd");
    R.ArrivalTime = 0.2 * MeanFast * I;
    Trace.push_back(R);
  }
  harness::ClusterOptions Opts;
  Opts.Stream.RoundQuantum = 0.25 * fleet().meanSoloDurationAcrossFleet();
  Opts.SoloEstimate = harness::SoloEstimateKind::StaticPrior;

  auto P = cluster::makePlacementPolicy(
      cluster::PlacementKind::HeterogeneityAware);
  harness::ClusterOutcome A =
      harness::runClusterReplay(
          fleet(), *P, harness::ClusterWorkload::openLoop(Trace), Opts);
  ASSERT_EQ(A.Stream.Requests.size(), Trace.size());
  harness::ClusterOutcome B =
      harness::runClusterReplay(
          fleet(), *P, harness::ClusterWorkload::openLoop(Trace), Opts);
  ASSERT_EQ(A.Placement, B.Placement); // Blending state resets per replay.
  for (size_t I = 0; I != Trace.size(); ++I)
    EXPECT_EQ(A.Stream.Requests[I].EndTime, B.Stream.Requests[I].EndTime);
}

} // namespace
