//===- tests/IntegrationTests.cpp - End-to-end shape tests --------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end assertions on the *shapes* the paper reports: fairness
/// improves dramatically under accelOS, overlap rises, EK sits in
/// between or below, and single-kernel overheads stay small. Absolute
/// values are not pinned (the device is a model), only orderings and
/// rough magnitudes.
///
//===----------------------------------------------------------------------===//

#include "harness/Streaming.h"
#include "metrics/Metrics.h"

#include "gtest/gtest.h"

using namespace accel;
using namespace accel::harness;

namespace {

size_t indexOf(const std::string &Id) {
  const auto &Suite = workloads::parboilSuite();
  for (size_t I = 0; I != Suite.size(); ++I)
    if (Suite[I].Id == Id)
      return I;
  return ~size_t(0);
}

class IntegrationNvidia : public ::testing::Test {
protected:
  static ExperimentDriver &driver() {
    static ExperimentDriver D(sim::DeviceSpec::nvidiaK20m());
    return D;
  }
};

TEST_F(IntegrationNvidia, MeanFairnessImprovesOverPairs) {
  // The paper's headline claim holds *on average* over workloads (a few
  // percent of individual workloads may regress, Fig. 10). Sample pairs
  // and compare mean unfairness.
  auto Pairs = workloads::randomCombinations(2, 24, 11);
  double BaseSum = 0, AOSSum = 0;
  for (const auto &W : Pairs) {
    BaseSum += runWorkload(driver(), SchedulerKind::Baseline, W).Unfairness;
    AOSSum +=
        runWorkload(driver(), SchedulerKind::AccelOSOptimized, W).Unfairness;
  }
  EXPECT_GT(BaseSum, 1.5 * AOSSum)
      << "mean fairness improvement below 1.5x";
}

TEST_F(IntegrationNvidia, MotivationWorkloadShape) {
  // The paper's Sec. 2.1 example set: bfs + cutcp + stencil + tpacf.
  // Under accelOS all four must co-execute; under the standard stack
  // they serialize.
  workloads::Workload W = {indexOf("bfs"), indexOf("cutcp"),
                           indexOf("stencil"), indexOf("tpacf")};
  auto Base = runWorkload(driver(), SchedulerKind::Baseline, W);
  auto AOS = runWorkload(driver(), SchedulerKind::AccelOSOptimized, W);
  EXPECT_LT(Base.Overlap, 0.2);
  // All four must genuinely co-execute; the all-K overlap window is
  // bounded by the duration ratio of the shortest to longest kernel.
  EXPECT_GT(AOS.Overlap, 2.0 * Base.Overlap + 0.1);
}

TEST_F(IntegrationNvidia, BaselineSerializesAccelOSOverlaps) {
  workloads::Workload W = {indexOf("lbm"), indexOf("sgemm")};
  auto Base = runWorkload(driver(), SchedulerKind::Baseline, W);
  auto AOS = runWorkload(driver(), SchedulerKind::AccelOSOptimized, W);
  EXPECT_LT(Base.Overlap, 0.5);
  EXPECT_GT(AOS.Overlap, 0.7);
}

TEST_F(IntegrationNvidia, UnfairnessGrowsWithRequestCount) {
  workloads::Workload W2 = {indexOf("cutcp"), indexOf("tpacf")};
  workloads::Workload W4 = {indexOf("cutcp"), indexOf("tpacf"),
                            indexOf("bfs"), indexOf("spmv")};
  workloads::Workload W8 = {indexOf("cutcp"), indexOf("tpacf"),
                            indexOf("bfs"), indexOf("spmv"),
                            indexOf("lbm"), indexOf("sgemm"),
                            indexOf("stencil"), indexOf("histo_main")};
  double U2 = runWorkload(driver(), SchedulerKind::Baseline, W2).Unfairness;
  double U4 = runWorkload(driver(), SchedulerKind::Baseline, W4).Unfairness;
  double U8 = runWorkload(driver(), SchedulerKind::Baseline, W8).Unfairness;
  EXPECT_LT(U2, U4);
  EXPECT_LT(U4, U8);

  // accelOS keeps unfairness bounded as the paper reports (1.2-3.5).
  double A8 =
      runWorkload(driver(), SchedulerKind::AccelOSOptimized, W8).Unfairness;
  EXPECT_LT(A8, U8 / 1.5);
}

TEST_F(IntegrationNvidia, AccelOSBeatsElasticKernelsAtScale) {
  // EK's static allocation degrades as requests grow (paper Sec. 8.1);
  // at 8 requests accelOS is clearly fairer on average.
  auto Octets = workloads::randomCombinations(8, 10, 21);
  double EKSum = 0, AOSSum = 0;
  for (const auto &W : Octets) {
    EKSum +=
        runWorkload(driver(), SchedulerKind::ElasticKernels, W).Unfairness;
    AOSSum +=
        runWorkload(driver(), SchedulerKind::AccelOSOptimized, W).Unfairness;
  }
  EXPECT_LT(AOSSum, EKSum);
}

TEST_F(IntegrationNvidia, SingleKernelOverheadSmall) {
  // Paper Fig. 15: optimized accelOS is within a few percent of (and on
  // average better than) the standard stack for isolated kernels.
  for (const char *Id : {"sgemm", "lbm", "spmv", "tpacf", "bfs"}) {
    size_t Idx = indexOf(Id);
    double Base = driver().isolatedDuration(SchedulerKind::Baseline, Idx);
    double Opt =
        driver().isolatedDuration(SchedulerKind::AccelOSOptimized, Idx);
    double Naive =
        driver().isolatedDuration(SchedulerKind::AccelOSNaive, Idx);
    EXPECT_LT(Opt, Base * 1.10) << Id;
    EXPECT_LT(Naive, Base * 1.15) << Id;
    // Optimized batching never loses to naive by much.
    EXPECT_LT(Opt, Naive * 1.05) << Id;
  }
}

TEST_F(IntegrationNvidia, SlowdownsAreAtLeastOneIsh) {
  workloads::Workload W = {indexOf("cutcp"), indexOf("sgemm")};
  auto AOS = runWorkload(driver(), SchedulerKind::AccelOSOptimized, W);
  for (double S : AOS.Slowdowns)
    EXPECT_GT(S, 0.5);
}

TEST(IntegrationAmd, ExclusiveAdmissionSerializesBaseline) {
  ExperimentDriver D(sim::DeviceSpec::amdR9295X2());
  workloads::Workload W = {indexOf("lbm"), indexOf("sgemm")};
  auto Base = runWorkload(D, SchedulerKind::Baseline, W);
  auto AOS = runWorkload(D, SchedulerKind::AccelOSOptimized, W);
  // AMD-like baseline: almost no overlap (paper Fig. 12b: 4%).
  EXPECT_LT(Base.Overlap, 0.1);
  EXPECT_GT(AOS.Overlap, 0.6);
}

TEST(IntegrationAmd, MeanFairnessImprovesForEightRequests) {
  ExperimentDriver D(sim::DeviceSpec::amdR9295X2());
  auto Combos = workloads::randomCombinations(8, 8, 123);
  double BaseSum = 0, AOSSum = 0;
  for (const auto &W : Combos) {
    BaseSum += runWorkload(D, SchedulerKind::Baseline, W).Unfairness;
    AOSSum += runWorkload(D, SchedulerKind::AccelOSOptimized, W).Unfairness;
  }
  EXPECT_LT(AOSSum, BaseSum);
}

} // namespace
