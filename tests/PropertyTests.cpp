//===- tests/PropertyTests.cpp - Cross-module invariant sweeps ----------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized property suites over the system's core invariants:
/// the solver never oversubscribes any resource for any request count;
/// the timing engine conserves work (makespan is never shorter than
/// total work at peak device throughput); metrics identities hold on
/// random slowdown vectors; and the scheduling transform preserves
/// kernel semantics for every suite kernel that is cheap enough to
/// execute functionally.
///
//===----------------------------------------------------------------------===//

#include "accelos/ResourceSolver.h"
#include "harness/Experiment.h"
#include "metrics/Metrics.h"
#include "sim/Engine.h"
#include "support/Random.h"

#include "gtest/gtest.h"

using namespace accel;

namespace {

//===----------------------------------------------------------------------===//
// Solver properties over request counts and random demand mixes
//===----------------------------------------------------------------------===//

class SolverProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(SolverProperty, NeverOversubscribesAnyResource) {
  size_t K = GetParam();
  SplitMix64 Rng(K * 7919);
  accelos::ResourceCaps Caps =
      accelos::ResourceCaps::fromDevice(sim::DeviceSpec::nvidiaK20m());

  for (int Trial = 0; Trial < 20; ++Trial) {
    std::vector<accelos::KernelDemand> Ds;
    for (size_t I = 0; I != K; ++I) {
      accelos::KernelDemand D;
      D.WGThreads = 32ull << Rng.nextBelow(4); // 32..256
      D.LocalMemPerWG = Rng.nextBelow(3) * 8192;
      D.RegsPerThread = 8 + Rng.nextBelow(56);
      D.RequestedWGs = 1 + Rng.nextBelow(2048);
      Ds.push_back(D);
    }
    auto Shares = accelos::solveFairShares(Caps, Ds);

    uint64_t Threads = 0, Local = 0, Regs = 0, Slots = 0;
    for (size_t I = 0; I != K; ++I) {
      // The minimum-share floor only yields when kernels cannot
      // physically co-exist; in this parameter range they always can.
      ASSERT_GE(Shares[I], 1u) << "kernel starved";
      ASSERT_LE(Shares[I], Ds[I].RequestedWGs) << "over-allocated";
      Threads += Shares[I] * Ds[I].WGThreads;
      Local += Shares[I] * Ds[I].LocalMemPerWG;
      Regs += Shares[I] * Ds[I].WGThreads * Ds[I].RegsPerThread;
      Slots += Shares[I];
    }
    // The caps hold unconditionally: the solver clamps the
    // minimum-share floor rather than oversubscribe the device.
    EXPECT_LE(Threads, Caps.Threads);
    EXPECT_LE(Local, Caps.LocalMem);
    EXPECT_LE(Regs, Caps.Regs);
    EXPECT_LE(Slots, Caps.WGSlots);
  }
}

TEST_P(SolverProperty, GreedyNeverShrinksShares) {
  size_t K = GetParam();
  SplitMix64 Rng(K * 104729);
  accelos::ResourceCaps Caps =
      accelos::ResourceCaps::fromDevice(sim::DeviceSpec::amdR9295X2());
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<accelos::KernelDemand> Ds;
    for (size_t I = 0; I != K; ++I) {
      accelos::KernelDemand D;
      D.WGThreads = 64ull << Rng.nextBelow(3);
      D.RegsPerThread = 16;
      D.RequestedWGs = 1 + Rng.nextBelow(512);
      Ds.push_back(D);
    }
    accelos::SolverOptions NoGreedy;
    NoGreedy.GreedySaturation = false;
    auto Conservative = accelos::solveFairShares(Caps, Ds, NoGreedy);
    auto Greedy = accelos::solveFairShares(Caps, Ds);
    for (size_t I = 0; I != K; ++I)
      EXPECT_GE(Greedy[I], Conservative[I]);
  }
}

INSTANTIATE_TEST_SUITE_P(RequestCounts, SolverProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

//===----------------------------------------------------------------------===//
// Engine properties
//===----------------------------------------------------------------------===//

class EngineProperty : public ::testing::TestWithParam<int> {};

TEST_P(EngineProperty, WorkConservation) {
  // Makespan can never beat total-work / peak-device-throughput, and a
  // single launch can never beat its own critical path.
  SplitMix64 Rng(GetParam() * 31337);
  sim::DeviceSpec D = sim::DeviceSpec::nvidiaK20m();
  D.WGDispatchCycles = 0;
  D.DequeueCycles = 0;

  std::vector<sim::KernelLaunchDesc> Launches;
  double TotalWork = 0;
  int NumKernels = 1 + GetParam() % 4;
  for (int I = 0; I < NumKernels; ++I) {
    sim::KernelLaunchDesc L;
    L.AppId = I;
    L.WGThreads = 64ull << Rng.nextBelow(3);
    L.RegsPerThread = 8;
    L.IssueEfficiency = 0.2 + 0.8 * Rng.nextDouble();
    L.Mode = sim::KernelLaunchDesc::ModeKind::Static;
    size_t WGs = 1 + Rng.nextBelow(128);
    for (size_t W = 0; W != WGs; ++W)
      L.StaticCosts.push_back(1000.0 + Rng.nextDouble() * 50000.0);
    TotalWork += L.totalWork();
    Launches.push_back(std::move(L));
  }

  sim::Engine E(D);
  sim::SimResult R = E.run(Launches);
  double PeakRate =
      static_cast<double>(D.NumCUs) * static_cast<double>(D.LanesPerCU);
  EXPECT_GE(R.Makespan * PeakRate, TotalWork * 0.999);
  for (const auto &K : R.Kernels) {
    EXPECT_GT(K.EndTime, 0.0);
    EXPECT_GE(K.EndTime, K.StartTime);
  }
}

TEST_P(EngineProperty, WorkQueueAndStaticAgreeOnTotalWGs) {
  SplitMix64 Rng(GetParam() * 54323);
  sim::DeviceSpec D = sim::DeviceSpec::nvidiaK20m();
  size_t Groups = 16 + Rng.nextBelow(256);
  std::vector<double> Costs;
  for (size_t I = 0; I != Groups; ++I)
    Costs.push_back(500.0 + Rng.nextDouble() * 20000.0);

  sim::KernelLaunchDesc L;
  L.WGThreads = 128;
  L.RegsPerThread = 8;
  L.IssueEfficiency = 0.5;
  L.Mode = sim::KernelLaunchDesc::ModeKind::WorkQueue;
  L.VirtualCosts = Costs;
  L.PhysicalWGs = 1 + Rng.nextBelow(32);
  L.Batch = 1 + Rng.nextBelow(8);

  sim::Engine E(D);
  sim::SimResult R = E.run({L});
  // Every virtual group is dequeued exactly once: the number of dequeue
  // operations covers the whole queue.
  uint64_t MinDequeues = (Groups + L.Batch - 1) / L.Batch;
  EXPECT_GE(R.Kernels[0].DequeueOps, MinDequeues);
  EXPECT_EQ(R.Kernels[0].DispatchedWGs, L.PhysicalWGs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Range(1, 11));

//===----------------------------------------------------------------------===//
// Engine properties under randomized arrival traces
//===----------------------------------------------------------------------===//

namespace {

/// A randomized mixed-mode launch set with arrivals in [0, Spread).
std::vector<sim::KernelLaunchDesc> randomArrivalLaunches(SplitMix64 &Rng,
                                                         double Spread) {
  std::vector<sim::KernelLaunchDesc> Launches;
  size_t N = 2 + Rng.nextBelow(5);
  for (size_t I = 0; I != N; ++I) {
    sim::KernelLaunchDesc L;
    L.AppId = static_cast<int>(I);
    L.WGThreads = 32ull << Rng.nextBelow(4);
    L.RegsPerThread = 8;
    L.IssueEfficiency = 0.25 + 0.75 * Rng.nextDouble();
    L.ArrivalTime = Rng.nextDouble() * Spread;
    size_t WGs = 1 + Rng.nextBelow(64);
    if (Rng.nextBelow(2) == 0) {
      L.Mode = sim::KernelLaunchDesc::ModeKind::Static;
      for (size_t W = 0; W != WGs; ++W)
        L.StaticCosts.push_back(500.0 + Rng.nextDouble() * 40000.0);
    } else {
      L.Mode = sim::KernelLaunchDesc::ModeKind::WorkQueue;
      for (size_t W = 0; W != WGs; ++W)
        L.VirtualCosts.push_back(500.0 + Rng.nextDouble() * 40000.0);
      L.PhysicalWGs = 1 + Rng.nextBelow(8);
      L.Batch = 1 + Rng.nextBelow(4);
    }
    Launches.push_back(std::move(L));
  }
  return Launches;
}

} // namespace

class ArrivalProperty : public ::testing::TestWithParam<int> {};

TEST_P(ArrivalProperty, NeverStartsBeforeArrivalAndConservesWork) {
  SplitMix64 Rng(GetParam() * 7129);
  sim::DeviceSpec D = sim::DeviceSpec::nvidiaK20m();
  D.WGDispatchCycles = 0;
  D.DequeueCycles = 0;

  std::vector<sim::KernelLaunchDesc> Launches =
      randomArrivalLaunches(Rng, /*Spread=*/50000.0);
  double TotalWork = 0, FirstArrival = Launches[0].ArrivalTime;
  for (const auto &L : Launches) {
    TotalWork += L.totalWork();
    FirstArrival = std::min(FirstArrival, L.ArrivalTime);
  }

  sim::Engine E(D);
  sim::SimResult R = E.run(Launches);
  double PeakRate =
      static_cast<double>(D.NumCUs) * static_cast<double>(D.LanesPerCU);
  // Work conservation: no work can retire before the first arrival or
  // faster than the whole device at peak rate.
  EXPECT_GE((R.Makespan - FirstArrival) * PeakRate, TotalWork * 0.999);
  for (const sim::KernelExecResult &K : R.Kernels) {
    EXPECT_GE(K.StartTime, K.ArrivalTime - 1e-9)
        << "launch " << K.AppId << " started before it arrived";
    EXPECT_GE(K.EndTime, K.StartTime);
    EXPECT_GE(K.turnaround(), 0.0);
    EXPECT_GE(K.queueDelay(), -1e-9);
  }
}

TEST_P(ArrivalProperty, TimeShiftInvariance) {
  // Shifting every arrival by a constant shifts every start/end by the
  // same constant: the engine has no hidden absolute-time behaviour.
  SplitMix64 Rng(GetParam() * 40493);
  sim::DeviceSpec D = sim::DeviceSpec::nvidiaK20m();
  std::vector<sim::KernelLaunchDesc> Launches =
      randomArrivalLaunches(Rng, /*Spread=*/20000.0);

  sim::Engine E(D);
  sim::SimResult Base = E.run(Launches);
  constexpr double Shift = 12345.0;
  for (sim::KernelLaunchDesc &L : Launches)
    L.ArrivalTime += Shift;
  sim::SimResult Shifted = E.run(Launches);

  ASSERT_EQ(Base.Kernels.size(), Shifted.Kernels.size());
  for (size_t I = 0; I != Base.Kernels.size(); ++I) {
    double Tol = 1e-2 * (1.0 + Base.Kernels[I].EndTime);
    EXPECT_NEAR(Shifted.Kernels[I].StartTime,
                Base.Kernels[I].StartTime + Shift, Tol);
    EXPECT_NEAR(Shifted.Kernels[I].EndTime,
                Base.Kernels[I].EndTime + Shift, Tol);
  }
}

TEST_P(ArrivalProperty, WidelySpacedArrivalsRunInIsolation) {
  // Arrivals spaced far beyond every duration never interfere: each
  // launch's duration equals its solo duration.
  SplitMix64 Rng(GetParam() * 65537);
  sim::DeviceSpec D = sim::DeviceSpec::nvidiaK20m();
  std::vector<sim::KernelLaunchDesc> Launches =
      randomArrivalLaunches(Rng, /*Spread=*/0.0);
  sim::Engine E(D);

  std::vector<double> Solo;
  double SumSolo = 0;
  for (const auto &L : Launches) {
    Solo.push_back(E.run({L}).Kernels[0].duration());
    SumSolo += Solo.back();
  }

  // A gap longer than all work combined guarantees no overlap; staying
  // within a few sums keeps absolute times small enough that the
  // engine's time-domain completion epsilon is negligible.
  double Gap = 2.0 * SumSolo + 1.0;
  for (size_t I = 0; I != Launches.size(); ++I)
    Launches[I].ArrivalTime = static_cast<double>(I) * Gap;
  sim::SimResult R = E.run(Launches);
  for (size_t I = 0; I != Launches.size(); ++I)
    EXPECT_NEAR(R.Kernels[I].duration(), Solo[I],
                1e-2 * (1.0 + Solo[I]))
        << "launch " << I << " was interfered with";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrivalProperty,
                         ::testing::Range(1, 11));

//===----------------------------------------------------------------------===//
// Metric identities on random slowdown vectors
//===----------------------------------------------------------------------===//

class MetricsProperty : public ::testing::TestWithParam<int> {};

TEST_P(MetricsProperty, Identities) {
  SplitMix64 Rng(GetParam() * 2654435761u);
  size_t N = 1 + Rng.nextBelow(16);
  std::vector<double> IS;
  for (size_t I = 0; I != N; ++I)
    IS.push_back(1.0 + 50.0 * Rng.nextDouble());

  double U = metrics::systemUnfairness(IS);
  EXPECT_GE(U, 1.0);

  double Antt = metrics::averageNormalizedTurnaround(IS);
  double Worst = metrics::worstNormalizedTurnaround(IS);
  EXPECT_LE(Antt, Worst + 1e-12);
  EXPECT_GE(Antt, 1.0);

  // STP is bounded by the number of kernels (perfect progress) and is
  // positive.
  double Stp = metrics::systemThroughput(IS);
  EXPECT_GT(Stp, 0.0);
  EXPECT_LE(Stp, static_cast<double>(N));

  // Scaling all slowdowns leaves unfairness untouched.
  std::vector<double> Scaled = IS;
  for (double &S : Scaled)
    S *= 3.0;
  EXPECT_NEAR(metrics::systemUnfairness(Scaled), U, 1e-9);
}

TEST_P(MetricsProperty, OverlapBounds) {
  SplitMix64 Rng(GetParam() * 97);
  std::vector<metrics::Interval> Is;
  size_t N = 2 + Rng.nextBelow(6);
  for (size_t I = 0; I != N; ++I) {
    double S = Rng.nextDouble() * 100.0;
    Is.push_back({S, S + 1.0 + Rng.nextDouble() * 100.0});
  }
  double O = metrics::executionOverlap(Is);
  EXPECT_GE(O, 0.0);
  EXPECT_LE(O, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsProperty,
                         ::testing::Range(1, 13));

} // namespace
