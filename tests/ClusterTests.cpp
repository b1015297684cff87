//===- tests/ClusterTests.cpp - Fleet scheduling tests -----------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Properties of the cluster layer: the lifecycle-aware placement
/// policies (load views maintained through admit/complete/withdraw
/// notifications, alive-mask handling, migration suggestions), the
/// determinism contract (same trace + fleet + policy + fault plan =>
/// bit-identical outcomes, migrations and failures included), the
/// single-device degeneration (a one-device fleet placed through a real
/// policy replays runStream/runClosedLoop bit-for-bit), committed
/// golden fixtures pinning fault-free fleet replays and the one-device
/// replays behind runStream/runClosedLoop byte-for-byte, and the
/// resilience machinery: deterministic fault replay, no-lost-requests
/// while capacity remains (continuous and stride admission), work
/// conservation across migration and failover, elastic scale-up,
/// retry-budget exhaustion, and closed-loop scripts draining through
/// faults.
///
//===----------------------------------------------------------------------===//

#include "cluster/ClusterHarness.h"
#include "cluster/Fleet.h"
#include "metrics/Metrics.h"
#include "workloads/Arrivals.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>

using namespace accel;
using namespace accel::cluster;
using harness::ClusterOptions;
using harness::ClusterOutcome;
using harness::ClusterWorkload;
using harness::FleetEvent;
using harness::SchedulerKind;
using harness::StreamOptions;
using harness::StreamOutcome;
using harness::StreamRequestResult;

namespace {

//===----------------------------------------------------------------------===//
// Lifecycle-aware placement policies
//===----------------------------------------------------------------------===//

TEST(PlacementPolicyTest, RoundRobinCyclesResetsAndSkipsDeadDevices) {
  auto P = makePlacementPolicy(PlacementKind::RoundRobin);
  P->attach({1, 1, 1});
  PlacementRequest R;
  EXPECT_EQ(P->place(R), 0u);
  EXPECT_EQ(P->place(R), 1u);
  EXPECT_EQ(P->place(R), 2u);
  EXPECT_EQ(P->place(R), 0u);
  // attach() rewinds the rotation — what makes a reused policy object
  // replay deterministically.
  P->attach({1, 1, 1});
  EXPECT_EQ(P->place(R), 0u);
  // A dead device drops out of the rotation and rejoins where the
  // cursor finds it.
  P->deviceDown(1);
  EXPECT_EQ(P->place(R), 2u);
  EXPECT_EQ(P->place(R), 0u);
  P->deviceUp(1);
  EXPECT_EQ(P->place(R), 1u);
}

TEST(PlacementPolicyTest, LeastLoadedPicksSmallestResidualWork) {
  auto P = makePlacementPolicy(PlacementKind::LeastLoaded);
  P->attach({1, 1, 1});
  P->admitTo(0, 500);
  P->admitTo(1, 200);
  P->admitTo(2, 800);
  PlacementRequest R;
  EXPECT_EQ(P->place(R), 1u);
  // Ties go to the lowest index (determinism).
  P->completeOn(2, 600, /*Finished=*/false);
  EXPECT_EQ(P->place(R), 1u);
  // A dead device cannot win no matter how empty it is.
  P->deviceDown(1);
  EXPECT_EQ(P->place(R), 2u);
  P->deviceUp(1);
  // Speed-blind by design: a faster device does not win on rate alone.
  P->attach({100, 1, 1});
  P->admitTo(0, 500);
  P->admitTo(1, 200);
  P->admitTo(2, 200);
  EXPECT_EQ(P->place(R), 1u);
}

TEST(PlacementPolicyTest, HeterogeneityAwareNormalizesByThroughput) {
  auto P = makePlacementPolicy(PlacementKind::HeterogeneityAware);
  // Device 0 has twice the backlog but four times the service rate:
  // its expected completion (1000/4 + 10 = 260) beats device 1's
  // (500/1 + 10 = 510). Least-loaded would have picked device 1.
  P->attach({4, 1});
  P->admitTo(0, 1000);
  P->admitTo(1, 500);
  std::vector<double> Solo = {10, 10};
  PlacementRequest R;
  R.SoloDurations = &Solo;
  EXPECT_EQ(P->place(R), 0u);
  auto LL = makePlacementPolicy(PlacementKind::LeastLoaded);
  LL->attach({4, 1});
  LL->admitTo(0, 1000);
  LL->admitTo(1, 500);
  EXPECT_EQ(LL->place(R), 1u);
  // The request's own solo duration on the device matters too: with
  // equal backlogs, the device that runs THIS kernel faster wins.
  P->attach({1, 1});
  P->admitTo(0, 100);
  P->admitTo(1, 100);
  Solo = {50, 20};
  EXPECT_EQ(P->place(R), 1u);
}

TEST(PlacementPolicyTest, LifecycleNotificationsMaintainLoadView) {
  // The load view is owned by the policy base and updated purely
  // through the lifecycle notifications — the harness never mirrors it.
  auto P = makePlacementPolicy(PlacementKind::LeastLoaded);
  P->attach({2, 1});
  const std::vector<DeviceLoad> &L = P->loads();
  ASSERT_EQ(L.size(), 2u);
  EXPECT_EQ(L[0].ServiceRate, 2.0);
  EXPECT_TRUE(L[0].Alive);
  P->admitTo(0, 300);
  EXPECT_EQ(L[0].OutstandingCost, 300.0);
  EXPECT_EQ(L[0].OutstandingRequests, 1u);
  // A mid-request slice completion drains cost but keeps the request.
  P->completeOn(0, 120, /*Finished=*/false);
  EXPECT_EQ(L[0].OutstandingCost, 180.0);
  EXPECT_EQ(L[0].OutstandingRequests, 1u);
  P->completeOn(0, 180, /*Finished=*/true);
  EXPECT_EQ(L[0].OutstandingCost, 0.0);
  EXPECT_EQ(L[0].OutstandingRequests, 0u);
  // A withdrawal (failure displacement) removes request and cost.
  P->admitTo(1, 50);
  P->withdrawFrom(1, 50);
  EXPECT_EQ(L[1].OutstandingCost, 0.0);
  EXPECT_EQ(L[1].OutstandingRequests, 0u);
  P->deviceDown(1);
  EXPECT_FALSE(L[1].Alive);
  P->deviceUp(1);
  EXPECT_TRUE(L[1].Alive);
  // attach() with an explicit alive mask seeds elastic fleets.
  P->attach({1, 1}, {true, false});
  EXPECT_TRUE(P->loads()[0].Alive);
  EXPECT_FALSE(P->loads()[1].Alive);
}

TEST(PlacementPolicyTest, SuggestMigrationPointsAtTheBestDevice) {
  auto P = makePlacementPolicy(PlacementKind::LeastLoaded);
  P->attach({1, 1, 1});
  P->admitTo(0, 900);
  P->admitTo(1, 100);
  PlacementRequest R;
  std::optional<size_t> To = P->suggestMigration(R, 0);
  ASSERT_TRUE(To.has_value());
  EXPECT_EQ(*To, 2u);
  // Already on the best device: stay put.
  EXPECT_EQ(P->suggestMigration(R, 2), std::nullopt);
  // Round-robin declines to migrate (its rotation is placement state,
  // not a load estimate).
  auto RR = makePlacementPolicy(PlacementKind::RoundRobin);
  RR->attach({1, 1, 1});
  EXPECT_EQ(RR->suggestMigration(R, 0), std::nullopt);
}

TEST(PlacementPolicyTest, NamesAreStable) {
  for (PlacementKind K :
       {PlacementKind::RoundRobin, PlacementKind::LeastLoaded,
        PlacementKind::HeterogeneityAware}) {
    auto P = makePlacementPolicy(K);
    EXPECT_STREQ(P->name(), placementName(K));
  }
}

//===----------------------------------------------------------------------===//
// Cluster replay over a real mixed fleet
//===----------------------------------------------------------------------===//

class ClusterTest : public ::testing::Test {
protected:
  /// One K20m + one AMD device, shared across tests (drivers compile
  /// the whole suite, so construction is the expensive part).
  static Fleet &fleet() {
    static Fleet F = [] {
      Fleet Built;
      Built.addDevice(sim::DeviceSpec::nvidiaK20m());
      Built.addDevice(sim::DeviceSpec::amdR9295X2());
      return Built;
    }();
    return F;
  }

  static double meanDur() {
    static double D = fleet().meanSoloDurationAcrossFleet();
    return D;
  }

  static std::vector<workloads::TimedRequest> poisson(size_t N,
                                                      uint64_t Seed) {
    workloads::TraceOptions TOpts;
    TOpts.NumRequests = N;
    TOpts.NumTenants = 4;
    TOpts.MeanInterarrival = 0.5 * meanDur();
    TOpts.Seed = Seed;
    return workloads::poissonTrace(fleet().driver(0).numKernels(),
                                   TOpts);
  }

  static ClusterOptions options() {
    ClusterOptions Opts;
    Opts.Stream.RoundQuantum = 0.25 * meanDur();
    return Opts;
  }

  static void expectIdentical(const ClusterOutcome &A,
                              const ClusterOutcome &B) {
    ASSERT_EQ(A.Placement.size(), B.Placement.size());
    for (size_t I = 0; I != A.Placement.size(); ++I)
      EXPECT_EQ(A.Placement[I], B.Placement[I]) << "request " << I;
    ASSERT_EQ(A.Stream.Requests.size(), B.Stream.Requests.size());
    for (size_t I = 0; I != A.Stream.Requests.size(); ++I) {
      EXPECT_EQ(A.Stream.Requests[I].ArrivalTime,
                B.Stream.Requests[I].ArrivalTime) << "request " << I;
      EXPECT_EQ(A.Stream.Requests[I].StartTime,
                B.Stream.Requests[I].StartTime) << "request " << I;
      EXPECT_EQ(A.Stream.Requests[I].EndTime,
                B.Stream.Requests[I].EndTime) << "request " << I;
    }
    EXPECT_EQ(A.Stream.Makespan, B.Stream.Makespan);
    EXPECT_EQ(A.Stream.Unfairness, B.Stream.Unfairness);
    ASSERT_EQ(A.Devices.size(), B.Devices.size());
    for (size_t D = 0; D != A.Devices.size(); ++D) {
      EXPECT_EQ(A.Devices[D].Requests, B.Devices[D].Requests);
      EXPECT_EQ(A.Devices[D].BusyTime, B.Devices[D].BusyTime);
      EXPECT_EQ(A.Devices[D].Rounds, B.Devices[D].Rounds);
      EXPECT_EQ(A.Devices[D].Deferrals, B.Devices[D].Deferrals);
    }
    // Resilience bookkeeping replays bit-identically too.
    EXPECT_EQ(A.Retries, B.Retries);
    EXPECT_EQ(A.LostRequests, B.LostRequests);
    EXPECT_EQ(A.RequestedWGs, B.RequestedWGs);
    EXPECT_EQ(A.ExecutedWGs, B.ExecutedWGs);
    ASSERT_EQ(A.Faults.size(), B.Faults.size());
    for (size_t F = 0; F != A.Faults.size(); ++F) {
      EXPECT_EQ(A.Faults[F].Device, B.Faults[F].Device);
      EXPECT_EQ(A.Faults[F].DownTime, B.Faults[F].DownTime);
      EXPECT_EQ(A.Faults[F].Displaced, B.Faults[F].Displaced);
      EXPECT_EQ(A.Faults[F].Lost, B.Faults[F].Lost);
      EXPECT_EQ(A.Faults[F].RecoveryTime, B.Faults[F].RecoveryTime);
    }
    ASSERT_EQ(A.Migrations.size(), B.Migrations.size());
    for (size_t M = 0; M != A.Migrations.size(); ++M) {
      EXPECT_EQ(A.Migrations[M].RequestIdx, B.Migrations[M].RequestIdx);
      EXPECT_EQ(A.Migrations[M].From, B.Migrations[M].From);
      EXPECT_EQ(A.Migrations[M].To, B.Migrations[M].To);
      EXPECT_EQ(A.Migrations[M].Time, B.Migrations[M].Time);
      EXPECT_EQ(A.Migrations[M].RemainingWGs,
                B.Migrations[M].RemainingWGs);
      EXPECT_EQ(A.Migrations[M].Failover, B.Migrations[M].Failover);
    }
  }
};

TEST_F(ClusterTest, CompletesEverythingOnMixedFleet) {
  std::vector<workloads::TimedRequest> Trace = poisson(24, 42);
  for (PlacementKind K :
       {PlacementKind::RoundRobin, PlacementKind::LeastLoaded,
        PlacementKind::HeterogeneityAware}) {
    auto P = makePlacementPolicy(K);
    ClusterOutcome O =
        harness::runClusterReplay(
            fleet(), *P, ClusterWorkload::openLoop(Trace), options());
    ASSERT_EQ(O.Stream.Requests.size(), Trace.size()) << P->name();
    ASSERT_EQ(O.Placement.size(), Trace.size()) << P->name();
    EXPECT_TRUE(O.LostRequests.empty()) << P->name();
    EXPECT_EQ(O.RequestedWGs, O.ExecutedWGs) << P->name();
    size_t PerDevice = 0;
    for (const harness::ClusterDeviceOutcome &D : O.Devices) {
      PerDevice += D.Requests;
      EXPECT_GE(D.Utilization, 0.0);
      EXPECT_LE(D.Utilization, 1.0 + 1e-9);
    }
    EXPECT_EQ(PerDevice, Trace.size()) << P->name();
    for (const StreamRequestResult &R : O.Stream.Requests) {
      EXPECT_GE(R.StartTime, R.ArrivalTime - 1e-9)
          << P->name() << " request " << R.RequestIdx
          << " started before it arrived";
      EXPECT_GE(R.EndTime, R.StartTime);
      EXPECT_GT(R.AloneDuration, 0.0);
    }
    for (double S : O.Stream.Slowdowns)
      EXPECT_GT(S, 0.0);
  }
}

TEST_F(ClusterTest, SameInputsAreBitIdentical) {
  // The cluster determinism contract: same trace + fleet + policy =>
  // bit-identical per-device histories and placement decisions, even
  // when the same policy OBJECT is reused (attach() rewinds it).
  std::vector<workloads::TimedRequest> Trace = poisson(20, 7);
  for (PlacementKind K :
       {PlacementKind::RoundRobin, PlacementKind::LeastLoaded,
        PlacementKind::HeterogeneityAware}) {
    auto P = makePlacementPolicy(K);
    ClusterOutcome A = harness::runClusterReplay(
        fleet(), *P, ClusterWorkload::openLoop(Trace), options());
    ClusterOutcome B = harness::runClusterReplay(
        fleet(), *P, ClusterWorkload::openLoop(Trace), options());
    SCOPED_TRACE(P->name());
    expectIdentical(A, B);
  }
}

TEST_F(ClusterTest, FaultFreeReplayMatchesPreRedesignGolden) {
  // The api_redesign pin: the lifecycle-aware policy interface must be
  // behaviorally invisible on fault-free traces. The fixture was
  // emitted by the pre-redesign harness (snapshot-based place(),
  // duplicated open/closed-loop loops) with hexfloat formatting, so
  // every placement, timestamp, busy time, and scheduler counter is
  // compared to the old implementation bit-for-bit.
  std::string Got;
  char Buf[512];
  auto Add = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    Got += Buf;
  };
  auto Emit = [&](const char *Scenario, const ClusterOutcome &O) {
    Add("scenario %s\n", Scenario);
    Add("placements %zu", O.Placement.size());
    for (size_t D : O.Placement)
      Add(" %zu", D);
    Got += "\n";
    for (size_t I = 0; I != O.Stream.Requests.size(); ++I) {
      const StreamRequestResult &R = O.Stream.Requests[I];
      Add("request %zu %a %a %a\n", I, R.ArrivalTime, R.StartTime,
          R.EndTime);
    }
    for (size_t D = 0; D != O.Devices.size(); ++D) {
      const harness::ClusterDeviceOutcome &DO = O.Devices[D];
      Add("device %zu %zu %zu %llu %a\n", D, DO.Requests, DO.Rounds,
          static_cast<unsigned long long>(DO.Deferrals), DO.BusyTime);
    }
    Add("makespan %a\nunfairness %a\n", O.Stream.Makespan,
        O.Stream.Unfairness);
  };

  // Exactly the generator's configuration (tests/golden/ provenance).
  std::vector<workloads::TimedRequest> Trace = poisson(24, 9001);
  for (PlacementKind K :
       {PlacementKind::RoundRobin, PlacementKind::LeastLoaded,
        PlacementKind::HeterogeneityAware}) {
    auto P = makePlacementPolicy(K);
    ClusterOutcome O =
        harness::runClusterReplay(
            fleet(), *P, ClusterWorkload::openLoop(Trace), options());
    Emit(placementName(K), O);
  }
  std::vector<workloads::ClosedLoopTenant> Tenants(3);
  Tenants[0] = {0, 8, 1, 0.25 * meanDur(), 51, {0, 1, 2, 3}};
  Tenants[1] = {1, 8, 3, 0.05 * meanDur(), 52, {}};
  Tenants[2] = {2, 6, 2, 0.50 * meanDur(), 53, {}};
  workloads::ClosedLoopScript Script = workloads::closedLoopTrace(
      fleet().driver(0).numKernels(), Tenants);
  ClusterOptions COpts = options();
  COpts.Stream.StrictShares = true;
  COpts.Stream.SloTargets = {{0, 0.5 * meanDur()}};
  COpts.Stream.AdaptiveSloWeights = true;
  COpts.Stream.SloControlInterval = meanDur();
  COpts.Stream.SloTuning.MinSamples = 1;
  auto P = makePlacementPolicy(PlacementKind::LeastLoaded);
  ClusterOutcome O =
      harness::runClusterReplay(
          fleet(), *P, ClusterWorkload::closedLoop(Script), COpts);
  Emit("closed-loop-least-loaded", O);

  std::ifstream In(std::string(ACCEL_SOURCE_DIR) +
                   "/tests/golden/cluster_fault_free.golden");
  ASSERT_TRUE(In.good()) << "golden fixture missing";
  std::ostringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(Got, Want.str());
}

TEST_F(ClusterTest, SingleDeviceAccelosMatchesGolden) {
  // runStream's Continuous and Stride modes and runClosedLoop's accelOS
  // mode run the fleet replay on a one-device view of their driver. The
  // fixture was emitted by the dedicated single-device loops that view
  // replaced (hexfloat, like the fault-free fixture above), so every
  // timestamp, scheduler counter and adapted weight is compared to them
  // bit for bit.
  std::string Got;
  char Buf[512];
  auto Add = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    Got += Buf;
  };
  auto Emit = [&](const char *Run, const StreamOutcome &O) {
    Add("run %s\n", Run);
    for (size_t I = 0; I != O.Requests.size(); ++I) {
      const StreamRequestResult &R = O.Requests[I];
      Add("request %zu %d %a %a %a\n", I, R.Tenant, R.ArrivalTime,
          R.StartTime, R.EndTime);
    }
    Add("rounds %zu deferrals %llu fullsolves %llu fastpasses %llu "
        "completions %llu\n",
        O.Rounds, static_cast<unsigned long long>(O.Deferrals),
        static_cast<unsigned long long>(O.FullSolves),
        static_cast<unsigned long long>(O.FastPasses),
        static_cast<unsigned long long>(O.EngineCompletions));
    Add("makespan %a\nunfairness %a\n", O.Makespan, O.Unfairness);
    for (const auto &[Tenant, W] : O.FinalWeights)
      Add("weight %d %a\n", Tenant, W);
    Add("weightupdates %llu\n",
        static_cast<unsigned long long>(O.WeightUpdates));
  };

  harness::ExperimentDriver &D = fleet().driver(0);
  double Dur = fleet().meanSoloDuration(0);
  workloads::TraceOptions TOpts;
  TOpts.NumRequests = 24;
  TOpts.NumTenants = 3;
  TOpts.MeanInterarrival = 0.5 * Dur;
  TOpts.Seed = 20260730;
  std::vector<workloads::TimedRequest> Trace =
      workloads::poissonTrace(D.numKernels(), TOpts);
  StreamOptions SOpts;
  SOpts.Weights = {{1, 2.0}};
  SOpts.RoundQuantum = 0.25 * Dur;
  SOpts.Admission = StreamOptions::AdmissionMode::Continuous;
  Emit("continuous",
       harness::runStream(D, SchedulerKind::AccelOSOptimized, Trace, SOpts));
  SOpts.Admission = StreamOptions::AdmissionMode::Stride;
  Emit("stride-naive",
       harness::runStream(D, SchedulerKind::AccelOSNaive, Trace, SOpts));

  std::vector<workloads::ClosedLoopTenant> Tenants(3);
  Tenants[0] = {0, 10, 1, 0.25 * Dur, 41, {0, 1, 2, 3}};
  Tenants[1] = {1, 8, 3, 0.05 * Dur, 42, {}};
  Tenants[2] = {2, 6, 2, 0.50 * Dur, 43, {}};
  workloads::ClosedLoopScript Script =
      workloads::closedLoopTrace(D.numKernels(), Tenants);
  StreamOptions COpts;
  COpts.RoundQuantum = 0.25 * Dur;
  COpts.StrictShares = true;
  COpts.SloTargets = {{0, Dur}};
  COpts.AdaptiveSloWeights = true;
  COpts.SloControlInterval = Dur;
  COpts.SloTuning.MinSamples = 1;
  Emit("closed-loop-adaptive",
       harness::runClosedLoop(D, SchedulerKind::AccelOSOptimized, Script,
                              COpts));

  std::ifstream In(std::string(ACCEL_SOURCE_DIR) +
                   "/tests/golden/single_device_accelos.golden");
  ASSERT_TRUE(In.good()) << "golden fixture missing";
  std::ostringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(Got, Want.str());
}

TEST_F(ClusterTest, SingleDeviceFleetMatchesRunStreamContinuous) {
  // The degeneration contract behind the whole layer: an equal-weight
  // single-device fleet, placed through a real policy, is the
  // single-device serving loop — runStream's continuous admission (a
  // one-device view of its driver) replays bit-for-bit.
  static Fleet Solo = [] {
    Fleet F;
    F.addDevice(sim::DeviceSpec::nvidiaK20m());
    return F;
  }();
  std::vector<workloads::TimedRequest> Trace;
  {
    workloads::TraceOptions TOpts;
    TOpts.NumRequests = 20;
    TOpts.NumTenants = 3;
    TOpts.MeanInterarrival = Solo.meanSoloDuration(0);
    TOpts.Seed = 20260730;
    Trace = workloads::poissonTrace(Solo.driver(0).numKernels(), TOpts);
  }

  ClusterOptions COpts;
  COpts.Stream.RoundQuantum = 0.25 * Solo.meanSoloDuration(0);
  StreamOptions SOpts = COpts.Stream;
  SOpts.Admission = StreamOptions::AdmissionMode::Continuous;

  auto P = makePlacementPolicy(PlacementKind::HeterogeneityAware);
  ClusterOutcome C = harness::runClusterReplay(
      Solo, *P, ClusterWorkload::openLoop(Trace), COpts);
  StreamOutcome S = harness::runStream(
      Solo.driver(0), SchedulerKind::AccelOSOptimized, Trace, SOpts);

  ASSERT_EQ(C.Stream.Requests.size(), S.Requests.size());
  for (size_t I = 0; I != S.Requests.size(); ++I) {
    EXPECT_EQ(C.Stream.Requests[I].ArrivalTime,
              S.Requests[I].ArrivalTime) << "request " << I;
    EXPECT_EQ(C.Stream.Requests[I].StartTime, S.Requests[I].StartTime)
        << "request " << I;
    EXPECT_EQ(C.Stream.Requests[I].EndTime, S.Requests[I].EndTime)
        << "request " << I;
  }
  EXPECT_EQ(C.Stream.Makespan, S.Makespan);
  EXPECT_EQ(C.Stream.Unfairness, S.Unfairness);
  EXPECT_EQ(C.Stream.Rounds, S.Rounds);
  EXPECT_EQ(C.Stream.Deferrals, S.Deferrals);
  for (size_t D : C.Placement)
    EXPECT_EQ(D, 0u);
}

TEST_F(ClusterTest, SingleDeviceClosedLoopMatchesRunClosedLoop) {
  // The reactive twin of the open-loop degeneration: on a one-device
  // fleet, the closed-loop cluster replay — adaptive SLO weights
  // included — must replay runClosedLoop's accelOS continuous schedule
  // bit-for-bit (same materialization order, same controller
  // observations and update instants).
  static Fleet Solo = [] {
    Fleet F;
    F.addDevice(sim::DeviceSpec::nvidiaK20m());
    return F;
  }();
  double Dur = Solo.meanSoloDuration(0);
  std::vector<workloads::ClosedLoopTenant> Tenants(3);
  Tenants[0] = {0, 10, 1, 0.25 * Dur, 41, {0, 1, 2, 3}};
  Tenants[1] = {1, 8, 3, 0.05 * Dur, 42, {}};
  Tenants[2] = {2, 6, 2, 0.50 * Dur, 43, {}};
  workloads::ClosedLoopScript Script = workloads::closedLoopTrace(
      Solo.driver(0).numKernels(), Tenants);

  ClusterOptions COpts;
  COpts.Stream.RoundQuantum = 0.25 * Dur;
  COpts.Stream.StrictShares = true;
  COpts.Stream.SloTargets = {{0, Dur}};
  COpts.Stream.AdaptiveSloWeights = true;
  COpts.Stream.SloControlInterval = Dur;
  COpts.Stream.SloTuning.MinSamples = 1;

  auto P = makePlacementPolicy(PlacementKind::LeastLoaded);
  ClusterOutcome C = harness::runClusterReplay(
      Solo, *P, ClusterWorkload::closedLoop(Script), COpts);
  StreamOutcome S = harness::runClosedLoop(
      Solo.driver(0), SchedulerKind::AccelOSOptimized, Script,
      COpts.Stream);

  ASSERT_EQ(C.Stream.Requests.size(), S.Requests.size());
  for (size_t I = 0; I != S.Requests.size(); ++I) {
    EXPECT_EQ(C.Stream.Requests[I].Tenant, S.Requests[I].Tenant);
    EXPECT_EQ(C.Stream.Requests[I].ArrivalTime,
              S.Requests[I].ArrivalTime) << "request " << I;
    EXPECT_EQ(C.Stream.Requests[I].StartTime, S.Requests[I].StartTime)
        << "request " << I;
    EXPECT_EQ(C.Stream.Requests[I].EndTime, S.Requests[I].EndTime)
        << "request " << I;
  }
  EXPECT_EQ(C.Stream.Makespan, S.Makespan);
  EXPECT_EQ(C.Stream.Rounds, S.Rounds);
  EXPECT_EQ(C.Stream.Deferrals, S.Deferrals);
  EXPECT_EQ(C.Stream.WeightUpdates, S.WeightUpdates);
  EXPECT_EQ(C.Stream.FinalWeights, S.FinalWeights);
}

TEST_F(ClusterTest, EmptyTraceStillReportsEveryDevice) {
  // The degenerate no-requests paths keep the Devices-indexed-by-
  // fleet-position contract: consumers may index per-device results
  // unconditionally.
  auto P = makePlacementPolicy(PlacementKind::RoundRobin);
  std::vector<workloads::TimedRequest> NoTrace;
  ClusterOutcome O = harness::runClusterReplay(
      fleet(), *P, ClusterWorkload::openLoop(NoTrace), options());
  ASSERT_EQ(O.Devices.size(), fleet().size());
  for (size_t D = 0; D != fleet().size(); ++D) {
    EXPECT_EQ(O.Devices[D].Name, fleet().device(D).Name);
    EXPECT_EQ(O.Devices[D].Requests, 0u);
  }
  workloads::ClosedLoopScript NoScript;
  ClusterOutcome OC = harness::runClusterReplay(
      fleet(), *P, ClusterWorkload::closedLoop(NoScript), options());
  ASSERT_EQ(OC.Devices.size(), fleet().size());
}

TEST_F(ClusterTest, StickyAffinityKeepsTenantsPut) {
  std::vector<workloads::TimedRequest> Trace = poisson(24, 11);
  ClusterOptions Opts = options();
  Opts.StickyTenantAffinity = true;
  auto P = makePlacementPolicy(PlacementKind::LeastLoaded);
  ClusterOutcome O = harness::runClusterReplay(
      fleet(), *P, ClusterWorkload::openLoop(Trace), Opts);
  std::map<int, size_t> Homes;
  for (size_t I = 0; I != Trace.size(); ++I) {
    auto [It, New] = Homes.emplace(Trace[I].Tenant, O.Placement[I]);
    if (!New) {
      EXPECT_EQ(O.Placement[I], It->second)
          << "tenant " << Trace[I].Tenant << " migrated at request "
          << I;
    }
  }
}

TEST_F(ClusterTest, ClosedLoopClusterCompletesScript) {
  std::vector<workloads::ClosedLoopTenant> Tenants(3);
  Tenants[0] = {0, 8, 1, 0.25 * meanDur(), 21, {0, 1, 2, 3}};
  Tenants[1] = {1, 8, 3, 0.05 * meanDur(), 22, {}};
  Tenants[2] = {2, 6, 2, 0.50 * meanDur(), 23, {}};
  workloads::ClosedLoopScript Script = workloads::closedLoopTrace(
      fleet().driver(0).numKernels(), Tenants);

  auto P = makePlacementPolicy(PlacementKind::HeterogeneityAware);
  ClusterOutcome A =
      harness::runClusterReplay(
          fleet(), *P, ClusterWorkload::closedLoop(Script), options());
  ASSERT_EQ(A.Stream.Requests.size(), Script.totalRequests());
  for (const StreamRequestResult &R : A.Stream.Requests) {
    EXPECT_GE(R.StartTime, R.ArrivalTime - 1e-9);
    EXPECT_GE(R.EndTime, R.StartTime);
  }
  // Determinism holds for the reactive loop too.
  ClusterOutcome B =
      harness::runClusterReplay(
          fleet(), *P, ClusterWorkload::closedLoop(Script), options());
  expectIdentical(A, B);
}

TEST_F(ClusterTest, AdaptiveSloWeightsPropagateClusterWide) {
  // One cluster-wide controller: the interactive tenant's aggregate
  // queueing time across BOTH devices drives one boost, and the
  // adapted weight must show up in the outcome (and stay within the
  // bounded-fairness envelope).
  std::vector<workloads::ClosedLoopTenant> Tenants(3);
  Tenants[0] = {0, 10, 1, 0.25 * meanDur(), 31, {0, 1, 2, 3}};
  Tenants[1] = {1, 10, 4, 0.02 * meanDur(), 32, {}};
  Tenants[2] = {2, 10, 4, 0.02 * meanDur(), 33, {}};
  workloads::ClosedLoopScript Script = workloads::closedLoopTrace(
      fleet().driver(0).numKernels(), Tenants);

  ClusterOptions Opts = options();
  Opts.Stream.StrictShares = true;
  Opts.Stream.SloTargets = {{0, 0.5 * meanDur()}};
  Opts.Stream.AdaptiveSloWeights = true;
  Opts.Stream.SloControlInterval = meanDur();
  Opts.Stream.SloTuning.MinSamples = 1;

  auto P = makePlacementPolicy(PlacementKind::RoundRobin);
  ClusterOutcome O =
      harness::runClusterReplay(
          fleet(), *P, ClusterWorkload::closedLoop(Script), Opts);
  ASSERT_EQ(O.Stream.FinalWeights.count(0), 1u);
  EXPECT_GE(O.Stream.FinalWeights.at(0), 1.0);
  EXPECT_LE(O.Stream.FinalWeights.at(0),
            accelos::SloWeightController::MaxBoost);
}

TEST_F(ClusterTest, FleetMeasuresHeterogeneity) {
  // The AMD model is the faster device (44 CUs x 160 lanes vs the
  // K20m's 13 x 192): its mean solo duration is shorter and its
  // measured service rate higher — the signal heterogeneity-aware
  // placement normalizes by.
  EXPECT_LT(fleet().meanSoloDuration(1), fleet().meanSoloDuration(0));
  EXPECT_GT(fleet().serviceRate(1), fleet().serviceRate(0));
}

//===----------------------------------------------------------------------===//
// Failure injection, migration, and elasticity
//===----------------------------------------------------------------------===//

TEST_F(ClusterTest, DeterministicFaultReplay) {
  // The determinism contract extends to the whole fault machinery:
  // the same kill/rejoin plan replays to bit-identical outcomes —
  // displacements, failovers, voluntary migrations, retry counts, and
  // recovery times included.
  std::vector<workloads::TimedRequest> Trace = poisson(24, 77);
  ClusterOptions Opts = options();
  Opts.FleetPlan = {
      {.Time = 2.0 * meanDur(), .Device = 0,
       .What = FleetEvent::Kind::Down},
      {.Time = 6.0 * meanDur(), .Device = 0,
       .What = FleetEvent::Kind::Up}};
  Opts.MaxRetries = 8;
  Opts.Migration.Enabled = true;
  auto P = makePlacementPolicy(PlacementKind::LeastLoaded);
  ClusterOutcome A = harness::runClusterReplay(
      fleet(), *P, ClusterWorkload::openLoop(Trace), Opts);
  ClusterOutcome B = harness::runClusterReplay(
      fleet(), *P, ClusterWorkload::openLoop(Trace), Opts);
  expectIdentical(A, B);
  // And the fault actually bit: the slow device was serving work when
  // it died, so requests were displaced and failed over.
  ASSERT_EQ(A.Faults.size(), 1u);
  EXPECT_EQ(A.Faults[0].Device, 0u);
  EXPECT_GT(A.Faults[0].Displaced, 0u);
  EXPECT_EQ(A.Faults[0].Lost, 0u);
  EXPECT_GT(A.Faults[0].RecoveryTime, 0.0);
  EXPECT_FALSE(A.Migrations.empty());
  EXPECT_TRUE(A.LostRequests.empty());
  EXPECT_EQ(A.RequestedWGs, A.ExecutedWGs);
}

TEST_F(ClusterTest, NoRequestLostWhileCapacityRemains) {
  // Property: under ANY kill/rejoin plan that never takes the whole
  // fleet down past the retry budget, every request completes — the
  // plan parameters here are randomized per seed, the replay of each
  // is still deterministic — under both event-driven admission modes.
  for (unsigned Seed : {101u, 202u, 303u, 404u, 505u}) {
    std::mt19937_64 Rng(Seed);
    std::vector<workloads::TimedRequest> Trace =
        poisson(24, 1000 + Seed);
    double Span = 24 * 0.5 * meanDur();
    std::uniform_int_distribution<size_t> Dev(0, fleet().size() - 1);
    std::uniform_real_distribution<double> DownAt(0.05 * Span,
                                                  0.6 * Span);
    std::uniform_real_distribution<double> Outage(0.05 * Span,
                                                  0.5 * Span);
    size_t Victim = Dev(Rng);
    double Down = DownAt(Rng);
    ClusterOptions Opts = options();
    Opts.FleetPlan = {
        {.Time = Down, .Device = Victim, .What = FleetEvent::Kind::Down},
        {.Time = Down + Outage(Rng), .Device = Victim,
         .What = FleetEvent::Kind::Up}};
    Opts.MaxRetries = 100;
    for (StreamOptions::AdmissionMode Mode :
         {StreamOptions::AdmissionMode::Continuous,
          StreamOptions::AdmissionMode::Stride}) {
      Opts.Stream.Admission = Mode;
      auto P = makePlacementPolicy(PlacementKind::HeterogeneityAware);
      ClusterOutcome O = harness::runClusterReplay(
          fleet(), *P, ClusterWorkload::openLoop(Trace), Opts);
      SCOPED_TRACE("seed " + std::to_string(Seed) +
                   (Mode == StreamOptions::AdmissionMode::Stride
                        ? ", stride"
                        : ", continuous"));
      EXPECT_TRUE(O.LostRequests.empty());
      EXPECT_EQ(O.RequestedWGs, O.ExecutedWGs);
      ASSERT_EQ(O.Stream.Requests.size(), Trace.size());
      for (const StreamRequestResult &R : O.Stream.Requests)
        EXPECT_GE(R.EndTime, R.ArrivalTime - 1e-9);
      for (const harness::ClusterFaultRecord &F : O.Faults)
        EXPECT_EQ(F.Lost, 0u);
      // Stride admission never solves; it really ran on every device.
      if (Mode == StreamOptions::AdmissionMode::Stride) {
        EXPECT_EQ(O.Stream.FullSolves, 0u);
        EXPECT_EQ(O.Stream.FastPasses, O.Stream.Rounds);
      }
    }
  }
}

TEST_F(ClusterTest, MigrationConservesWork) {
  // Work-group conservation through migration and failover: every
  // virtual group the trace asked for executes exactly once — moved
  // ranges are neither duplicated nor leaked, rolled-back slices
  // re-execute on the new device.
  std::vector<workloads::TimedRequest> Trace = poisson(32, 5);
  ClusterOptions Opts = options();
  Opts.FleetPlan = {
      {.Time = 1.5 * meanDur(), .Device = 0,
       .What = FleetEvent::Kind::Down},
      {.Time = 5.0 * meanDur(), .Device = 0,
       .What = FleetEvent::Kind::Up}};
  Opts.MaxRetries = 16;
  Opts.Migration.Enabled = true;
  Opts.Migration.DivergenceFactor = 1.5;
  auto P = makePlacementPolicy(PlacementKind::HeterogeneityAware);
  ClusterOutcome O = harness::runClusterReplay(
      fleet(), *P, ClusterWorkload::openLoop(Trace), Opts);
  EXPECT_TRUE(O.LostRequests.empty());
  EXPECT_EQ(O.RequestedWGs, O.ExecutedWGs);
  EXPECT_GT(O.RequestedWGs, 0u);
  ASSERT_FALSE(O.Migrations.empty());
  // Records carry a sane shape: bounded devices, monotone-positive
  // remaining work.
  for (const harness::ClusterMigrationRecord &M : O.Migrations) {
    EXPECT_LE(M.To, fleet().size() - 1);
    EXPECT_LT(M.RequestIdx, Trace.size());
    EXPECT_GT(M.RemainingWGs, 0u);
  }
  // Voluntary migrations respect the per-request budget.
  std::map<size_t, uint32_t> Voluntary;
  for (const harness::ClusterMigrationRecord &M : O.Migrations) {
    if (!M.Failover) {
      EXPECT_LE(++Voluntary[M.RequestIdx], Opts.Migration.MaxPerRequest);
    }
  }
}

TEST_F(ClusterTest, ElasticDeviceJoinsMidReplay) {
  // Elastic scale-up through the same event plan: a device whose first
  // scripted event is Up starts outside the serving set, joins empty
  // mid-replay, and starts winning placements.
  std::vector<workloads::TimedRequest> Trace = poisson(24, 13);
  ClusterOptions Opts = options();
  double Join = 3.0 * meanDur();
  Opts.FleetPlan = {
      {.Time = Join, .Device = 1, .What = FleetEvent::Kind::Up}};
  auto P = makePlacementPolicy(PlacementKind::LeastLoaded);
  ClusterOutcome O = harness::runClusterReplay(
      fleet(), *P, ClusterWorkload::openLoop(Trace), Opts);
  EXPECT_TRUE(O.LostRequests.empty());
  EXPECT_EQ(O.RequestedWGs, O.ExecutedWGs);
  size_t OnJoined = 0;
  for (size_t I = 0; I != Trace.size(); ++I) {
    if (Trace[I].ArrivalTime < Join) {
      EXPECT_EQ(O.Placement[I], 0u)
          << "request " << I << " placed on a device not yet joined";
    }
    if (O.Placement[I] == 1)
      ++OnJoined;
  }
  EXPECT_GT(OnJoined, 0u)
      << "the joined device never won a placement";
  EXPECT_EQ(O.Devices[1].Requests, OnJoined);
}

TEST_F(ClusterTest, RetryBudgetExhaustionLosesDisplacedRequests) {
  // With a zero retry budget the first displacement is fatal: the
  // displaced requests are recorded lost (never silently dropped),
  // stamped at the loss instant, and the conservation ledger shows the
  // missing work.
  std::vector<workloads::TimedRequest> Trace = poisson(24, 3);
  ClusterOptions Opts = options();
  Opts.MaxRetries = 0;
  Opts.FleetPlan = {
      {.Time = 2.0 * meanDur(), .Device = 0,
       .What = FleetEvent::Kind::Down}};
  auto P = makePlacementPolicy(PlacementKind::RoundRobin);
  ClusterOutcome O = harness::runClusterReplay(
      fleet(), *P, ClusterWorkload::openLoop(Trace), Opts);
  ASSERT_EQ(O.Faults.size(), 1u);
  EXPECT_GT(O.Faults[0].Displaced, 0u);
  EXPECT_EQ(O.Faults[0].Lost, O.Faults[0].Displaced);
  EXPECT_EQ(O.LostRequests.size(), O.Faults[0].Displaced);
  EXPECT_LT(O.ExecutedWGs, O.RequestedWGs);
  for (size_t Idx : O.LostRequests) {
    EXPECT_EQ(O.Retries[Idx], 1u);
    EXPECT_GE(O.Stream.Requests[Idx].EndTime, O.Faults[0].DownTime);
  }
  // Requests that never touched the dead device still finish.
  ASSERT_EQ(O.Stream.Requests.size(), Trace.size());
}

TEST_F(ClusterTest, FullOutageLosesLateArrivalsUnplaced) {
  // When every device is down and none will return, arrivals cannot be
  // served: they are lost unplaced (the sentinel placement) at their
  // arrival instant, and the replay still terminates with every
  // request accounted for.
  std::vector<workloads::TimedRequest> Trace = poisson(24, 17);
  ClusterOptions Opts = options();
  Opts.MaxRetries = 100;
  double T = 2.0 * meanDur();
  Opts.FleetPlan = {
      {.Time = T, .Device = 0, .What = FleetEvent::Kind::Down},
      {.Time = T, .Device = 1, .What = FleetEvent::Kind::Down}};
  auto P = makePlacementPolicy(PlacementKind::LeastLoaded);
  ClusterOutcome O = harness::runClusterReplay(
      fleet(), *P, ClusterWorkload::openLoop(Trace), Opts);
  ASSERT_EQ(O.Stream.Requests.size(), Trace.size());
  EXPECT_FALSE(O.LostRequests.empty());
  size_t LateArrivals = 0;
  for (size_t I = 0; I != Trace.size(); ++I) {
    if (Trace[I].ArrivalTime <= T)
      continue;
    ++LateArrivals;
    EXPECT_EQ(O.Placement[I], fleet().size())
        << "request " << I << " placed on a dark fleet";
    EXPECT_EQ(O.Stream.Requests[I].EndTime, Trace[I].ArrivalTime);
  }
  EXPECT_GT(LateArrivals, 0u) << "trace ended before the outage";
  EXPECT_GE(O.LostRequests.size(), LateArrivals);
}

TEST_F(ClusterTest, ClosedLoopScriptDrainsThroughFaults) {
  // The reactive loop keeps issuing through an outage: a lost request
  // still advances its tenant's think clock, so the script drains and
  // the replay stays deterministic.
  std::vector<workloads::ClosedLoopTenant> Tenants(3);
  Tenants[0] = {0, 8, 1, 0.25 * meanDur(), 61, {0, 1, 2, 3}};
  Tenants[1] = {1, 8, 3, 0.05 * meanDur(), 62, {}};
  Tenants[2] = {2, 6, 2, 0.50 * meanDur(), 63, {}};
  workloads::ClosedLoopScript Script = workloads::closedLoopTrace(
      fleet().driver(0).numKernels(), Tenants);
  ClusterOptions Opts = options();
  Opts.MaxRetries = 100;
  Opts.FleetPlan = {
      {.Time = 1.5 * meanDur(), .Device = 1,
       .What = FleetEvent::Kind::Down},
      {.Time = 4.0 * meanDur(), .Device = 1,
       .What = FleetEvent::Kind::Up}};
  auto P = makePlacementPolicy(PlacementKind::LeastLoaded);
  ClusterOutcome A =
      harness::runClusterReplay(
          fleet(), *P, ClusterWorkload::closedLoop(Script), Opts);
  ASSERT_EQ(A.Stream.Requests.size(), Script.totalRequests());
  EXPECT_TRUE(A.LostRequests.empty());
  EXPECT_EQ(A.RequestedWGs, A.ExecutedWGs);
  ClusterOutcome B =
      harness::runClusterReplay(
          fleet(), *P, ClusterWorkload::closedLoop(Script), Opts);
  expectIdentical(A, B);
}

} // namespace
