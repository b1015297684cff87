//===- tests/StreamingTests.cpp - Streaming serving-loop tests ---------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Properties of the streaming serving loop, centred on arrival-aware
/// continuous admission: no request starts before it arrives, an
/// all-zero-arrival trace reproduces the round-synchronous schedule
/// bit-for-bit (batch semantics), and continuous admission never makes
/// tail latency worse than the round-boundary convoy. Plus the
/// regression units for the zero-work latency clamp and the
/// capped-worker quantum budget, the committed golden fixture pinning
/// the FIFO and round loops (open traces, closed scripts, and
/// runWorkload's batch experiments) and every isolated duration byte
/// for byte, and the configured weights an empty trace reports.
///
//===----------------------------------------------------------------------===//

#include "accelos/AdmissionLoop.h"
#include "harness/Streaming.h"
#include "metrics/Metrics.h"
#include "workloads/Arrivals.h"

#include "Golden.h"
#include "gtest/gtest.h"

#include <cstdio>
#include <map>
#include <set>

using namespace accel;
using namespace accel::harness;

namespace {

class StreamingTest : public ::testing::Test {
protected:
  static ExperimentDriver &driver() {
    static ExperimentDriver D(sim::DeviceSpec::nvidiaK20m());
    return D;
  }

  static double meanDur() {
    static double D = meanIsolatedBaselineDuration(driver());
    return D;
  }

  static std::vector<workloads::TimedRequest> poisson(size_t N,
                                                      uint64_t Seed) {
    workloads::TraceOptions TOpts;
    TOpts.NumRequests = N;
    TOpts.NumTenants = 4;
    TOpts.MeanInterarrival = meanDur();
    TOpts.Seed = Seed;
    return workloads::poissonTrace(driver().numKernels(), TOpts);
  }
};

//===----------------------------------------------------------------------===//
// Continuous admission properties
//===----------------------------------------------------------------------===//

TEST_F(StreamingTest, ContinuousNeverStartsBeforeArrival) {
  StreamOptions Opts;
  Opts.RoundQuantum = 0.25 * meanDur();
  Opts.Admission = StreamOptions::AdmissionMode::Continuous;
  StreamOutcome O = runStream(driver(), SchedulerKind::AccelOSOptimized,
                              poisson(24, 42), Opts);
  for (const StreamRequestResult &R : O.Requests) {
    EXPECT_GE(R.StartTime, R.ArrivalTime - 1e-9)
        << "request " << R.RequestIdx << " started before it arrived";
    EXPECT_GE(R.EndTime, R.StartTime);
  }
  for (double S : O.Slowdowns)
    EXPECT_GT(S, 0.0);
}

TEST_F(StreamingTest, AllZeroArrivalsReproduceRoundSyncSchedule) {
  // When every request is present from time zero and slicing is off,
  // one share solve grants the whole set: continuous admission has no
  // mid-run event to react to and must replay the round-synchronous
  // schedule bit-for-bit — the batch semantics of the persistent
  // engine session are identical to the per-round engine runs.
  std::vector<workloads::TimedRequest> Trace;
  size_t Kernels[] = {0, 3, 7, 11, 19};
  int Tenant = 0;
  for (size_t K : Kernels) {
    workloads::TimedRequest R;
    R.KernelIdx = K % driver().numKernels();
    R.Tenant = Tenant++ % 2;
    R.ArrivalTime = 0;
    Trace.push_back(R);
  }

  StreamOptions Round;
  StreamOptions Cont;
  Cont.Admission = StreamOptions::AdmissionMode::Continuous;
  StreamOutcome A =
      runStream(driver(), SchedulerKind::AccelOSOptimized, Trace, Round);
  StreamOutcome B =
      runStream(driver(), SchedulerKind::AccelOSOptimized, Trace, Cont);

  EXPECT_EQ(A.Rounds, 1u);
  EXPECT_EQ(B.Rounds, 1u);
  ASSERT_EQ(A.Requests.size(), B.Requests.size());
  for (size_t I = 0; I != A.Requests.size(); ++I) {
    EXPECT_EQ(A.Requests[I].StartTime, B.Requests[I].StartTime)
        << "request " << I;
    EXPECT_EQ(A.Requests[I].EndTime, B.Requests[I].EndTime)
        << "request " << I;
  }
  EXPECT_EQ(A.Makespan, B.Makespan);
  EXPECT_EQ(A.Unfairness, B.Unfairness);
}

TEST_F(StreamingTest, EmptyTraceReportsConfiguredWeights) {
  // Every replay reports the configured weights as FinalWeights, an
  // empty workload included, whichever loop the kind routes to.
  StreamOptions Opts;
  Opts.Weights = {{1, 2.0}, {3, 0.5}};
  for (SchedulerKind Kind :
       {SchedulerKind::Baseline, SchedulerKind::ElasticKernels,
        SchedulerKind::AccelOSNaive, SchedulerKind::AccelOSOptimized})
    for (StreamOptions::AdmissionMode Mode :
         {StreamOptions::AdmissionMode::RoundSync,
          StreamOptions::AdmissionMode::Continuous,
          StreamOptions::AdmissionMode::Stride}) {
      Opts.Admission = Mode;
      StreamOutcome O = runStream(driver(), Kind, {}, Opts);
      EXPECT_TRUE(O.Requests.empty());
      EXPECT_EQ(O.Rounds, 0u);
      EXPECT_EQ(O.FinalWeights, Opts.Weights)
          << schedulerName(Kind) << " admission "
          << static_cast<int>(Mode);
    }
}

TEST_F(StreamingTest, AccelosLaunchViewsTheCompiledCosts) {
  // accelOS launches read the compiled kernel's cost array through a
  // view of its whole virtual range instead of carrying a copy.
  for (size_t I = 0; I != driver().numKernels(); ++I) {
    const CompiledKernel &CK = driver().kernel(I);
    sim::KernelLaunchDesc L = driver().accelosDesc(
        I, 0, 4, accelos::SchedulingMode::Optimized);
    EXPECT_TRUE(L.VirtualCosts.empty()) << CK.Spec->Id;
    EXPECT_EQ(L.ViewCosts, CK.WGCosts.data()) << CK.Spec->Id;
    EXPECT_EQ(L.ViewBegin, 0u) << CK.Spec->Id;
    EXPECT_EQ(L.ViewEnd, CK.WGCosts.size()) << CK.Spec->Id;
    EXPECT_EQ(L.numVirtualGroups(), CK.WGCosts.size()) << CK.Spec->Id;
  }
}

TEST_F(StreamingTest, ContinuousTailLatencyNotWorseThanRoundSync) {
  // The point of the refactor: on an open-loop Poisson trace the
  // continuous path must not lose to the round-boundary convoy on tail
  // latency or queueing delay.
  StreamOptions Round;
  Round.RoundQuantum = 0.25 * meanDur();
  StreamOptions Cont = Round;
  Cont.Admission = StreamOptions::AdmissionMode::Continuous;
  for (uint64_t Seed : {20260730ull, 7ull}) {
    std::vector<workloads::TimedRequest> Trace = poisson(32, Seed);
    StreamOutcome Rs = runStream(
        driver(), SchedulerKind::AccelOSOptimized, Trace, Round);
    StreamOutcome Cs = runStream(
        driver(), SchedulerKind::AccelOSOptimized, Trace, Cont);

    std::vector<double> RsLat, CsLat;
    for (const StreamRequestResult &R : Rs.Requests)
      RsLat.push_back(R.latency());
    for (const StreamRequestResult &R : Cs.Requests)
      CsLat.push_back(R.latency());
    EXPECT_LE(metrics::latencyPercentile(CsLat, 95),
              metrics::latencyPercentile(RsLat, 95))
        << "seed " << Seed;
    EXPECT_LE(metrics::mean(Cs.queueDelays()),
              metrics::mean(Rs.queueDelays()))
        << "seed " << Seed;
    EXPECT_LE(metrics::latencyPercentile(Cs.queueDelays(), 95),
              metrics::latencyPercentile(Rs.queueDelays(), 95))
        << "seed " << Seed;
  }
}

TEST_F(StreamingTest, ContinuousRespectsWeightsAndCompletesEverything) {
  StreamOptions Opts;
  Opts.RoundQuantum = 0.25 * meanDur();
  Opts.Admission = StreamOptions::AdmissionMode::Continuous;
  Opts.Weights = {{0, 3.0}, {1, 1.0}};
  workloads::TraceOptions TOpts;
  TOpts.NumRequests = 24;
  TOpts.NumTenants = 2;
  TOpts.MeanInterarrival = meanDur();
  TOpts.Seed = 7;
  StreamOutcome O = runStream(
      driver(), SchedulerKind::AccelOSOptimized,
      workloads::poissonTrace(driver().numKernels(), TOpts), Opts);
  // Every request completed with a positive span.
  for (const StreamRequestResult &R : O.Requests)
    EXPECT_GT(R.EndTime, 0.0);
  // The weighted tenant is served no worse at the median.
  auto ByTenant = O.latenciesByTenant();
  ASSERT_EQ(ByTenant.size(), 2u);
  EXPECT_LE(metrics::latencyPercentile(ByTenant[0], 50),
            metrics::latencyPercentile(ByTenant[1], 50));
}

TEST_F(StreamingTest, OpenLoopAdaptsSloWeights) {
  // The event-driven modes run the fleet replay, so the SLO controller
  // serves open loops too: a target tenant 0 keeps missing moves its
  // weight, within the bounded-fairness envelope.
  StreamOptions Opts;
  Opts.RoundQuantum = 0.25 * meanDur();
  Opts.Admission = StreamOptions::AdmissionMode::Continuous;
  Opts.SloTargets = {{0, 0.1 * meanDur()}};
  Opts.AdaptiveSloWeights = true;
  Opts.SloControlInterval = meanDur();
  Opts.SloTuning.MinSamples = 1;
  StreamOutcome O = runStream(driver(), SchedulerKind::AccelOSOptimized,
                              poisson(48, 7), Opts);
  EXPECT_GT(O.WeightUpdates, 0u);
  ASSERT_EQ(O.FinalWeights.count(0), 1u);
  EXPECT_GT(O.FinalWeights.at(0), 1.0);
  EXPECT_LE(O.FinalWeights.at(0),
            accelos::SloWeightController::MaxBoost);
}

//===----------------------------------------------------------------------===//
// Stride admission (serve_scale's approximate fast path)
//===----------------------------------------------------------------------===//

TEST_F(StreamingTest, StrideReplayIsDeterministic) {
  // serve_scale's grant-history gate assumes a stride replay is a pure
  // function of the trace: two runs must agree bit-for-bit.
  StreamOptions Opts;
  Opts.RoundQuantum = 0.25 * meanDur();
  Opts.Admission = StreamOptions::AdmissionMode::Stride;
  std::vector<workloads::TimedRequest> Trace = poisson(32, 20260808);
  StreamOutcome A =
      runStream(driver(), SchedulerKind::AccelOSOptimized, Trace, Opts);
  StreamOutcome B =
      runStream(driver(), SchedulerKind::AccelOSOptimized, Trace, Opts);
  ASSERT_EQ(A.Requests.size(), B.Requests.size());
  for (size_t I = 0; I != A.Requests.size(); ++I) {
    EXPECT_EQ(A.Requests[I].StartTime, B.Requests[I].StartTime)
        << "request " << I;
    EXPECT_EQ(A.Requests[I].EndTime, B.Requests[I].EndTime)
        << "request " << I;
  }
  EXPECT_EQ(A.Makespan, B.Makespan);
  EXPECT_EQ(A.Rounds, B.Rounds);
  // Stride never invokes the share solver.
  EXPECT_EQ(A.FullSolves, 0u);
  EXPECT_EQ(A.FastPasses, A.Rounds);
}

TEST_F(StreamingTest, StrideWeightedThroughputTracksTickets) {
  // The serving property the stride mode rests on: under a sustained
  // backlog, each tenant's admission (throughput) share converges to
  // its ticket share. Measured at the admission layer, where the ratio
  // is exact — end-to-end completion times additionally fold in the
  // kernel mix and the engine's weight-blind processor sharing of
  // co-resident work.
  accelos::ResourceCaps Caps;
  Caps.Threads = 64;
  Caps.LocalMem = 1 << 20;
  Caps.Regs = 1 << 20;
  Caps.WGSlots = 2;
  accelos::StrideScheduler S(Caps);
  const double Weights[4] = {4.0, 2.0, 1.0, 1.0};
  std::map<uint64_t, int> TenantOf;
  uint64_t NextId = 1;
  auto Submit = [&](int T) {
    accelos::RoundRequest R;
    R.Id = NextId++;
    R.Demand.WGThreads = 32;
    R.Demand.RequestedWGs = 1;
    R.Demand.Weight = Weights[T];
    R.Tenant = T;
    TenantOf[R.Id] = T;
    S.submit(R);
  };
  for (int T = 0; T != 4; ++T)
    for (int I = 0; I != 4; ++I)
      Submit(T);
  std::vector<uint64_t> InFlight;
  int Count[4] = {0, 0, 0, 0};
  int Total = 0;
  while (Total < 800) {
    for (const accelos::RoundGrant &G : S.admit()) {
      ++Count[TenantOf[G.Id]];
      ++Total;
      InFlight.push_back(G.Id);
      Submit(TenantOf[G.Id]); // Closed loop: the backlog never drains.
    }
    ASSERT_FALSE(InFlight.empty());
    S.complete(InFlight.front());
    InFlight.erase(InFlight.begin());
  }
  for (int T = 0; T != 4; ++T) {
    double Share = static_cast<double>(Count[T]) / Total;
    EXPECT_NEAR(Share, Weights[T] / 8.0, 0.05) << "tenant " << T;
  }
}

TEST_F(StreamingTest, StrideNeverStarvesUnderSkewedWeights) {
  // One hundred tenants with weights spanning 32x: every tenant's
  // request must still complete, and the lightest tenants' latencies
  // must stay bounded relative to the run (no starvation; deferral is
  // doubly bounded by pass order and the MaxDeferrals block).
  StreamOptions Opts;
  Opts.RoundQuantum = 0.25 * meanDur();
  Opts.Admission = StreamOptions::AdmissionMode::Stride;
  workloads::TraceOptions TOpts;
  TOpts.NumRequests = 200;
  TOpts.NumTenants = 100;
  TOpts.MeanInterarrival = 0.25 * meanDur();
  TOpts.Seed = 20260808;
  for (int T = 0; T != 100; ++T)
    Opts.Weights[T] = T % 10 == 0 ? 32.0 : 1.0;
  StreamOutcome O = runStream(
      driver(), SchedulerKind::AccelOSOptimized,
      workloads::poissonTrace(driver().numKernels(), TOpts), Opts);
  ASSERT_EQ(O.Requests.size(), 200u);
  std::set<int> Completed;
  for (const StreamRequestResult &R : O.Requests) {
    EXPECT_GE(R.StartTime, R.ArrivalTime - 1e-9)
        << "request " << R.RequestIdx;
    EXPECT_GE(R.EndTime, R.StartTime) << "request " << R.RequestIdx;
    EXPECT_LE(R.EndTime, O.Makespan + 1e-9) << "request " << R.RequestIdx;
    Completed.insert(R.Tenant);
  }
  // Every tenant that submitted got served.
  std::set<int> Submitting;
  for (const StreamRequestResult &R : O.Requests)
    Submitting.insert(R.Tenant);
  EXPECT_EQ(Completed, Submitting);
}

//===----------------------------------------------------------------------===//
// Zero-work latency clamp (regression: zero-turnaround crash)
//===----------------------------------------------------------------------===//

TEST(StreamSlowdownTest, ZeroWorkLatencyIsIdealService) {
  // A zero-work request completes at its arrival boundary with a
  // turnaround of exactly zero: slowdown is the 0/0 limit, ideal
  // service, exactly 1 — positive (no metrics assert) and neutral to
  // max/min unfairness (a tiny epsilon ratio would have inflated it by
  // nine orders of magnitude).
  double S = streamSlowdown(0.0, 5000.0);
  EXPECT_DOUBLE_EQ(S, 1.0);
  std::vector<double> Slowdowns = {S, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(metrics::systemUnfairness(Slowdowns), 2.0);
  // A kernel whose isolated run is itself empty is also ideal service.
  EXPECT_DOUBLE_EQ(streamSlowdown(0.0, 0.0), 1.0);
}

TEST(StreamSlowdownTest, RealLatenciesUnchanged) {
  EXPECT_DOUBLE_EQ(streamSlowdown(10000.0, 5000.0), 2.0);
  EXPECT_DOUBLE_EQ(streamSlowdown(5000.0, 5000.0), 1.0);
}

//===----------------------------------------------------------------------===//
// Quantum slicing (regression: budget from the uncapped grant)
//===----------------------------------------------------------------------===//

TEST(QuantumSliceTest, BudgetUsesCappedWorkerCount) {
  // 8 remaining groups of cost 100, WG size 10: a grant of 32 workers
  // is capped to the 8 groups that exist, so the quantum-5 budget is
  // 5 * 8 * 10 = 400 thread-cycles -> 4 groups. The old uncapped
  // budget (5 * 32 * 10 = 1600) would have swallowed the entire tail
  // and overrun the quantum fourfold.
  std::vector<double> Costs(8, 100.0);
  EXPECT_EQ(accelos::quantumSliceEnd(Costs, 0, /*GrantWGs=*/32,
                                     /*WGThreads=*/10,
                                     /*IssueEfficiency=*/1.0,
                                     /*Quantum=*/5.0),
            4u);
  // A grant already within the remaining range is unaffected.
  EXPECT_EQ(accelos::quantumSliceEnd(Costs, 0, 8, 10, 1.0, 5.0), 4u);
}

TEST(QuantumSliceTest, AlwaysTakesAtLeastOneGroup) {
  std::vector<double> Costs(4, 1000.0);
  EXPECT_EQ(accelos::quantumSliceEnd(Costs, 3, 1, 10, 1.0, 1e-6), 4u);
  EXPECT_EQ(accelos::quantumSliceEnd(Costs, 0, 1, 10, 1.0, 1e-6), 1u);
}

TEST(QuantumSliceTest, ZeroQuantumDisablesSlicing) {
  std::vector<double> Costs(16, 100.0);
  EXPECT_EQ(accelos::quantumSliceEnd(Costs, 5, 2, 10, 1.0, 0.0), 16u);
  EXPECT_EQ(accelos::quantumSliceEnd(Costs, 16, 2, 10, 1.0, 1.0), 16u);
}

//===----------------------------------------------------------------------===//
// Golden fixture: the single-device baselines
//===----------------------------------------------------------------------===//

TEST(SingleDeviceBaselinesTest, MatchesGolden) {
  // The FIFO, Elastic Kernels and round-synchronous accelOS replays of
  // open traces and closed scripts, the paper's batch workloads, and
  // every isolated duration, on both device specs. Hexfloat, like the
  // cluster fixtures: every timestamp and counter is compared to the
  // fixture byte for byte.
  std::string Got;
  char Buf[512];
  auto Add = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    Got += Buf;
  };
  auto EmitStream = [&](const char *Run, const StreamOutcome &O) {
    Add("run %s\n", Run);
    for (size_t I = 0; I != O.Requests.size(); ++I) {
      const StreamRequestResult &R = O.Requests[I];
      Add("request %zu %d %a %a %a\n", I, R.Tenant, R.ArrivalTime,
          R.StartTime, R.EndTime);
    }
    Add("rounds %zu deferrals %llu\nmakespan %a\nunfairness %a\n",
        O.Rounds, static_cast<unsigned long long>(O.Deferrals), O.Makespan,
        O.Unfairness);
  };
  const SchedulerKind Kinds[] = {
      SchedulerKind::Baseline, SchedulerKind::ElasticKernels,
      SchedulerKind::AccelOSNaive, SchedulerKind::AccelOSOptimized};

  for (const sim::DeviceSpec &Spec :
       {sim::DeviceSpec::nvidiaK20m(), sim::DeviceSpec::amdR9295X2()}) {
    ExperimentDriver D(Spec);
    const double Dur = meanIsolatedBaselineDuration(D);
    Add("device %s\n", Spec.Name.c_str());

    workloads::TraceOptions TOpts;
    TOpts.NumRequests = 24;
    TOpts.NumTenants = 3;
    TOpts.MeanInterarrival = 0.5 * Dur;
    TOpts.Seed = 20261017;
    std::vector<workloads::TimedRequest> Trace =
        workloads::poissonTrace(D.numKernels(), TOpts);
    EmitStream("stream-fifo",
               runStream(D, SchedulerKind::Baseline, Trace));
    EmitStream("stream-ek",
               runStream(D, SchedulerKind::ElasticKernels, Trace));
    StreamOptions Sliced;
    Sliced.Weights = {{1, 2.0}};
    Sliced.RoundQuantum = 0.25 * Dur;
    EmitStream("stream-roundsync-sliced",
               runStream(D, SchedulerKind::AccelOSOptimized, Trace, Sliced));
    EmitStream("stream-roundsync-naive",
               runStream(D, SchedulerKind::AccelOSNaive, Trace));

    std::vector<workloads::ClosedLoopTenant> Tenants(3);
    Tenants[0] = {0, 10, 1, 0.25 * Dur, 61, {0, 1, 2, 3}};
    Tenants[1] = {1, 8, 3, 0.05 * Dur, 62, {}};
    Tenants[2] = {2, 6, 2, 0.50 * Dur, 63, {}};
    workloads::ClosedLoopScript Script =
        workloads::closedLoopTrace(D.numKernels(), Tenants);
    EmitStream("closed-fifo",
               runClosedLoop(D, SchedulerKind::Baseline, Script));
    EmitStream("closed-ek",
               runClosedLoop(D, SchedulerKind::ElasticKernels, Script));

    std::vector<workloads::Workload> Sets = workloads::alphabeticPairs();
    for (size_t K : {4u, 8u})
      for (workloads::Workload &W :
           workloads::randomCombinations(K, 3, /*Seed=*/2016 + K))
        Sets.push_back(std::move(W));
    for (size_t I = 0; I != Sets.size(); ++I)
      for (SchedulerKind Kind : Kinds) {
        WorkloadOutcome O = runWorkload(D, Kind, Sets[I]);
        Add("workload %zu %s", I, schedulerName(Kind));
        for (double S : O.Slowdowns)
          Add(" %a", S);
        Add("\nunfairness %a overlap %a makespan %a\n", O.Unfairness,
            O.Overlap, O.Makespan);
      }

    for (size_t I = 0; I != D.numKernels(); ++I) {
      Add("isolated %zu", I);
      for (SchedulerKind Kind : Kinds)
        Add(" %a", D.isolatedDuration(Kind, I));
      Got += "\n";
    }
  }

  EXPECT_TRUE(testutil::matchesGolden("single_device_baselines", Got));
}

//===----------------------------------------------------------------------===//
// Closed-loop tenant replay (the TenantLoop mode)
//===----------------------------------------------------------------------===//

class ClosedLoopTest : public StreamingTest {
protected:
  static workloads::ClosedLoopScript script() {
    std::vector<workloads::ClosedLoopTenant> Tenants(3);
    Tenants[0] = {0, 10, 1, 0.25 * meanDur(), 11, {0, 1, 2, 3}};
    Tenants[1] = {1, 8, 3, 0.05 * meanDur(), 12, {}};
    Tenants[2] = {2, 6, 2, 0.50 * meanDur(), 13, {}};
    return workloads::closedLoopTrace(driver().numKernels(), Tenants);
  }

  static StreamOptions options() {
    StreamOptions Opts;
    Opts.RoundQuantum = 0.25 * meanDur();
    Opts.StrictShares = true;
    Opts.SloTargets = {{0, meanDur()}};
    return Opts;
  }

  static StreamOptions adaptiveOptions() {
    StreamOptions Opts = options();
    Opts.AdaptiveSloWeights = true;
    Opts.SloControlInterval = meanDur();
    Opts.SloTuning.MinSamples = 1;
    return Opts;
  }
};

TEST_F(ClosedLoopTest, CompletesEveryScriptedRequest) {
  workloads::ClosedLoopScript Script = script();
  for (SchedulerKind Kind :
       {SchedulerKind::Baseline, SchedulerKind::ElasticKernels,
        SchedulerKind::AccelOSOptimized}) {
    StreamOutcome O = runClosedLoop(driver(), Kind, Script, options());
    ASSERT_EQ(O.Requests.size(), Script.totalRequests());
    for (const StreamRequestResult &R : O.Requests) {
      EXPECT_GE(R.StartTime, R.ArrivalTime - 1e-9)
          << "request " << R.RequestIdx << " started before it arrived";
      EXPECT_GE(R.EndTime, R.StartTime);
      EXPECT_GT(R.AloneDuration, 0.0);
    }
    for (double S : O.Slowdowns)
      EXPECT_GT(S, 0.0);
  }
}

TEST_F(ClosedLoopTest, BackpressureBoundsInFlightPerTenant) {
  // The defining closed-loop property: a tenant never has more than
  // Concurrency requests between arrival and completion at any instant
  // (issued-but-still-thinking requests only tighten the bound).
  workloads::ClosedLoopScript Script = script();
  for (SchedulerKind Kind :
       {SchedulerKind::Baseline, SchedulerKind::AccelOSOptimized}) {
    StreamOutcome O = runClosedLoop(driver(), Kind, Script, options());
    std::map<int, std::vector<const StreamRequestResult *>> ByTenant;
    for (const StreamRequestResult &R : O.Requests)
      ByTenant[R.Tenant].push_back(&R);
    for (size_t TI = 0; TI != Script.Tenants.size(); ++TI) {
      const workloads::ClosedLoopTenant &T = Script.Tenants[TI];
      const auto &Rs = ByTenant[T.Tenant];
      ASSERT_EQ(Rs.size(), Script.Sequences[TI].size());
      // Probe just after every arrival: the overlap count can only
      // change at arrival/completion instants.
      for (const StreamRequestResult *Probe : Rs) {
        double Now = Probe->ArrivalTime;
        size_t InFlight = 0;
        for (const StreamRequestResult *R : Rs)
          if (R->ArrivalTime <= Now && R->EndTime > Now + 1e-9)
            ++InFlight;
        EXPECT_LE(InFlight, T.Concurrency)
            << "tenant " << T.Tenant << " exceeded its in-flight cap at "
            << Now;
      }
    }
  }
}

TEST_F(ClosedLoopTest, SameScriptIsBitIdentical) {
  // Closed-loop determinism regression: the same script replayed twice
  // (and a script regenerated from the same seeds) must produce a
  // bit-identical history — arrival, start, and end of every request.
  StreamOutcome A = runClosedLoop(driver(), SchedulerKind::AccelOSOptimized,
                                  script(), adaptiveOptions());
  StreamOutcome B = runClosedLoop(driver(), SchedulerKind::AccelOSOptimized,
                                  script(), adaptiveOptions());
  ASSERT_EQ(A.Requests.size(), B.Requests.size());
  for (size_t I = 0; I != A.Requests.size(); ++I) {
    EXPECT_EQ(A.Requests[I].Tenant, B.Requests[I].Tenant);
    EXPECT_EQ(A.Requests[I].ArrivalTime, B.Requests[I].ArrivalTime);
    EXPECT_EQ(A.Requests[I].StartTime, B.Requests[I].StartTime);
    EXPECT_EQ(A.Requests[I].EndTime, B.Requests[I].EndTime);
  }
  EXPECT_EQ(A.Makespan, B.Makespan);
  EXPECT_EQ(A.WeightUpdates, B.WeightUpdates);
  EXPECT_EQ(A.FinalWeights, B.FinalWeights);
}

TEST_F(ClosedLoopTest, AdaptiveWeightsReactToMissedSlo) {
  // Under sustained misses the controller must actually move weights,
  // and the boost must stay within the bounded-fairness envelope.
  StreamOutcome O = runClosedLoop(driver(), SchedulerKind::AccelOSOptimized,
                                  script(), adaptiveOptions());
  ASSERT_EQ(O.FinalWeights.count(0), 1u);
  EXPECT_GE(O.FinalWeights.at(0), 1.0);
  EXPECT_LE(O.FinalWeights.at(0),
            accelos::SloWeightController::MaxBoost);
  // Static weights report as configured (all default 1).
  StreamOutcome S = runClosedLoop(driver(), SchedulerKind::AccelOSOptimized,
                                  script(), options());
  EXPECT_EQ(S.WeightUpdates, 0u);
  EXPECT_TRUE(S.FinalWeights.empty());
}

} // namespace
