//===- tests/SimTests.cpp - Timing-model unit tests --------------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "sim/DeviceSpec.h"
#include "sim/Engine.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <limits>

using namespace accel;
using namespace accel::sim;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// A small, easy-to-reason-about device: 4 CUs, 256 threads and 4 WGs
/// per CU, 32 lanes.
DeviceSpec tinyDevice() {
  DeviceSpec D;
  D.Name = "tiny";
  D.NumCUs = 4;
  D.MaxThreadsPerCU = 256;
  D.MaxWGsPerCU = 4;
  D.LocalMemPerCU = 16 << 10;
  D.RegsPerCU = 65536;
  D.GlobalMemBytes = 1 << 20;
  D.LanesPerCU = 32;
  D.WGDispatchCycles = 0;
  D.DequeueCycles = 0;
  D.Admission = KernelAdmissionKind::GreedyTail;
  return D;
}

/// A static-mode launch; \p Label only names it at the call site.
KernelLaunchDesc staticKernel(const std::string & /*Label*/, int App,
                              uint64_t WGThreads, size_t NumWGs,
                              double CostPerWG, double Eff = 1.0) {
  KernelLaunchDesc L;
  L.AppId = App;
  L.WGThreads = WGThreads;
  L.RegsPerThread = 8;
  L.IssueEfficiency = Eff;
  L.Mode = KernelLaunchDesc::ModeKind::Static;
  L.StaticCosts.assign(NumWGs, CostPerWG);
  return L;
}

TEST(DeviceSpecTest, DerivedTotals) {
  DeviceSpec D = DeviceSpec::nvidiaK20m();
  EXPECT_EQ(D.totalThreads(), 13u * 2048u);
  EXPECT_EQ(D.totalLocalMem(), 13u * (48u << 10));
  EXPECT_EQ(D.totalRegs(), 13u * 65536u);
  EXPECT_EQ(D.totalWGSlots(), 13u * 16u);
}

TEST(DeviceSpecTest, NvidiaK20mFactoryFieldsPinned) {
  // Field-level pins for the factory: the fleet layer builds mixed
  // clusters out of these specs, so a silent parameter drift would
  // shift every placement and bench number downstream. These mirror
  // the paper's Sec. 7.1 platform (13 SMX Kepler).
  DeviceSpec D = DeviceSpec::nvidiaK20m();
  EXPECT_EQ(D.Name, "NVIDIA Tesla K20m (simulated)");
  EXPECT_EQ(D.NumCUs, 13u);
  EXPECT_EQ(D.MaxThreadsPerCU, 2048u);
  EXPECT_EQ(D.MaxWGsPerCU, 16u);
  EXPECT_EQ(D.LocalMemPerCU, 48u << 10);
  EXPECT_EQ(D.RegsPerCU, 65536u);
  EXPECT_EQ(D.GlobalMemBytes, 5ull << 30);
  EXPECT_EQ(D.LanesPerCU, 192u);
  EXPECT_DOUBLE_EQ(D.WGDispatchCycles, 200.0);
  EXPECT_DOUBLE_EQ(D.DequeueCycles, 140.0);
  EXPECT_EQ(D.Admission, KernelAdmissionKind::GreedyTail);
}

TEST(DeviceSpecTest, AmdR9295X2FactoryFieldsPinned) {
  // One Hawaii GPU of the R9 295X2 (44 GCN CUs).
  DeviceSpec D = DeviceSpec::amdR9295X2();
  EXPECT_EQ(D.Name, "AMD R9 295X2 (simulated, one Hawaii GPU)");
  EXPECT_EQ(D.NumCUs, 44u);
  EXPECT_EQ(D.MaxThreadsPerCU, 2560u);
  EXPECT_EQ(D.MaxWGsPerCU, 40u);
  EXPECT_EQ(D.LocalMemPerCU, 64u << 10);
  EXPECT_EQ(D.RegsPerCU, 65536u);
  EXPECT_EQ(D.GlobalMemBytes, 4ull << 30);
  EXPECT_EQ(D.LanesPerCU, 160u);
  EXPECT_DOUBLE_EQ(D.WGDispatchCycles, 250.0);
  EXPECT_DOUBLE_EQ(D.DequeueCycles, 180.0);
  EXPECT_EQ(D.Admission, KernelAdmissionKind::ExclusiveUnlessFits);
}

TEST(DeviceSpecTest, PlatformsDiffer) {
  DeviceSpec N = DeviceSpec::nvidiaK20m();
  DeviceSpec A = DeviceSpec::amdR9295X2();
  EXPECT_NE(N.NumCUs, A.NumCUs);
  EXPECT_EQ(N.Admission, KernelAdmissionKind::GreedyTail);
  EXPECT_EQ(A.Admission, KernelAdmissionKind::ExclusiveUnlessFits);
}

TEST(EngineTest, SingleWGDuration) {
  // One 32-thread WG, 32 lanes: full rate, so duration == cost/threads.
  DeviceSpec D = tinyDevice();
  Engine E(D);
  SimResult R = E.run({staticKernel("k", 0, 32, 1, 3200.0)});
  ASSERT_EQ(R.Kernels.size(), 1u);
  EXPECT_NEAR(R.Kernels[0].duration(), 100.0, 1e-6);
  EXPECT_NEAR(R.Makespan, 100.0, 1e-6);
}

TEST(EngineTest, LaneSaturationScalesDuration) {
  // 256 threads on 32 lanes: 8x oversubscription, so a WG whose cost is
  // C thread-cycles takes C / 32 time units.
  DeviceSpec D = tinyDevice();
  Engine E(D);
  SimResult R = E.run({staticKernel("k", 0, 256, 1, 25600.0)});
  EXPECT_NEAR(R.Kernels[0].duration(), 800.0, 1e-6);
}

TEST(EngineTest, IssueEfficiencyLimitsSoloRate) {
  // A 0.5-efficiency kernel cannot use more than half its lanes' worth
  // of issue slots, doubling its solo runtime.
  DeviceSpec D = tinyDevice();
  Engine E(D);
  SimResult Full = E.run({staticKernel("k", 0, 32, 4, 3200.0, 1.0)});
  SimResult Half = E.run({staticKernel("k", 0, 32, 4, 3200.0, 0.5)});
  EXPECT_NEAR(Half.Makespan / Full.Makespan, 2.0, 1e-6);
}

TEST(EngineTest, WorkSpreadsAcrossCUs) {
  // 4 WGs on 4 CUs run in parallel: same duration as a single WG.
  DeviceSpec D = tinyDevice();
  Engine E(D);
  SimResult One = E.run({staticKernel("k", 0, 32, 1, 3200.0)});
  SimResult Four = E.run({staticKernel("k", 0, 32, 4, 3200.0)});
  EXPECT_NEAR(One.Makespan, Four.Makespan, 1e-6);
}

TEST(EngineTest, OccupancyLimitQueuesWork) {
  // 32 WGs of 256 threads: only one fits per CU, so 8 waves on 4 CUs.
  DeviceSpec D = tinyDevice();
  Engine E(D);
  SimResult R = E.run({staticKernel("k", 0, 256, 32, 25600.0)});
  EXPECT_NEAR(R.Makespan, 8 * 800.0, 1e-6);
}

TEST(EngineTest, FifoSerializesConcurrentKernels) {
  // Two kernels that each fill the device: the second one's WGs wait.
  DeviceSpec D = tinyDevice();
  Engine E(D);
  SimResult R = E.run({staticKernel("a", 0, 256, 16, 25600.0),
                       staticKernel("b", 1, 256, 16, 25600.0)});
  const KernelExecResult &A = R.Kernels[0];
  const KernelExecResult &B = R.Kernels[1];
  EXPECT_LT(A.EndTime, B.EndTime);
  // b starts only in a's dispatch tail.
  EXPECT_GT(B.StartTime, 0.6 * A.EndTime);
}

TEST(EngineTest, CoResidentKernelsShareFairly) {
  // Two kernels of 2 WGs each co-fit (4 CUs); both should run at full
  // rate simultaneously -> equal durations and concurrent execution.
  DeviceSpec D = tinyDevice();
  Engine E(D);
  SimResult R = E.run({staticKernel("a", 0, 32, 2, 3200.0),
                       staticKernel("b", 1, 32, 2, 3200.0)});
  EXPECT_NEAR(R.Kernels[0].duration(), R.Kernels[1].duration(), 1e-6);
  EXPECT_LT(R.Kernels[1].StartTime, R.Kernels[0].EndTime);
}

TEST(EngineTest, ProcessorSharingSplitsLanes) {
  // Two 256-thread WGs on one CU (tiny device with 1 CU): each gets
  // half the lanes, so both finish in double the solo time.
  DeviceSpec D = tinyDevice();
  D.NumCUs = 1;
  Engine E(D);
  SimResult Solo = E.run({staticKernel("a", 0, 128, 1, 12800.0)});
  SimResult Pair = E.run({staticKernel("a", 0, 128, 1, 12800.0),
                          staticKernel("b", 1, 128, 1, 12800.0)});
  EXPECT_NEAR(Pair.Kernels[0].duration(), 2 * Solo.Makespan, 1e-6);
  EXPECT_NEAR(Pair.Kernels[1].duration(), 2 * Solo.Makespan, 1e-6);
}

TEST(EngineTest, WorkQueueDrainsAllVirtualGroups) {
  DeviceSpec D = tinyDevice();
  Engine E(D);
  KernelLaunchDesc L;
  L.WGThreads = 32;
  L.RegsPerThread = 8;
  L.Mode = KernelLaunchDesc::ModeKind::WorkQueue;
  L.VirtualCosts.assign(64, 3200.0);
  L.PhysicalWGs = 4;
  L.Batch = 1;
  SimResult R = E.run({L});
  // 64 groups over 4 physical WGs on 4 CUs: 16 serial groups each.
  EXPECT_NEAR(R.Makespan, 16 * 100.0, 1e-6);
  EXPECT_GE(R.Kernels[0].DequeueOps, 64u);
}

TEST(EngineTest, DynamicDequeueBalancesSkewedWork) {
  // Heavily skewed WG costs with static *pre-assigned* chunks (the
  // Elastic Kernels scheme) leave stragglers; the work queue with the
  // same number of physical work groups balances dynamically.
  DeviceSpec D = tinyDevice();
  std::vector<double> Costs(32, 1000.0);
  Costs[0] = 32000.0; // one giant group
  for (int I = 1; I < 8; ++I)
    Costs[I] = 16000.0;

  // Static slicing: 4 physical WGs, each owning a contiguous chunk of 8
  // original groups (chunk 0 carries nearly all the work).
  KernelLaunchDesc StaticL = staticKernel("s", 0, 256, 4, 0.0);
  for (int I = 0; I < 32; ++I)
    StaticL.StaticCosts[I / 8] += Costs[I];

  KernelLaunchDesc WqL;
  WqL.WGThreads = 256;
  WqL.RegsPerThread = 8;
  WqL.Mode = KernelLaunchDesc::ModeKind::WorkQueue;
  WqL.VirtualCosts = Costs;
  WqL.PhysicalWGs = 4;
  WqL.Batch = 1;

  Engine E(D);
  double StaticTime = E.run({StaticL}).Makespan;
  double WqTime = E.run({WqL}).Makespan;
  EXPECT_LT(WqTime, StaticTime);
}

TEST(EngineTest, DequeueCostPenalizesSmallBatches) {
  DeviceSpec D = tinyDevice();
  D.DequeueCycles = 200.0;
  auto MakeWq = [&](uint64_t Batch) {
    KernelLaunchDesc L;
    L.WGThreads = 32;
    L.RegsPerThread = 8;
    L.Mode = KernelLaunchDesc::ModeKind::WorkQueue;
    L.VirtualCosts.assign(128, 320.0);
    L.PhysicalWGs = 4;
    L.Batch = Batch;
    return L;
  };
  Engine E(D);
  double T1 = E.run({MakeWq(1)}).Makespan;
  double T8 = E.run({MakeWq(8)}).Makespan;
  EXPECT_LT(T8, T1);
}

TEST(EngineTest, ExclusiveAdmissionBlocksPartialFits) {
  // AMD-like policy: the second large kernel waits for the first to
  // fully complete (no tail overlap).
  DeviceSpec D = tinyDevice();
  D.Admission = KernelAdmissionKind::ExclusiveUnlessFits;
  Engine E(D);
  SimResult R = E.run({staticKernel("a", 0, 256, 16, 25600.0),
                       staticKernel("b", 1, 256, 16, 25600.0)});
  EXPECT_GE(R.Kernels[1].StartTime, R.Kernels[0].EndTime - 1e-9);
}

TEST(EngineTest, ExclusiveAdmissionAllowsFullFits) {
  // Small kernels that entirely fit alongside each other co-dispatch
  // even under the exclusive policy (the accelOS case on AMD).
  DeviceSpec D = tinyDevice();
  D.Admission = KernelAdmissionKind::ExclusiveUnlessFits;
  Engine E(D);
  SimResult R = E.run({staticKernel("a", 0, 32, 2, 32000.0),
                       staticKernel("b", 1, 32, 2, 32000.0)});
  EXPECT_LT(R.Kernels[1].StartTime, R.Kernels[0].EndTime);
}

TEST(EngineTest, MergeGroupBypassesHeadOfLine) {
  // Without a merge group, b is blocked until a's pending queue drains;
  // merged, b's work groups slot in as capacity frees.
  DeviceSpec D = tinyDevice();
  Engine E(D);
  auto A = staticKernel("a", 0, 256, 16, 25600.0);
  auto B = staticKernel("b", 1, 256, 16, 25600.0);
  double PlainStart = E.run({A, B}).Kernels[1].StartTime;
  A.MergeGroup = 0;
  B.MergeGroup = 0;
  double MergedStart = E.run({A, B}).Kernels[1].StartTime;
  EXPECT_LT(MergedStart, PlainStart);
}

TEST(EngineTest, DispatchOverheadCharged) {
  DeviceSpec D = tinyDevice();
  D.WGDispatchCycles = 50.0;
  Engine E(D);
  SimResult R = E.run({staticKernel("k", 0, 32, 1, 3200.0)});
  // 3200/32 = 100 plus 50 per-thread dispatch cycles at full rate.
  EXPECT_NEAR(R.Makespan, 150.0, 1e-6);
}

TEST(EngineTest, LocalMemoryLimitsResidency) {
  DeviceSpec D = tinyDevice();
  Engine E(D);
  auto L = staticKernel("k", 0, 32, 8, 3200.0);
  L.LocalMemPerWG = D.LocalMemPerCU; // one WG per CU by local memory
  SimResult R = E.run({L});
  // 8 WGs, 4 CUs, local memory allows 1 WG/CU -> 2 waves.
  EXPECT_NEAR(R.Makespan, 2 * 100.0, 1e-6);
}

//===----------------------------------------------------------------------===//
// Streaming arrivals
//===----------------------------------------------------------------------===//

TEST(EngineArrivalTest, ArrivalDelaysStartAndExtendsMakespan) {
  // A lone kernel arriving at t=500 runs 500..600: the device idles
  // until the arrival event.
  DeviceSpec D = tinyDevice();
  Engine E(D);
  auto L = staticKernel("k", 0, 32, 1, 3200.0);
  L.ArrivalTime = 500.0;
  SimResult R = E.run({L});
  EXPECT_NEAR(R.Kernels[0].StartTime, 500.0, 1e-6);
  EXPECT_NEAR(R.Kernels[0].EndTime, 600.0, 1e-6);
  EXPECT_NEAR(R.Makespan, 600.0, 1e-6);
  EXPECT_NEAR(R.Kernels[0].turnaround(), 100.0, 1e-6);
  EXPECT_NEAR(R.Kernels[0].queueDelay(), 0.0, 1e-6);
}

TEST(EngineArrivalTest, LateArrivalRunsAfterIdleGap) {
  // First kernel finishes at 100; the second arrives at 500 and must
  // not be pulled forward into the idle gap's start.
  DeviceSpec D = tinyDevice();
  Engine E(D);
  auto A = staticKernel("a", 0, 32, 1, 3200.0);
  auto B = staticKernel("b", 1, 32, 1, 3200.0);
  B.ArrivalTime = 500.0;
  SimResult R = E.run({A, B});
  EXPECT_NEAR(R.Kernels[0].EndTime, 100.0, 1e-6);
  EXPECT_NEAR(R.Kernels[1].StartTime, 500.0, 1e-6);
  EXPECT_NEAR(R.Makespan, 600.0, 1e-6);
}

TEST(EngineArrivalTest, ArrivalCoSchedulesIntoFreeSpace) {
  // A small kernel arriving mid-flight of another small kernel
  // co-dispatches immediately (space is free, FIFO queue is drained).
  DeviceSpec D = tinyDevice();
  Engine E(D);
  auto A = staticKernel("a", 0, 32, 2, 32000.0); // runs to t=1000
  auto B = staticKernel("b", 1, 32, 2, 3200.0);
  B.ArrivalTime = 200.0;
  SimResult R = E.run({A, B});
  EXPECT_NEAR(R.Kernels[1].StartTime, 200.0, 1e-6);
  EXPECT_LT(R.Kernels[1].EndTime, R.Kernels[0].EndTime);
}

TEST(EngineArrivalTest, QueueOrderFollowsArrivalNotVectorOrder) {
  // The device queue is ordered by arrival: the vector-first kernel
  // arrives *later* and must wait behind the device-filling earlier
  // arrival (strict FIFO on the tiny device).
  DeviceSpec D = tinyDevice();
  Engine E(D);
  auto Late = staticKernel("late", 0, 256, 16, 25600.0);
  Late.ArrivalTime = 10.0;
  auto Early = staticKernel("early", 1, 256, 16, 25600.0);
  SimResult R = E.run({Late, Early});
  EXPECT_NEAR(R.Kernels[1].StartTime, 0.0, 1e-6);
  EXPECT_GT(R.Kernels[0].StartTime, R.Kernels[1].StartTime);
  EXPECT_GT(R.Kernels[0].EndTime, R.Kernels[1].EndTime);
}

TEST(EngineArrivalTest, ExclusiveAdmissionHoldsAcrossArrivals) {
  // AMD-like policy with a late large arrival: it still waits for the
  // resident kernel to fully complete.
  DeviceSpec D = tinyDevice();
  D.Admission = KernelAdmissionKind::ExclusiveUnlessFits;
  Engine E(D);
  auto A = staticKernel("a", 0, 256, 16, 25600.0);
  auto B = staticKernel("b", 1, 256, 16, 25600.0);
  B.ArrivalTime = 100.0;
  SimResult R = E.run({A, B});
  EXPECT_GE(R.Kernels[1].StartTime, R.Kernels[0].EndTime - 1e-9);
}

TEST(EngineArrivalTest, ZeroWGLaunchCompletesAtArrival) {
  DeviceSpec D = tinyDevice();
  Engine E(D);
  KernelLaunchDesc L;
  L.WGThreads = 32;
  L.ArrivalTime = 250.0;
  SimResult R = E.run({L});
  EXPECT_NEAR(R.Kernels[0].StartTime, 250.0, 1e-6);
  EXPECT_NEAR(R.Kernels[0].EndTime, 250.0, 1e-6);
}

//===----------------------------------------------------------------------===//
// Engine sessions (incremental simulation)
//===----------------------------------------------------------------------===//

TEST(EngineSessionTest, AdmitAllThenDrainMatchesBatchRun) {
  // Engine::run is the admit-everything-then-drain wrapper over the
  // session; the two must agree bit-for-bit on a mixed batch (static,
  // work-queue, streamed arrivals).
  DeviceSpec D = tinyDevice();
  std::vector<KernelLaunchDesc> Batch = {
      staticKernel("a", 0, 256, 16, 25600.0),
      staticKernel("b", 1, 32, 4, 3200.0)};
  KernelLaunchDesc Wq;
  Wq.AppId = 2;
  Wq.WGThreads = 32;
  Wq.RegsPerThread = 8;
  Wq.Mode = KernelLaunchDesc::ModeKind::WorkQueue;
  Wq.VirtualCosts.assign(64, 3200.0);
  Wq.PhysicalWGs = 4;
  Wq.Batch = 2;
  Wq.ArrivalTime = 150.0;
  Batch.push_back(Wq);

  Engine E(D);
  SimResult Ref = E.run(Batch);

  EngineSession S(D);
  S.admit(Batch);
  std::vector<KernelExecResult> Done = S.drain();
  EXPECT_EQ(S.inFlight(), 0u);
  // drain() reports in completion order; each AppId is its launch's
  // position in the batch, which is Engine::run's report order.
  std::sort(Done.begin(), Done.end(),
            [](const KernelExecResult &A, const KernelExecResult &B) {
              return A.AppId < B.AppId;
            });
  ASSERT_EQ(Done.size(), Ref.Kernels.size());
  for (size_t I = 0; I != Done.size(); ++I) {
    EXPECT_EQ(Done[I].AppId, static_cast<int>(I));
    EXPECT_EQ(Done[I].StartTime, Ref.Kernels[I].StartTime);
    EXPECT_EQ(Done[I].EndTime, Ref.Kernels[I].EndTime);
    EXPECT_EQ(Done[I].DispatchedWGs, Ref.Kernels[I].DispatchedWGs);
    EXPECT_EQ(Done[I].DequeueOps, Ref.Kernels[I].DequeueOps);
  }
}

TEST(EngineSessionTest, MidRunAdmissionFillsIdleCapacity) {
  // a occupies two CUs until t=1000; b, injected mid-run at t=200,
  // co-runs in the free space and completes long before a — the
  // behaviour the round-synchronous loop cannot express.
  DeviceSpec D = tinyDevice();
  EngineSession S(D);
  S.admit({staticKernel("a", 0, 32, 2, 32000.0)});
  EXPECT_EQ(S.inFlight(), 1u);
  std::vector<KernelExecResult> None = S.advanceTo(200.0);
  EXPECT_TRUE(None.empty());
  EXPECT_NEAR(S.now(), 200.0, 1e-12);

  KernelLaunchDesc B = staticKernel("b", 1, 32, 2, 3200.0);
  B.ArrivalTime = 200.0;
  S.admit({B});
  EXPECT_EQ(S.inFlight(), 2u);
  std::vector<KernelExecResult> Done = S.drain();
  ASSERT_EQ(Done.size(), 2u);
  EXPECT_EQ(Done[0].AppId, 1);
  EXPECT_NEAR(Done[0].StartTime, 200.0, 1e-6);
  EXPECT_NEAR(Done[0].EndTime, 300.0, 1e-6);
  EXPECT_NEAR(Done[1].EndTime, 1000.0, 1e-6);
}

TEST(EngineSessionTest, NextEventTimeTracksArrivalsAndCompletions) {
  DeviceSpec D = tinyDevice();
  EngineSession S(D);
  EXPECT_LT(S.nextEventTime(), 0.0); // idle, empty queue
  KernelLaunchDesc L = staticKernel("k", 0, 32, 1, 3200.0);
  L.ArrivalTime = 500.0;
  S.admit({L});
  EXPECT_NEAR(S.nextEventTime(), 500.0, 1e-12); // the pending arrival
  S.advanceTo(500.0);
  EXPECT_NEAR(S.nextEventTime(), 600.0, 1e-6); // the completion
  std::vector<KernelExecResult> Done = S.advanceTo(600.0);
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_NEAR(Done[0].EndTime, 600.0, 1e-6);
  EXPECT_LT(S.nextEventTime(), 0.0);
}

TEST(EngineSessionTest, LateAdmissionBecomesVisibleNow) {
  // A launch admitted after its nominal arrival time reached the
  // device late: it is clamped to now() rather than rewriting history.
  DeviceSpec D = tinyDevice();
  EngineSession S(D);
  S.admit({staticKernel("a", 0, 32, 1, 3200.0)});
  std::vector<KernelExecResult> First = S.advanceTo(400.0);
  ASSERT_EQ(First.size(), 1u);

  KernelLaunchDesc B = staticKernel("b", 1, 32, 1, 3200.0);
  B.ArrivalTime = 50.0; // nominal arrival long past
  S.admit({B});
  std::vector<KernelExecResult> Done = S.drain();
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_NEAR(Done[0].ArrivalTime, 400.0, 1e-12);
  EXPECT_NEAR(Done[0].StartTime, 400.0, 1e-6);
  EXPECT_NEAR(Done[0].EndTime, 500.0, 1e-6);
}

TEST(EngineSessionTest, ZeroWGLaunchReportsAtArrival) {
  DeviceSpec D = tinyDevice();
  EngineSession S(D);
  KernelLaunchDesc L;
  L.WGThreads = 32;
  L.ArrivalTime = 250.0;
  S.admit({L});
  // Still in flight: the completion record is delivered only when the
  // session crosses the arrival time.
  EXPECT_EQ(S.inFlight(), 1u);
  std::vector<KernelExecResult> Done = S.advanceTo(300.0);
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_NEAR(Done[0].StartTime, 250.0, 1e-12);
  EXPECT_NEAR(Done[0].EndTime, 250.0, 1e-12);
  EXPECT_EQ(S.inFlight(), 0u);
}

TEST(EngineSessionTest, QueueOrdersByArrivalThenAdmission) {
  // Every launch fills the device, so launches run one at a time in
  // queue order. A blocker holds the device while two admits bring
  // future arrivals at t=100, 200 and 300: first a shuffled batch, long
  // enough that an unstable sort would reorder its ties, then a sorted
  // one interleaved with it. The queue must run them by arrival, ties
  // in admission (here: AppId) order.
  constexpr int Shuffled = 24, Sorted = 6;
  auto ArrivalOf = [&](int App) {
    return App <= Shuffled ? 100.0 * (1 + App % 3)
                           : 100.0 * (1 + (App - Shuffled - 1) / 2);
  };
  auto Arriving = [&](int App) {
    KernelLaunchDesc L = staticKernel("k", App, 256, 4, 25600.0);
    L.ArrivalTime = ArrivalOf(App);
    return L;
  };
  DeviceSpec D = tinyDevice();
  EngineSession S(D);
  std::vector<KernelLaunchDesc> First;
  First.reserve(Shuffled + 1);
  First.push_back(staticKernel("blocker", 0, 256, 4, 32000.0));
  for (int App = 1; App <= Shuffled; ++App)
    First.push_back(Arriving(App));
  S.admit(First);
  S.advanceTo(50.0);
  std::vector<KernelLaunchDesc> Second;
  Second.reserve(Sorted);
  for (int App = Shuffled + 1; App <= Shuffled + Sorted; ++App)
    Second.push_back(Arriving(App));
  S.admit(Second);

  std::vector<int> Want = {0};
  for (double T : {100.0, 200.0, 300.0})
    for (int App = 1; App <= Shuffled + Sorted; ++App)
      if (ArrivalOf(App) == T)
        Want.push_back(App);
  std::vector<KernelExecResult> Done = S.drain();
  ASSERT_EQ(Done.size(), Want.size());
  for (size_t I = 0; I != Done.size(); ++I)
    EXPECT_EQ(Done[I].AppId, Want[I]) << "position " << I;
  for (size_t I = 1; I != Done.size(); ++I)
    EXPECT_NEAR(Done[I].StartTime, Done[I - 1].EndTime, 1e-6);
}

TEST(EngineSessionTest, EqualTimeLegEndsRetireInCUOrder) {
  // Equal-time leg ends on different compute units are taken in CU
  // index order, whatever order their work groups were placed in. A
  // drained 3-WG launch leaves the round-robin cursor at CU 3, so two
  // equal 1-WG launches admitted together land on CUs 3 and 0 and end
  // at the same instant: the one on CU 0 completes first.
  DeviceSpec D = tinyDevice();
  EngineSession S(D);
  S.admit({staticKernel("warm", 0, 32, 3, 3200.0)});
  ASSERT_EQ(S.drain().size(), 1u);
  S.admit({staticKernel("on-cu3", 1, 32, 1, 3200.0),
           staticKernel("on-cu0", 2, 32, 1, 3200.0)});
  std::vector<KernelExecResult> Done = S.drain();
  ASSERT_EQ(Done.size(), 2u);
  EXPECT_EQ(Done[0].EndTime, Done[1].EndTime);
  EXPECT_EQ(Done[0].AppId, 2);
  EXPECT_EQ(Done[1].AppId, 1);
}

/// Seed \p Seed's launch set for the schedule-equivalence tests: two to
/// six static launches, all arriving at 0, whose costs come from two
/// values and which overfill the tiny device, so leg ends on different
/// compute units tie and freed slots are refilled.
std::vector<KernelLaunchDesc> seededLaunchSet(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<KernelLaunchDesc> Set;
  for (int App = 0, N = static_cast<int>(Rng.nextInRange(2, 7)); App != N;
       ++App) {
    uint64_t Threads = 32u << Rng.nextBelow(3);
    size_t WGs = 1 + Rng.nextBelow(6);
    double Cost = 3200.0 * static_cast<double>(1 + Rng.nextBelow(2));
    Set.push_back(staticKernel("k", App, Threads, WGs, Cost));
  }
  return Set;
}

TEST(EngineSessionTest, AdmissionBatchingDoesNotChangeTheSchedule) {
  // The schedule is a function of the launches and their admission
  // instants, not of how admit calls group them: one admit of a set and
  // one admit per launch at the same instant must agree bit for bit.
  DeviceSpec D = tinyDevice();
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    std::vector<KernelLaunchDesc> Set = seededLaunchSet(Seed);
    EngineSession Whole(D), OneByOne(D);
    Whole.admit(Set);
    for (const KernelLaunchDesc &L : Set)
      OneByOne.admit({L});
    std::vector<KernelExecResult> Want = Whole.drain();
    std::vector<KernelExecResult> Got = OneByOne.drain();
    ASSERT_EQ(Got.size(), Want.size()) << "seed " << Seed;
    for (size_t I = 0; I != Got.size(); ++I) {
      EXPECT_EQ(Got[I].AppId, Want[I].AppId) << "seed " << Seed;
      EXPECT_EQ(Got[I].StartTime, Want[I].StartTime) << "seed " << Seed;
      EXPECT_EQ(Got[I].EndTime, Want[I].EndTime) << "seed " << Seed;
      EXPECT_EQ(Got[I].DispatchedWGs, Want[I].DispatchedWGs)
          << "seed " << Seed;
    }
  }
}

TEST(EngineSessionTest, AdvanceUntilMatchesSteppingEveryEvent) {
  // Run ahead with no bound, a session stops only at instants that
  // complete a launch, and it runs through the same events as one
  // stepped event by event: the same completions, bit for bit, in the
  // same order, with now() at the instant of each call's completions.
  // Each seeded set runs as generated and with staggered arrivals,
  // whose instants complete nothing.
  DeviceSpec D = tinyDevice();
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    for (bool Staggered : {false, true}) {
      SCOPED_TRACE(testing::Message() << "seed " << Seed << " staggered "
                                      << Staggered);
      std::vector<KernelLaunchDesc> Set = seededLaunchSet(Seed);
      if (Staggered)
        for (size_t I = 0; I != Set.size(); ++I)
          Set[I].ArrivalTime = 37.0 * static_cast<double>(I);
      EngineSession Stepped(D), Ahead(D);
      Stepped.admit(Set);
      Ahead.admit(Set);
      std::vector<KernelExecResult> Want, Got, Buf;
      while (Stepped.advanceNextEvent(Buf))
        Want.insert(Want.end(), Buf.begin(), Buf.end());
      while (Ahead.nextEventTime() >= 0) {
        Ahead.advanceUntil(Inf, Inf, Buf);
        ASSERT_FALSE(Buf.empty());
        for (const KernelExecResult &K : Buf)
          EXPECT_EQ(K.EndTime, Ahead.now());
        Got.insert(Got.end(), Buf.begin(), Buf.end());
      }
      ASSERT_EQ(Got.size(), Want.size());
      for (size_t I = 0; I != Got.size(); ++I) {
        EXPECT_EQ(Got[I].AppId, Want[I].AppId);
        EXPECT_EQ(Got[I].StartTime, Want[I].StartTime);
        EXPECT_EQ(Got[I].EndTime, Want[I].EndTime);
      }
    }
  }
}

TEST(EngineSessionTest, AdvanceUntilStopsAtStopAtOrTheBound) {
  // One work group drains six virtual groups one at a time: a leg event
  // every 100 cycles, and only the last one (t=600) completes the
  // launch.
  DeviceSpec D = tinyDevice();
  KernelLaunchDesc Wq;
  Wq.WGThreads = 32;
  Wq.RegsPerThread = 8;
  Wq.Mode = KernelLaunchDesc::ModeKind::WorkQueue;
  Wq.VirtualCosts.assign(6, 3200.0);
  Wq.PhysicalWGs = 1;
  EngineSession S(D);
  S.admit({Wq});
  std::vector<KernelExecResult> Out;
  // A StopAt at or before now() runs exactly one instant.
  S.advanceUntil(Inf, S.now(), Out);
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(S.now(), 100.0);
  S.advanceUntil(Inf, 50.0, Out);
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(S.now(), 200.0);
  // A later StopAt stops at the first instant at or after it.
  S.advanceUntil(Inf, 250.0, Out);
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(S.now(), 300.0);
  // With neither a completion nor StopAt first, the run ends at T.
  S.advanceUntil(450.0, Inf, Out);
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(S.now(), 450.0);
  EXPECT_EQ(S.nextEventTime(), 500.0);
  // A T before the next event runs nothing.
  S.advanceUntil(480.0, 0.0, Out);
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(S.now(), 480.0);
  EXPECT_EQ(S.nextEventTime(), 500.0);
  S.advanceUntil(Inf, Inf, Out);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].EndTime, 600.0);
  EXPECT_EQ(S.now(), 600.0);
  EXPECT_LT(S.nextEventTime(), 0.0);
  // An idle session returns nothing, with now() at T.
  S.advanceUntil(750.0, Inf, Out);
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(S.now(), 750.0);
}

TEST(EngineSessionTest, AdvanceUntilReturnsAnInstantsCompletionsInCUOrder) {
  // EqualTimeLegEndsRetireInCUOrder's launches: two 1-WG launches on
  // CUs 3 and 0 end at one instant and come back from one call, the
  // one on CU 0 first.
  DeviceSpec D = tinyDevice();
  EngineSession S(D);
  std::vector<KernelExecResult> Out;
  S.admit({staticKernel("warm", 0, 32, 3, 3200.0)});
  S.advanceUntil(Inf, Inf, Out);
  ASSERT_EQ(Out.size(), 1u);
  S.admit({staticKernel("on-cu3", 1, 32, 1, 3200.0),
           staticKernel("on-cu0", 2, 32, 1, 3200.0)});
  S.advanceUntil(Inf, Inf, Out);
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].AppId, 2);
  EXPECT_EQ(Out[1].AppId, 1);
  EXPECT_EQ(Out[0].EndTime, S.now());
  EXPECT_EQ(Out[1].EndTime, S.now());
}

TEST(EngineArrivalTest, AllZeroArrivalsReproduceBatchSemantics) {
  // Explicit zero arrivals are bit-identical to the legacy batch model
  // (the default): same starts, ends, dispatch counts.
  DeviceSpec D = tinyDevice();
  Engine E(D);
  std::vector<KernelLaunchDesc> Batch = {
      staticKernel("a", 0, 256, 16, 25600.0),
      staticKernel("b", 1, 32, 4, 3200.0)};
  SimResult Legacy = E.run(Batch);
  for (KernelLaunchDesc &L : Batch)
    L.ArrivalTime = 0.0;
  SimResult Stream = E.run(Batch);
  ASSERT_EQ(Legacy.Kernels.size(), Stream.Kernels.size());
  EXPECT_EQ(Legacy.Makespan, Stream.Makespan);
  for (size_t I = 0; I != Legacy.Kernels.size(); ++I) {
    EXPECT_EQ(Legacy.Kernels[I].StartTime, Stream.Kernels[I].StartTime);
    EXPECT_EQ(Legacy.Kernels[I].EndTime, Stream.Kernels[I].EndTime);
    EXPECT_EQ(Legacy.Kernels[I].DispatchedWGs,
              Stream.Kernels[I].DispatchedWGs);
  }
}

} // namespace
