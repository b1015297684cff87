//===- tests/AccelosTests.cpp - Host runtime unit tests ----------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "accelos/AdaptivePolicy.h"
#include "accelos/ProxyCL.h"
#include "accelos/ResourceSolver.h"
#include "accelos/Runtime.h"
#include "accelos/Scheduler.h"
#include "accelos/VirtualNDRange.h"
#include "kir/RtLayout.h"
#include "sim/DeviceSpec.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <map>
#include <set>

using namespace accel;
using namespace accel::accelos;

namespace {

ResourceCaps tinyCaps() {
  ResourceCaps C;
  C.Threads = 1024;
  C.LocalMem = 64 << 10;
  C.Regs = 262144;
  C.WGSlots = 16;
  return C;
}

KernelDemand demand(uint64_t WGThreads, uint64_t LocalMem, uint64_t Regs,
                    uint64_t Requested) {
  KernelDemand D;
  D.WGThreads = WGThreads;
  D.LocalMemPerWG = LocalMem;
  D.RegsPerThread = Regs;
  D.RequestedWGs = Requested;
  return D;
}

//===----------------------------------------------------------------------===//
// Resource solver (paper Sec. 3)
//===----------------------------------------------------------------------===//

TEST(SolverTest, SingleKernelGetsWholeDevice) {
  // x_1 = T / (1 * w): 1024/128 = 8 work groups.
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  auto Shares =
      solveFairShares(tinyCaps(), {demand(128, 0, 4, 100)}, NoGreedy);
  EXPECT_EQ(Shares[0], 8u);
}

TEST(SolverTest, EqualSharesForTwoKernels) {
  // x_i = T / (2 * w_i): 4 WGs each of 128 threads.
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  auto Shares = solveFairShares(
      tinyCaps(), {demand(128, 0, 4, 100), demand(128, 0, 4, 100)},
      NoGreedy);
  EXPECT_EQ(Shares[0], 4u);
  EXPECT_EQ(Shares[1], 4u);
}

TEST(SolverTest, ThreadShareScalesWithWGSize) {
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  auto Shares = solveFairShares(
      tinyCaps(), {demand(64, 0, 4, 100), demand(256, 0, 4, 100)},
      NoGreedy);
  EXPECT_EQ(Shares[0], 8u); // 512/64
  EXPECT_EQ(Shares[1], 2u); // 512/256
}

TEST(SolverTest, LocalMemoryConstraintBinds) {
  // y_i = L/(K*m_i) = 65536/(1*32768) = 2 < thread share.
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  auto Shares =
      solveFairShares(tinyCaps(), {demand(64, 32768, 4, 100)}, NoGreedy);
  EXPECT_EQ(Shares[0], 2u);
}

TEST(SolverTest, RegisterConstraintBinds) {
  // z = R/(K * r*w) = 262144/(64*128) = 32; threads give 16; but with
  // 128 regs/thread: 262144/(128*64) = 32 ... make registers binding:
  auto D = demand(64, 0, 512, 100);
  // z = 262144 / (512*64) = 8 < 1024/64 = 16.
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  auto Shares = solveFairShares(tinyCaps(), {D}, NoGreedy);
  EXPECT_EQ(Shares[0], 8u);
}

TEST(SolverTest, EveryKernelGetsAtLeastOneWGWhenTheyFit) {
  // Four kernels of 256 threads on a 1024-thread device: the pure
  // division gives 1 each and all four co-exist.
  std::vector<KernelDemand> Ks(4, demand(256, 0, 4, 100));
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  auto Shares = solveFairShares(tinyCaps(), Ks, NoGreedy);
  for (uint64_t S : Shares)
    EXPECT_EQ(S, 1u);
}

TEST(SolverTest, MinimumShareFloorNeverOversubscribes) {
  // Eight kernels of 512 threads on a 1024-thread device: the pure
  // division gives 0 and the floor of 1 each would need 4096 threads.
  // The clamp must shed floors until the allocation fits: exactly two
  // kernels can co-exist.
  std::vector<KernelDemand> Ks(8, demand(512, 0, 4, 100));
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  auto Shares = solveFairShares(tinyCaps(), Ks, NoGreedy);
  uint64_t Threads = 0, Granted = 0;
  for (uint64_t S : Shares) {
    EXPECT_LE(S, 1u);
    Threads += S * 512;
    Granted += S > 0;
  }
  EXPECT_LE(Threads, tinyCaps().Threads);
  EXPECT_EQ(Granted, 2u);
}

TEST(SolverTest, ClampTargetsTheViolatedResource) {
  // Three floored kernels where only local memory is oversubscribed:
  // A (huge register demand, tiny local) is not part of the violation
  // and must keep its work group; one of the local-memory hogs B/C is
  // shed instead.
  ResourceCaps Caps;
  Caps.Threads = 10000;
  Caps.LocalMem = 32768;
  Caps.Regs = 300000;
  Caps.WGSlots = 16;
  KernelDemand A = demand(512, 2000, 512, 10);
  KernelDemand B = demand(32, 30000, 4, 10);
  KernelDemand C = demand(32, 30000, 4, 10);
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  auto Shares = solveFairShares(Caps, {A, B, C}, NoGreedy);
  EXPECT_EQ(Shares[0], 1u) << "kernel outside the violation was shed";
  EXPECT_EQ(Shares[1] + Shares[2], 1u);
}

TEST(SolverTest, ZeroRequestKernelGetsZeroAndIsExcludedFromDivisor) {
  // An idle tenant (RequestedWGs == 0) takes nothing — and must not
  // dilute the active kernel's share: the active kernel still divides
  // the device as if it were alone (1024/128 = 8, not /2 = 4).
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  auto Shares = solveFairShares(
      tinyCaps(), {demand(128, 0, 4, 100), demand(128, 0, 4, 0)},
      NoGreedy);
  EXPECT_EQ(Shares[0], 8u);
  EXPECT_EQ(Shares[1], 0u);
}

TEST(SolverTest, AllZeroRequestsYieldAllZeroShares) {
  auto Shares = solveFairShares(
      tinyCaps(), {demand(128, 0, 4, 0), demand(64, 0, 4, 0)});
  EXPECT_EQ(Shares[0], 0u);
  EXPECT_EQ(Shares[1], 0u);
}

TEST(SolverTest, GreedyDoesNotGrowZeroRequestKernels) {
  auto Shares = solveFairShares(
      tinyCaps(), {demand(64, 0, 4, 1000), demand(64, 0, 4, 0)});
  EXPECT_GT(Shares[0], 0u);
  EXPECT_EQ(Shares[1], 0u);
}

TEST(SolverTest, SharesCappedByRequest) {
  auto Shares = solveFairShares(tinyCaps(), {demand(64, 0, 4, 3)});
  EXPECT_EQ(Shares[0], 3u);
}

TEST(SolverTest, GreedySaturationGrowsShares) {
  // One small kernel alongside one large one: after the conservative
  // division, the greedy phase consumes the slack.
  auto Conservative = solveFairShares(
      tinyCaps(), {demand(64, 0, 4, 100), demand(256, 0, 4, 1)},
      SolverOptions{/*GreedySaturation=*/false});
  auto Greedy = solveFairShares(
      tinyCaps(), {demand(64, 0, 4, 100), demand(256, 0, 4, 1)});
  EXPECT_GT(Greedy[0], Conservative[0]);
}

TEST(SolverTest, GreedyRespectsAllCaps) {
  auto Ks = std::vector<KernelDemand>{demand(64, 8192, 16, 1000),
                                      demand(128, 4096, 32, 1000)};
  auto Shares = solveFairShares(tinyCaps(), Ks);
  uint64_t Threads = Shares[0] * 64 + Shares[1] * 128;
  uint64_t Local = Shares[0] * 8192 + Shares[1] * 4096;
  uint64_t Regs = Shares[0] * 64 * 16 + Shares[1] * 128 * 32;
  uint64_t Slots = Shares[0] + Shares[1];
  ResourceCaps C = tinyCaps();
  EXPECT_LE(Threads, C.Threads);
  EXPECT_LE(Local, C.LocalMem);
  EXPECT_LE(Regs, C.Regs);
  EXPECT_LE(Slots, C.WGSlots);
}

TEST(SolverTest, WeightsSkewShares) {
  // Paper Sec. 2.2: a 3:1 sharing ratio.
  auto A = demand(64, 0, 4, 100);
  auto B = demand(64, 0, 4, 100);
  A.Weight = 3.0;
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  auto Shares = solveFairShares(tinyCaps(), {A, B}, NoGreedy);
  EXPECT_EQ(Shares[0], 12u); // 1024 * 0.75 / 64
  EXPECT_EQ(Shares[1], 4u);  // 1024 * 0.25 / 64
}

/// The solver's core post-condition, mirroring the solver-internal
/// fits() check: the aggregate allocation stays within every cap.
void expectFits(const ResourceCaps &Caps,
                const std::vector<KernelDemand> &Ks,
                const std::vector<uint64_t> &Shares) {
  uint64_t Threads = 0, Local = 0, Regs = 0, Slots = 0;
  for (size_t I = 0; I != Ks.size(); ++I) {
    EXPECT_LE(Shares[I], Ks[I].RequestedWGs)
        << "share exceeds request for kernel " << I;
    Threads += Shares[I] * Ks[I].WGThreads;
    Local += Shares[I] * Ks[I].LocalMemPerWG;
    Regs += Shares[I] * Ks[I].WGThreads * Ks[I].RegsPerThread;
    Slots += Shares[I];
  }
  EXPECT_LE(Threads, Caps.Threads);
  EXPECT_LE(Local, Caps.LocalMem);
  EXPECT_LE(Regs, Caps.Regs);
  EXPECT_LE(Slots, Caps.WGSlots);
}

TEST(SolverInvariantTest, FitsHoldsAcrossRandomizedDemands) {
  // Randomized sweep across kernel counts, weights (including strongly
  // skewed ones) and zero-request kernels: the solved allocation must
  // always satisfy fits(), with and without greedy saturation.
  SplitMix64 Rng(0xACCE105);
  ResourceCaps Caps = tinyCaps();
  for (int Trial = 0; Trial < 200; ++Trial) {
    size_t K = 1 + Rng.nextBelow(12);
    std::vector<KernelDemand> Ks;
    for (size_t I = 0; I != K; ++I) {
      KernelDemand D;
      D.WGThreads = 32ull << Rng.nextBelow(5); // 32..512
      D.LocalMemPerWG = Rng.nextBelow(5) * 8192;
      D.RegsPerThread = Rng.nextBelow(128);
      // One in four kernels is idle (zero-request).
      D.RequestedWGs = Rng.nextBelow(4) == 0 ? 0 : 1 + Rng.nextBelow(256);
      D.Weight = Rng.nextDoubleInRange(0.25, 8.0);
      Ks.push_back(D);
    }
    for (bool Greedy : {false, true}) {
      SolverOptions Opts;
      Opts.GreedySaturation = Greedy;
      auto Shares = solveFairShares(Caps, Ks, Opts);
      ASSERT_EQ(Shares.size(), K);
      expectFits(Caps, Ks, Shares);
      for (size_t I = 0; I != K; ++I) {
        if (Ks[I].RequestedWGs == 0) {
          EXPECT_EQ(Shares[I], 0u) << "idle kernel " << I << " got a share";
        }
      }
    }
  }
}

TEST(SolverInvariantTest, WeightedOversubscribedMixStillFits) {
  // A weighted mix engineered so that every kernel's fair division is
  // zero: the floor-then-clamp path must engage and still fit.
  std::vector<KernelDemand> Ks;
  for (int I = 0; I != 6; ++I) {
    KernelDemand D = demand(512, 16384, 64, 50);
    D.Weight = I % 2 ? 4.0 : 1.0;
    Ks.push_back(D);
  }
  for (bool Greedy : {false, true}) {
    SolverOptions Opts;
    Opts.GreedySaturation = Greedy;
    auto Shares = solveFairShares(tinyCaps(), Ks, Opts);
    expectFits(tinyCaps(), Ks, Shares);
  }
}

TEST(SolverTest, ClampVictimKeepsLargestContributorWhenOptimal) {
  // Only threads are oversubscribed by the floors, and reverting the
  // largest thread contributor restores feasibility in one revert: the
  // new fewest-reverts preference and the old largest-contributor
  // heuristic agree, pinning the previous behaviour.
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  std::vector<KernelDemand> Ks = {demand(512, 0, 4, 100),
                                  demand(512, 0, 4, 100),
                                  demand(640, 0, 4, 100)};
  auto Shares = solveFairShares(tinyCaps(), Ks, NoGreedy);
  EXPECT_EQ(Shares[0], 1u);
  EXPECT_EQ(Shares[1], 1u);
  EXPECT_EQ(Shares[2], 0u); // 640 threads: largest, and a one-revert fix
}

TEST(SolverTest, ClampVictimPrefersSingleRevertFeasibility) {
  // Threads AND local memory are both oversubscribed by the floors.
  // Reverting the largest thread contributor (kernel 0: 600 threads,
  // no local memory) fixes threads but leaves local memory violated —
  // the old heuristic then shed a second kernel. Reverting kernel 1
  // (500 threads + 60000 bytes) alone restores both dimensions, so the
  // fewest-reverts pass must shed exactly that one.
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  ResourceCaps Caps;
  Caps.Threads = 1024;
  Caps.LocalMem = 65536;
  Caps.Regs = 262144;
  Caps.WGSlots = 16;
  std::vector<KernelDemand> Ks = {demand(600, 0, 0, 10),
                                  demand(500, 60000, 0, 10),
                                  demand(400, 10000, 0, 10)};
  auto Shares = solveFairShares(Caps, Ks, NoGreedy);
  EXPECT_EQ(Shares[0], 1u);
  EXPECT_EQ(Shares[1], 0u);
  EXPECT_EQ(Shares[2], 1u);
}

TEST(SolverTest, ClampPairRevertBeatsIterativeGreedy) {
  // Threads AND local memory are oversubscribed by 600 each, and no
  // single floored kernel covers both (max per-kernel demand is 590).
  // The iterative largest-contributor path sheds A (the thread hog),
  // then must shed BOTH balanced kernels to cover the remaining local
  // overflow — three work groups. The bounded pair search finds that
  // reverting the two balanced kernels alone covers both dimensions:
  // two work groups shed, and the pair with the largest demand in the
  // most-oversubscribed dimension wins the tie against {C1, D}/{C2, D}.
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  ResourceCaps Caps;
  Caps.Threads = 1000;
  Caps.LocalMem = 1000;
  Caps.Regs = 1u << 30;
  Caps.WGSlots = 16;
  std::vector<KernelDemand> Ks = {
      demand(590, 10, 0, 10),  // A: thread hog
      demand(350, 350, 0, 10), // C1: balanced
      demand(350, 350, 0, 10), // C2: balanced
      demand(300, 300, 0, 10), // D: balanced, smaller
      demand(5, 295, 0, 10),   // F1: local filler
      demand(5, 295, 0, 10),   // F2: local filler
  };
  auto Shares = solveFairShares(Caps, Ks, NoGreedy);
  EXPECT_EQ(Shares[0], 1u) << "thread hog was shed unnecessarily";
  EXPECT_EQ(Shares[1], 0u);
  EXPECT_EQ(Shares[2], 0u);
  EXPECT_EQ(Shares[3], 1u);
  EXPECT_EQ(Shares[4], 1u);
  EXPECT_EQ(Shares[5], 1u);
}

TEST(SolverTest, ClampTripleRevertWhenNoPairSuffices) {
  // Threads are oversubscribed by 900 and every floored kernel demands
  // at most 350: no single and no pair covers it, so the size-3 search
  // must fire and shed exactly three work groups (never a fourth).
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  ResourceCaps Caps;
  Caps.Threads = 1000;
  Caps.LocalMem = 1u << 30;
  Caps.Regs = 1u << 30;
  Caps.WGSlots = 16;
  // Totals 1900 threads: overflow 900; max pair 700 < 900; the triple
  // of the three largest (350+350+300 = 1000) covers it.
  std::vector<KernelDemand> Ks = {
      demand(350, 0, 0, 10), demand(350, 0, 0, 10),
      demand(300, 0, 0, 10), demand(300, 0, 0, 10),
      demand(300, 0, 0, 10), demand(200, 0, 0, 10),
      demand(100, 0, 0, 10),
  };
  auto Shares = solveFairShares(Caps, Ks, NoGreedy);
  size_t Shed = 0;
  uint64_t Threads = 0;
  for (size_t I = 0; I != Ks.size(); ++I) {
    Shed += Shares[I] == 0;
    Threads += Shares[I] * Ks[I].WGThreads;
  }
  EXPECT_EQ(Shed, 3u);
  EXPECT_LE(Threads, Caps.Threads);
  // The max-demand tie-break picks the largest covering triple.
  EXPECT_EQ(Shares[0], 0u);
  EXPECT_EQ(Shares[1], 0u);
  EXPECT_EQ(Shares[2], 0u);
}

TEST(SolverTest, ClampVictimTieAcrossShapesGoesToTheLastIndex) {
  // Ten one-WG floors of 64 threads on a 384-thread device: four work
  // groups over, so no single, pair or triple reversion restores
  // feasibility and the iterative fallback sheds one victim. Two shapes
  // (with and without local memory) tie on thread demand; the victim is
  // the last tying index (9, of the second shape), not the last index
  // of whichever shape comes first. Nine floors are then three over,
  // and the lexicographically first covering triple {0, 1, 2} goes.
  ResourceCaps Caps;
  Caps.Threads = 6 * 64;
  Caps.LocalMem = 1u << 30;
  Caps.Regs = 1u << 30;
  Caps.WGSlots = 64;
  std::vector<KernelDemand> Ks;
  for (int I = 0; I != 10; ++I)
    Ks.push_back(demand(64, I % 2 ? 1024 : 0, 0, 4));
  const std::vector<uint64_t> Want = {0, 0, 0, 1, 1, 1, 1, 1, 1, 0};
  SolverScratch Scratch;
  std::vector<uint64_t> Shares;
  for (bool Greedy : {false, true}) {
    SolverOptions Opts;
    Opts.GreedySaturation = Greedy;
    EXPECT_EQ(solveFairShares(Caps, Ks, Opts), Want) << "greedy " << Greedy;
    solveFairShares(Caps, Ks, Opts, Scratch, Shares);
    EXPECT_EQ(Shares, Want) << "greedy " << Greedy;
  }
}

TEST(SolverTest, CapsFromDeviceMatchSpec) {
  sim::DeviceSpec Spec = sim::DeviceSpec::nvidiaK20m();
  ResourceCaps C = ResourceCaps::fromDevice(Spec);
  EXPECT_EQ(C.Threads, Spec.totalThreads());
  EXPECT_EQ(C.LocalMem, Spec.totalLocalMem());
  EXPECT_EQ(C.Regs, Spec.totalRegs());
  EXPECT_EQ(C.WGSlots, Spec.totalWGSlots());
}

//===----------------------------------------------------------------------===//
// Round scheduler: dynamic K and deferred-kernel requeue
//===----------------------------------------------------------------------===//

RoundRequest request(uint64_t Id, const KernelDemand &D) {
  RoundRequest R;
  R.Id = Id;
  R.Demand = D;
  return R;
}

TEST(RoundSchedulerTest, SingleRequestGetsSoloShare) {
  RoundScheduler S(tinyCaps());
  S.submit(request(7, demand(128, 0, 4, 100)));
  auto Grants = S.nextRound();
  ASSERT_EQ(Grants.size(), 1u);
  EXPECT_EQ(Grants[0].Id, 7u);
  EXPECT_GE(Grants[0].WGs, 8u); // 1024/128, grown by greedy saturation
  EXPECT_EQ(S.pending(), 0u);
}

TEST(RoundSchedulerTest, ClampShedRequestsDeferToLaterRounds) {
  // Eight 512-thread kernels on a 1024-thread device: two fit per
  // round, so the queue drains in four rounds of exactly two grants —
  // nothing is ever floored onto the full device.
  RoundScheduler S(tinyCaps());
  for (uint64_t I = 0; I != 8; ++I)
    S.submit(request(I, demand(512, 0, 4, 100)));

  std::set<uint64_t> Granted;
  size_t Rounds = 0;
  while (S.pending() != 0) {
    auto Grants = S.nextRound();
    EXPECT_EQ(Grants.size(), 2u) << "round " << Rounds;
    for (const RoundGrant &G : Grants) {
      EXPECT_GE(G.WGs, 1u);
      EXPECT_TRUE(Granted.insert(G.Id).second)
          << "request granted twice";
    }
    ++Rounds;
    ASSERT_LE(Rounds, 8u) << "scheduler failed to drain";
  }
  EXPECT_EQ(Rounds, 4u);
  EXPECT_EQ(Granted.size(), 8u);
  EXPECT_EQ(S.stats().RoundsPlanned, 4u);
  // 6 deferred after round 1, 4 after round 2, 2 after round 3.
  EXPECT_EQ(S.stats().Deferrals, 12u);
}

TEST(RoundSchedulerTest, DynamicKGrowsSharesAsQueueDrains) {
  // Round 1 solves with K = 2 (4 WGs each of 128 threads without
  // greedy growth); once those complete, a lone late submission solves
  // with K = 1 and gets the whole device.
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  RoundScheduler S(tinyCaps(), NoGreedy);
  S.submit(request(0, demand(128, 0, 4, 100)));
  S.submit(request(1, demand(128, 0, 4, 100)));
  auto First = S.nextRound();
  ASSERT_EQ(First.size(), 2u);
  EXPECT_EQ(First[0].WGs, 4u);
  EXPECT_EQ(First[1].WGs, 4u);

  S.submit(request(2, demand(128, 0, 4, 100)));
  auto Second = S.nextRound();
  ASSERT_EQ(Second.size(), 1u);
  EXPECT_EQ(Second[0].WGs, 8u); // 1024 / (1 * 128)
}

TEST(RoundSchedulerTest, ZeroRequestCompletesInsteadOfDeferring) {
  RoundScheduler S(tinyCaps());
  S.submit(request(0, demand(128, 0, 4, 0)));
  S.submit(request(1, demand(128, 0, 4, 100)));
  auto Grants = S.nextRound();
  ASSERT_EQ(Grants.size(), 2u);
  EXPECT_EQ(Grants[0].WGs, 0u);
  EXPECT_GT(Grants[1].WGs, 0u);
  EXPECT_EQ(S.pending(), 0u);
  EXPECT_EQ(S.stats().Deferrals, 0u);
}

TEST(RoundSchedulerTest, RepeatedlyDeferredHeadGetsSoloRound) {
  // The 1024-thread kernel is always the clamp's victim next to two
  // small kernels; after MaxDeferrals losses the scheduler gives it a
  // dedicated round rather than starving it behind a stream of small
  // arrivals.
  RoundScheduler S(tinyCaps());
  KernelDemand Big = demand(1024, 0, 4, 10);
  KernelDemand Small = demand(64, 0, 4, 10);

  S.submit(request(1000, Big));
  uint64_t NextId = 0;
  bool BigGranted = false;
  for (int Round = 0; Round != 8 && !BigGranted; ++Round) {
    S.submit(request(NextId++, Small));
    S.submit(request(NextId++, Small));
    for (const RoundGrant &G : S.nextRound())
      if (G.Id == 1000) {
        BigGranted = true;
        EXPECT_GE(G.WGs, 1u);
      }
  }
  EXPECT_TRUE(BigGranted) << "big kernel starved";
  EXPECT_GE(S.stats().SoloRescues, 1u);
  EXPECT_LE(S.stats().Deferrals, RoundScheduler::MaxDeferrals + 1);
}

TEST(RoundSchedulerTest, OversizedWorkGroupIsSoloRescued) {
  // A single work group wider than the device sheds every request, so
  // the round forces the head through alone: one work group, which the
  // execution layer serializes, and no deferral left on the books.
  RoundScheduler S(tinyCaps());
  S.submit(request(9, demand(2048, 0, 4, 10)));
  auto Grants = S.nextRound();
  ASSERT_EQ(Grants.size(), 1u);
  EXPECT_EQ(Grants[0].Id, 9u);
  EXPECT_EQ(Grants[0].WGs, 1u);
  EXPECT_EQ(S.pending(), 0u);
  EXPECT_EQ(S.stats().SoloRescues, 1u);
  EXPECT_EQ(S.stats().Deferrals, 0u);
}

TEST(RoundSchedulerTest, EveryRoundFitsTheDevice) {
  // Randomized drain: whatever the mix, each round's aggregate grant
  // fits the caps and the queue always empties.
  SplitMix64 Rng(0x5CEDD);
  for (int Trial = 0; Trial != 50; ++Trial) {
    RoundScheduler S(tinyCaps());
    size_t N = 1 + Rng.nextBelow(12);
    std::vector<KernelDemand> Ds;
    for (size_t I = 0; I != N; ++I) {
      KernelDemand D;
      D.WGThreads = 32ull << Rng.nextBelow(5);
      D.LocalMemPerWG = Rng.nextBelow(4) * 8192;
      D.RegsPerThread = Rng.nextBelow(64);
      D.RequestedWGs = Rng.nextBelow(4) == 0 ? 0 : 1 + Rng.nextBelow(128);
      D.Weight = Rng.nextDoubleInRange(0.5, 4.0);
      Ds.push_back(D);
      S.submit(request(I, D));
    }
    size_t Rounds = 0, Granted = 0;
    while (S.pending() != 0) {
      auto Grants = S.nextRound();
      ASSERT_FALSE(Grants.empty()) << "round made no progress";
      uint64_t Threads = 0, Local = 0, Regs = 0, Slots = 0;
      for (const RoundGrant &G : Grants) {
        const KernelDemand &D = Ds[G.Id];
        Threads += G.WGs * D.WGThreads;
        Local += G.WGs * D.LocalMemPerWG;
        Regs += G.WGs * D.WGThreads * D.RegsPerThread;
        Slots += G.WGs;
        ++Granted;
      }
      ResourceCaps C = tinyCaps();
      EXPECT_LE(Threads, C.Threads);
      EXPECT_LE(Local, C.LocalMem);
      EXPECT_LE(Regs, C.Regs);
      EXPECT_LE(Slots, C.WGSlots);
      ASSERT_LE(++Rounds, N + 1) << "scheduler failed to drain";
    }
    EXPECT_EQ(Granted, N);
  }
}

TEST(RoundSyncSchedulerTest, BarrierHoldsRoundsUntilGrantsComplete) {
  // Four 512-thread kernels, two per round: the barrier reproduces the
  // round sequence of a loop that waits out each round, however often
  // an event-driven caller asks in between.
  std::unique_ptr<AdmissionScheduler> S =
      makeAdmissionScheduler(AdmissionMode::RoundSync, tinyCaps());
  for (uint64_t I = 0; I != 4; ++I)
    S->submit(request(I, demand(512, 0, 4, 100)));
  std::vector<RoundGrant> First = S->admit();
  ASSERT_EQ(First.size(), 2u);
  EXPECT_TRUE(S->admit().empty()) << "planned past an open round";
  S->complete(First[0].Id);
  EXPECT_TRUE(S->admit().empty()) << "planned with a grant in flight";
  S->complete(First[1].Id);
  std::vector<RoundGrant> Second = S->admit();
  ASSERT_EQ(Second.size(), 2u);
  EXPECT_EQ(S->stats().RoundsPlanned, 2u);

  // A zero-work grant holds nothing in flight, so it never blocks the
  // next round.
  for (const RoundGrant &G : Second)
    S->complete(G.Id);
  S->submit(request(10, demand(128, 0, 4, 0)));
  const std::vector<RoundGrant> &Zero = S->admit();
  ASSERT_EQ(Zero.size(), 1u);
  EXPECT_EQ(Zero[0].WGs, 0u);
  S->submit(request(11, demand(128, 0, 4, 100)));
  const std::vector<RoundGrant> &Next = S->admit();
  ASSERT_EQ(Next.size(), 1u);
  EXPECT_EQ(Next[0].Id, 11u);
}

//===----------------------------------------------------------------------===//
// Continuous scheduler: event-driven residual-capacity admission
//===----------------------------------------------------------------------===//

TEST(ContinuousSchedulerTest, SoloRequestGetsFairShare) {
  ContinuousScheduler S(tinyCaps());
  S.submit(request(7, demand(128, 0, 4, 100)));
  auto Grants = S.admit();
  ASSERT_EQ(Grants.size(), 1u);
  EXPECT_EQ(Grants[0].Id, 7u);
  EXPECT_GE(Grants[0].WGs, 8u); // 1024/128, grown by greedy saturation
  EXPECT_EQ(S.pending(), 0u);
  EXPECT_EQ(S.inFlight(), 1u);
}

TEST(ContinuousSchedulerTest, ArrivalFillsResidualCapacityImmediately) {
  // A holds a bounded share (2 WGs of 128 threads); B arrives while A
  // is in flight and is admitted into the remainder at once — no
  // completion boundary in between.
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  ContinuousScheduler S(tinyCaps(), NoGreedy);
  S.submit(request(0, demand(128, 0, 4, 2)));
  auto G0 = S.admit();
  ASSERT_EQ(G0.size(), 1u);
  EXPECT_EQ(G0[0].WGs, 2u);

  S.submit(request(1, demand(128, 0, 4, 100)));
  auto G1 = S.admit();
  ASSERT_EQ(G1.size(), 1u);
  EXPECT_EQ(G1[0].Id, 1u);
  // The in-flight grant stays in the divisor: B's fair target next to
  // A is 1024/(2*128) = 4 work groups, and they fit the residual.
  EXPECT_EQ(G1[0].WGs, 4u);
  EXPECT_EQ(S.inFlight(), 2u);
}

TEST(ContinuousSchedulerTest, FullDeviceDefersUntilCompletion) {
  ContinuousScheduler S(tinyCaps());
  S.submit(request(0, demand(512, 0, 4, 100)));
  auto G0 = S.admit(); // greedy saturation fills the device: 2 x 512
  ASSERT_EQ(G0.size(), 1u);
  EXPECT_EQ(G0[0].WGs, 2u);

  S.submit(request(1, demand(512, 0, 4, 100)));
  EXPECT_TRUE(S.admit().empty()); // no residual capacity, no grant
  EXPECT_EQ(S.pending(), 1u);

  S.complete(0);
  auto G1 = S.admit();
  ASSERT_EQ(G1.size(), 1u);
  EXPECT_EQ(G1[0].Id, 1u);
  EXPECT_GE(G1[0].WGs, 1u);
  EXPECT_EQ(S.inFlight(), 1u);
}

TEST(ContinuousSchedulerTest, BypassesChargeDeferralsThenBlock) {
  // A big request is repeatedly overtaken by small arrivals that fit
  // the residual; each bypass charges a deferral, and after
  // MaxDeferrals the scheduler holds younger work back until the big
  // request is admitted (bounded bypassing, no starvation).
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  ContinuousScheduler S(tinyCaps(), NoGreedy);
  S.submit(request(100, demand(128, 0, 4, 4))); // flight: 512 threads
  ASSERT_EQ(S.admit().size(), 1u);
  S.submit(request(200, demand(1024, 0, 4, 10))); // cannot fit beside
  EXPECT_TRUE(S.admit().empty());

  uint64_t SmallId = 0;
  for (uint32_t I = 0; I != ContinuousScheduler::MaxDeferrals; ++I) {
    S.submit(request(SmallId, demand(64, 0, 4, 1)));
    auto G = S.admit();
    ASSERT_EQ(G.size(), 1u); // the small request jumps the big one
    EXPECT_EQ(G[0].Id, SmallId);
    S.complete(SmallId++);
  }
  EXPECT_EQ(S.stats().Deferrals,
            uint64_t(ContinuousScheduler::MaxDeferrals));

  // Starvation bound reached: younger requests are now held back.
  S.submit(request(999, demand(64, 0, 4, 1)));
  EXPECT_TRUE(S.admit().empty());

  // Capacity drains; the starved request is admitted first.
  S.complete(100);
  auto G = S.admit();
  ASSERT_FALSE(G.empty());
  EXPECT_EQ(G[0].Id, 200u);
  EXPECT_GE(G[0].WGs, 1u);
}

TEST(ContinuousSchedulerTest, ShrinkReturnsUnusedReservation) {
  // A tail slice runs fewer physical WGs than its grant; shrinking the
  // flight frees the difference for the very next admission pass.
  SolverOptions NoGreedy;
  NoGreedy.GreedySaturation = false;
  ContinuousScheduler S(tinyCaps(), NoGreedy);
  S.submit(request(0, demand(128, 0, 4, 100)));
  auto G0 = S.admit();
  ASSERT_EQ(G0.size(), 1u);
  EXPECT_EQ(G0[0].WGs, 8u); // 1024/128, alone
  S.shrink(0, 2);           // only 2 physical WGs actually launched

  S.submit(request(1, demand(128, 0, 4, 100)));
  auto G1 = S.admit();
  ASSERT_EQ(G1.size(), 1u);
  // Without the shrink the residual would be zero and this would
  // defer; with it, the fair target next to the 2-WG flight fits.
  EXPECT_EQ(G1[0].WGs, 4u);
}

TEST(ContinuousSchedulerTest, ZeroWorkRequestsGrantZeroWithoutFlight) {
  ContinuousScheduler S(tinyCaps());
  S.submit(request(0, demand(128, 0, 4, 0)));
  S.submit(request(1, demand(128, 0, 4, 100)));
  auto G = S.admit();
  ASSERT_EQ(G.size(), 2u);
  EXPECT_EQ(G[0].WGs, 0u);
  EXPECT_GT(G[1].WGs, 0u);
  EXPECT_EQ(S.pending(), 0u);
  EXPECT_EQ(S.inFlight(), 1u); // only the real request holds capacity
  EXPECT_EQ(S.stats().Deferrals, 0u);
}

TEST(ContinuousSchedulerTest, InFlightFootprintNeverExceedsCaps) {
  // Randomized event soup: arrivals and completions interleave; after
  // every admission the aggregate in-flight footprint fits the caps,
  // and the queue always drains once arrivals stop.
  SplitMix64 Rng(0xC0117);
  for (int Trial = 0; Trial != 30; ++Trial) {
    ContinuousScheduler S(tinyCaps());
    std::map<uint64_t, KernelDemand> Flights;
    std::map<uint64_t, KernelDemand> Demands;
    std::map<uint64_t, uint64_t> FlightWGs;
    uint64_t NextId = 0;
    size_t Submitted = 0;

    auto CheckAndTrack = [&] {
      for (const RoundGrant &G : S.admit()) {
        if (G.WGs == 0)
          continue;
        Flights[G.Id] = Demands[G.Id];
        FlightWGs[G.Id] = G.WGs;
      }
      uint64_t Threads = 0, Local = 0, Regs = 0, Slots = 0;
      for (const auto &[Id, D] : Flights) {
        Threads += FlightWGs[Id] * D.WGThreads;
        Local += FlightWGs[Id] * D.LocalMemPerWG;
        Regs += FlightWGs[Id] * D.WGThreads * D.RegsPerThread;
        Slots += FlightWGs[Id];
      }
      ResourceCaps C = tinyCaps();
      EXPECT_LE(Threads, C.Threads);
      EXPECT_LE(Local, C.LocalMem);
      EXPECT_LE(Regs, C.Regs);
      EXPECT_LE(Slots, C.WGSlots);
    };

    for (int Step = 0; Step != 60; ++Step) {
      bool Arrive = Flights.empty() || Rng.nextBelow(2) == 0;
      if (Arrive && Submitted < 20) {
        KernelDemand D;
        D.WGThreads = 32ull << Rng.nextBelow(5);
        D.LocalMemPerWG = Rng.nextBelow(4) * 8192;
        D.RegsPerThread = Rng.nextBelow(64);
        D.RequestedWGs =
            Rng.nextBelow(4) == 0 ? 0 : 1 + Rng.nextBelow(128);
        D.Weight = Rng.nextDoubleInRange(0.5, 4.0);
        Demands[NextId] = D;
        S.submit(request(NextId++, D));
        ++Submitted;
      } else if (!Flights.empty()) {
        uint64_t Id = Flights.begin()->first;
        S.complete(Id);
        Flights.erase(Id);
        FlightWGs.erase(Id);
      }
      CheckAndTrack();
    }
    // Drain: completions only. Bounded bypassing guarantees progress.
    size_t Guard = 0;
    while (S.pending() != 0 || !Flights.empty()) {
      if (!Flights.empty()) {
        uint64_t Id = Flights.begin()->first;
        S.complete(Id);
        Flights.erase(Id);
        FlightWGs.erase(Id);
      }
      CheckAndTrack();
      ASSERT_LE(++Guard, 200u) << "continuous scheduler failed to drain";
    }
  }
}

//===----------------------------------------------------------------------===//
// Adaptive batching (paper Sec. 6.4)
//===----------------------------------------------------------------------===//

TEST(AdaptivePolicyTest, PaperThresholds) {
  EXPECT_EQ(adaptiveBatchSize(5), 8u);
  EXPECT_EQ(adaptiveBatchSize(9), 8u);
  EXPECT_EQ(adaptiveBatchSize(10), 6u);
  EXPECT_EQ(adaptiveBatchSize(19), 6u);
  EXPECT_EQ(adaptiveBatchSize(20), 4u);
  EXPECT_EQ(adaptiveBatchSize(29), 4u);
  EXPECT_EQ(adaptiveBatchSize(30), 2u);
  EXPECT_EQ(adaptiveBatchSize(39), 2u);
  EXPECT_EQ(adaptiveBatchSize(40), 1u);
  EXPECT_EQ(adaptiveBatchSize(500), 1u);
}

TEST(AdaptivePolicyTest, NaiveAlwaysOne) {
  EXPECT_EQ(batchSizeFor(SchedulingMode::Naive, 5), 1u);
  EXPECT_EQ(batchSizeFor(SchedulingMode::Optimized, 5), 8u);
}

//===----------------------------------------------------------------------===//
// Virtual NDRange writer
//===----------------------------------------------------------------------===//

TEST(VirtualNDRangeTest, DescriptorFields) {
  using namespace kir::rtlayout;
  kir::DeviceMemory Mem(1 << 20);
  kir::NDRangeCfg Orig;
  Orig.WorkDim = 2;
  Orig.GlobalSize[0] = 64;
  Orig.GlobalSize[1] = 32;
  Orig.LocalSize[0] = 8;
  Orig.LocalSize[1] = 4;
  uint64_t Rt = cantFail(writeVirtualNDRange(Mem, Orig, 4));
  EXPECT_EQ(Mem.readU64(Rt + 8 * RTW_Magic), VirtualNDRangeMagic);
  EXPECT_EQ(Mem.readU64(Rt + 8 * RTW_TotalGroups), 64u); // 8 * 8
  EXPECT_EQ(Mem.readU64(Rt + 8 * RTW_Next), 0u);
  EXPECT_EQ(Mem.readU64(Rt + 8 * RTW_Batch), 4u);
  EXPECT_EQ(Mem.readU64(Rt + 8 * RTW_NumGroups0), 8u);
  EXPECT_EQ(Mem.readU64(Rt + 8 * RTW_NumGroups1), 8u);
  EXPECT_EQ(Mem.readU64(Rt + 8 * RTW_LocalSize0), 8u);
  EXPECT_EQ(Mem.readU64(Rt + 8 * RTW_GlobalSize1), 32u);

  Mem.writeU64(Rt + 8 * RTW_Next, 99);
  resetVirtualNDRange(Mem, Rt);
  EXPECT_EQ(Mem.readU64(Rt + 8 * RTW_Next), 0u);
  releaseVirtualNDRange(Mem, Rt);
  EXPECT_EQ(Mem.usedBytes(), 0u);
}

TEST(VirtualNDRangeTest, ZeroBatchRejected) {
  kir::DeviceMemory Mem(1 << 20);
  kir::NDRangeCfg Orig;
  Expected<uint64_t> Rt = writeVirtualNDRange(Mem, Orig, 0);
  EXPECT_FALSE(static_cast<bool>(Rt));
}

//===----------------------------------------------------------------------===//
// Runtime + ProxyCL end-to-end (functional path)
//===----------------------------------------------------------------------===//

const char *VaddSource = R"(
  kernel void vadd(global const float* a, global const float* b,
                   global float* c) {
    long gid = get_global_id(0);
    c[gid] = a[gid] + b[gid];
  }
)";

TEST(RuntimeTest, TransparentExecutionThroughProxyCL) {
  auto Dev = ocl::Platform::createNvidiaK20m();
  Runtime RT(*Dev);
  ProxyCL App(RT, /*AppId=*/1);

  Expected<ocl::Program *> Prog = App.createProgram(VaddSource);
  ASSERT_TRUE(static_cast<bool>(Prog)) << Prog.message();

  Expected<ocl::Kernel> K = App.createKernel(**Prog, "vadd");
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();

  std::vector<float> A(256), B(256);
  for (int I = 0; I < 256; ++I) {
    A[I] = static_cast<float>(I);
    B[I] = 1000.0f - I;
  }
  Expected<ocl::Buffer> BufA = App.createBuffer(256 * 4);
  Expected<ocl::Buffer> BufB = App.createBuffer(256 * 4);
  Expected<ocl::Buffer> BufC = App.createBuffer(256 * 4);
  ASSERT_TRUE(static_cast<bool>(BufA) && static_cast<bool>(BufB) &&
              static_cast<bool>(BufC));
  cantFail(BufA->write(A.data(), 256 * 4));
  cantFail(BufB->write(B.data(), 256 * 4));

  cantFail(App.setKernelArg(*K, 0, ocl::KernelArg::buffer(*BufA)));
  cantFail(App.setKernelArg(*K, 1, ocl::KernelArg::buffer(*BufB)));
  cantFail(App.setKernelArg(*K, 2, ocl::KernelArg::buffer(*BufC)));

  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = 256;
  Range.LocalSize[0] = 64;
  cantFail(App.enqueueNDRange(*K, Range));

  Expected<std::vector<ScheduledExecution>> Execs = RT.flushRound();
  ASSERT_TRUE(static_cast<bool>(Execs)) << Execs.message();
  ASSERT_EQ(Execs->size(), 1u);
  // Resource control really happened: shares are bounded by the device.
  EXPECT_LE((*Execs)[0].PhysicalWGs, (*Execs)[0].OriginalWGs);
  EXPECT_GT((*Execs)[0].Stats.AtomicOps, 0u);

  std::vector<float> C(256);
  cantFail(BufC->read(C.data(), 256 * 4));
  for (int I = 0; I < 256; ++I)
    EXPECT_FLOAT_EQ(C[I], 1000.0f);

  // FSM accounting (Fig. 6): one program JIT, one scheduled kernel,
  // several passthrough requests.
  EXPECT_EQ(RT.stats().ProgramsJitted, 1u);
  EXPECT_EQ(RT.stats().KernelsScheduled, 1u);
  EXPECT_GT(RT.stats().Passthrough, 0u);
  EXPECT_GT(App.channel().Messages, 5u);
}

TEST(RuntimeTest, TwoApplicationsShareOneRound) {
  auto Dev = ocl::Platform::createNvidiaK20m();
  Runtime RT(*Dev);
  ProxyCL App1(RT, 1), App2(RT, 2);

  auto P1 = App1.createProgram(VaddSource);
  auto P2 = App2.createProgram(R"(
    kernel void scale(global float* d, float s) {
      long gid = get_global_id(0);
      d[gid] = d[gid] * s;
    }
  )");
  ASSERT_TRUE(static_cast<bool>(P1) && static_cast<bool>(P2));

  auto K1 = App1.createKernel(**P1, "vadd");
  auto K2 = App2.createKernel(**P2, "scale");
  ASSERT_TRUE(static_cast<bool>(K1) && static_cast<bool>(K2));

  std::vector<float> Ones(128, 1.0f), Twos(128, 2.0f);
  auto A = App1.createBuffer(128 * 4);
  auto B = App1.createBuffer(128 * 4);
  auto C = App1.createBuffer(128 * 4);
  auto D = App2.createBuffer(128 * 4);
  ASSERT_TRUE(static_cast<bool>(A) && static_cast<bool>(B) &&
              static_cast<bool>(C) && static_cast<bool>(D));
  cantFail(A->write(Ones.data(), 128 * 4));
  cantFail(B->write(Twos.data(), 128 * 4));
  cantFail(D->write(Twos.data(), 128 * 4));

  cantFail(App1.setKernelArg(*K1, 0, ocl::KernelArg::buffer(*A)));
  cantFail(App1.setKernelArg(*K1, 1, ocl::KernelArg::buffer(*B)));
  cantFail(App1.setKernelArg(*K1, 2, ocl::KernelArg::buffer(*C)));
  cantFail(App2.setKernelArg(*K2, 0, ocl::KernelArg::buffer(*D)));
  cantFail(App2.setKernelArg(*K2, 1, ocl::KernelArg::scalarF32(4.0f)));

  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = 128;
  Range.LocalSize[0] = 32;
  cantFail(App1.enqueueNDRange(*K1, Range));
  cantFail(App2.enqueueNDRange(*K2, Range));
  EXPECT_EQ(RT.pendingRequests(), 2u);

  auto Execs = RT.flushRound();
  ASSERT_TRUE(static_cast<bool>(Execs)) << Execs.message();
  ASSERT_EQ(Execs->size(), 2u);

  std::vector<float> COut(128), DOut(128);
  cantFail(C->read(COut.data(), 128 * 4));
  cantFail(D->read(DOut.data(), 128 * 4));
  for (int I = 0; I < 128; ++I) {
    EXPECT_FLOAT_EQ(COut[I], 3.0f);
    EXPECT_FLOAT_EQ(DOut[I], 8.0f);
  }
}

TEST(RuntimeTest, OversubscribedFlushDefersToLaterRounds) {
  // A 256-thread device where three 128-thread tenants cannot co-exist:
  // the flush must split into rounds (two tenants, then the deferred
  // one re-solved with K = 1) — never floor a zero share onto the full
  // device — while every tenant's results stay correct. Runs the legacy
  // RoundSync admission, whose grant history must match the
  // pre-continuous flushRound loop.
  sim::DeviceSpec Spec = sim::DeviceSpec::nvidiaK20m();
  Spec.NumCUs = 1;
  Spec.MaxThreadsPerCU = 256;
  Spec.MaxWGsPerCU = 8;
  ocl::Device Dev(Spec);
  RuntimeOptions ROpts;
  ROpts.Mode = RuntimeOptions::Admission::RoundSync;
  Runtime RT(Dev, SchedulingMode::Optimized, ROpts);

  constexpr int NumApps = 3;
  constexpr int N = 256;
  std::vector<std::unique_ptr<ProxyCL>> Apps;
  struct Bound {
    ocl::Program *P;
    std::unique_ptr<ocl::Kernel> K;
    std::unique_ptr<ocl::Buffer> A, B, C;
  };
  std::vector<Bound> Bounds;
  std::vector<float> VA(N), VB(N);
  for (int I = 0; I < N; ++I) {
    VA[I] = static_cast<float>(I);
    VB[I] = 100.0f + I;
  }
  for (int App = 0; App != NumApps; ++App) {
    Apps.push_back(std::make_unique<ProxyCL>(RT, App + 1));
    Bound B;
    B.P = cantFail(Apps.back()->createProgram(VaddSource));
    B.K = std::make_unique<ocl::Kernel>(
        cantFail(Apps.back()->createKernel(*B.P, "vadd")));
    B.A = std::make_unique<ocl::Buffer>(
        cantFail(Apps.back()->createBuffer(N * 4)));
    B.B = std::make_unique<ocl::Buffer>(
        cantFail(Apps.back()->createBuffer(N * 4)));
    B.C = std::make_unique<ocl::Buffer>(
        cantFail(Apps.back()->createBuffer(N * 4)));
    cantFail(B.A->write(VA.data(), N * 4));
    cantFail(B.B->write(VB.data(), N * 4));
    cantFail(Apps.back()->setKernelArg(*B.K, 0,
                                       ocl::KernelArg::buffer(*B.A)));
    cantFail(Apps.back()->setKernelArg(*B.K, 1,
                                       ocl::KernelArg::buffer(*B.B)));
    cantFail(Apps.back()->setKernelArg(*B.K, 2,
                                       ocl::KernelArg::buffer(*B.C)));
    kir::NDRangeCfg Range;
    Range.GlobalSize[0] = N;
    Range.LocalSize[0] = 128;
    cantFail(Apps.back()->enqueueNDRange(*B.K, Range));
    Bounds.push_back(std::move(B));
  }
  EXPECT_EQ(RT.pendingRequests(), 3u);

  auto Execs = RT.flushRound();
  ASSERT_TRUE(static_cast<bool>(Execs)) << Execs.message();
  ASSERT_EQ(Execs->size(), 3u);
  EXPECT_EQ(RT.pendingRequests(), 0u);

  // Two rounds: the first grants the two requests that fit, the third
  // is deferred and re-solved alone (K = 1 -> both its work groups).
  // Round membership now shows up as event times: the deferred request
  // is admitted at the second round's barrier, after the first round's
  // grants have fully retired.
  EXPECT_EQ((*Execs)[0].AdmitTime, (*Execs)[1].AdmitTime);
  EXPECT_GT((*Execs)[2].AdmitTime, (*Execs)[0].AdmitTime);
  EXPECT_GE((*Execs)[2].StartTime, (*Execs)[0].EndTime);
  EXPECT_GE((*Execs)[2].StartTime, (*Execs)[1].EndTime);
  for (const ScheduledExecution &E : *Execs) {
    EXPECT_LE(E.ArrivalTime, E.AdmitTime);
    EXPECT_LE(E.AdmitTime, E.StartTime);
    EXPECT_LT(E.StartTime, E.EndTime);
  }
  EXPECT_EQ((*Execs)[2].PhysicalWGs, 2u);
  for (const ScheduledExecution &E : *Execs)
    EXPECT_GE(E.PhysicalWGs, 1u) << "no kernel may be starved";
  EXPECT_EQ(RT.schedulerStats().RoundsPlanned, 2u);
  EXPECT_EQ(RT.schedulerStats().Deferrals, 1u);

  // Every tenant's computation is intact despite the deferral.
  for (int App = 0; App != NumApps; ++App) {
    std::vector<float> Out(N);
    cantFail(Bounds[App].C->read(Out.data(), N * 4));
    for (int I = 0; I < N; ++I)
      ASSERT_FLOAT_EQ(Out[I], VA[I] + VB[I]) << "app " << App;
  }
}

TEST(RuntimeTest, MemoryManagerPausesOversubscribedApps) {
  // A small device: 64 MiB of global memory.
  sim::DeviceSpec Spec = sim::DeviceSpec::nvidiaK20m();
  Spec.GlobalMemBytes = 64 << 20;
  ocl::Device Dev(Spec);
  Runtime RT(Dev);
  ProxyCL App(RT, 7);

  auto Big = App.createBuffer(48ull << 20);
  ASSERT_TRUE(static_cast<bool>(Big));
  EXPECT_FALSE(RT.memory().isPaused(7));

  auto TooBig = App.createBuffer(48ull << 20);
  EXPECT_FALSE(static_cast<bool>(TooBig));
  EXPECT_NE(TooBig.message().find("paused"), std::string::npos);
  EXPECT_TRUE(RT.memory().isPaused(7));

  // Releasing the first buffer resumes the application.
  App.releaseBuffer(Big.take());
  EXPECT_FALSE(RT.memory().isPaused(7));
  auto Retry = App.createBuffer(48ull << 20);
  EXPECT_TRUE(static_cast<bool>(Retry));
}

TEST(RuntimeTest, UnknownKernelRejected) {
  auto Dev = ocl::Platform::createNvidiaK20m();
  Runtime RT(*Dev);

  // A kernel built outside accelOS (bypassing ProxyCL) is not
  // schedulable: the runtime never saw its program.
  ocl::Program Foreign(*Dev, VaddSource);
  cantFail(Foreign.build());
  Expected<ocl::Kernel> K = ocl::Kernel::create(Foreign, "vadd");
  ASSERT_TRUE(static_cast<bool>(K));
  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = 64;
  Range.LocalSize[0] = 32;
  Error E = RT.enqueueKernel(1, *K, Range);
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("not compiled through accelOS"),
            std::string::npos);
}

TEST(RuntimeTest, DestroyedProgramLeavesNoStaleCode) {
  // The device interpreter caches lowered code per kir::Function. A
  // runtime destroys its programs with it; the next runtime on the same
  // device JIT-compiles a different kernel whose functions may reuse
  // the freed addresses, and must run its own code, not a stale copy.
  sim::DeviceSpec Spec = sim::DeviceSpec::nvidiaK20m();
  Spec.GlobalMemBytes = 64ull << 20;
  ocl::Device Dev(Spec);
  const char *Sources[] = {VaddSource, R"(
  kernel void vsub(global const float* a, global const float* b,
                   global float* c) {
    long gid = get_global_id(0);
    c[gid] = a[gid] - b[gid];
  }
)"};
  constexpr int N = 256;
  std::vector<float> A(N), B(N), C(N);
  for (int I = 0; I < N; ++I) {
    A[I] = static_cast<float>(3 * I);
    B[I] = static_cast<float>(I + 7);
  }
  for (int Iter = 0; Iter != 8; ++Iter) {
    const bool Sub = Iter % 2 == 1;
    Runtime RT(Dev);
    ProxyCL App(RT, /*AppId=*/1);
    Expected<ocl::Program *> Prog = App.createProgram(Sources[Sub]);
    ASSERT_TRUE(static_cast<bool>(Prog)) << Prog.message();
    Expected<ocl::Kernel> K = App.createKernel(**Prog, Sub ? "vsub" : "vadd");
    ASSERT_TRUE(static_cast<bool>(K)) << K.message();
    Expected<ocl::Buffer> BufA = App.createBuffer(N * 4);
    Expected<ocl::Buffer> BufB = App.createBuffer(N * 4);
    Expected<ocl::Buffer> BufC = App.createBuffer(N * 4);
    ASSERT_TRUE(static_cast<bool>(BufA) && static_cast<bool>(BufB) &&
                static_cast<bool>(BufC));
    cantFail(BufA->write(A.data(), N * 4));
    cantFail(BufB->write(B.data(), N * 4));
    cantFail(App.setKernelArg(*K, 0, ocl::KernelArg::buffer(*BufA)));
    cantFail(App.setKernelArg(*K, 1, ocl::KernelArg::buffer(*BufB)));
    cantFail(App.setKernelArg(*K, 2, ocl::KernelArg::buffer(*BufC)));
    kir::NDRangeCfg Range;
    Range.GlobalSize[0] = N;
    Range.LocalSize[0] = 64;
    cantFail(App.enqueueNDRange(*K, Range));
    Expected<std::vector<ScheduledExecution>> Execs = RT.drain();
    ASSERT_TRUE(static_cast<bool>(Execs)) << Execs.message();
    cantFail(BufC->read(C.data(), N * 4));
    for (int I = 0; I < N; ++I)
      ASSERT_FLOAT_EQ(C[I], Sub ? A[I] - B[I] : A[I] + B[I])
          << "iteration " << Iter << ", item " << I;
  }
}

//===----------------------------------------------------------------------===//
// SloWeightController
//===----------------------------------------------------------------------===//

/// Feeds \p Ctl one full control window of \p N samples of value \p V
/// for tenant 0 and runs the update at time \p T.
static bool feedWindow(SloWeightController &Ctl, double T, size_t N,
                       double V) {
  for (size_t I = 0; I != N; ++I)
    Ctl.observe(0, V);
  return Ctl.maybeUpdate(T);
}

TEST(SloWeightControllerTest, MonotoneIncreaseUnderSustainedMisses) {
  SloWeightController Ctl({{0, 100.0}}, {}, /*Interval=*/10.0);
  double Prev = Ctl.boost(0);
  EXPECT_DOUBLE_EQ(Prev, 1.0);
  // Every window misses (p95 >> target): the boost must never decrease,
  // must strictly increase until it hits the cap, and must stop there.
  bool ReachedCap = false;
  for (int W = 1; W <= 12; ++W) {
    feedWindow(Ctl, 10.0 * W, 4, 500.0);
    double B = Ctl.boost(0);
    EXPECT_GE(B, Prev) << "boost decreased under sustained misses";
    if (!ReachedCap) {
      EXPECT_TRUE(B > Prev || B == SloWeightController::MaxBoost)
          << "boost stalled below the cap despite misses";
    }
    ReachedCap = B == SloWeightController::MaxBoost;
    Prev = B;
  }
  EXPECT_TRUE(ReachedCap);
  EXPECT_DOUBLE_EQ(Ctl.boost(0), SloWeightController::MaxBoost);
}

TEST(SloWeightControllerTest, BoundedWeightInvariant) {
  // Property: under ANY observation sequence the boost stays within
  // [1, MaxBoost], so two tenants' effective weights never drift more
  // than MaxBoost apart from their configured ratio.
  SloControllerOptions Opts;
  SloWeightController Ctl({{0, 100.0}, {1, 50.0}}, {{0, 2.0}, {1, 0.5}},
                          /*Interval=*/5.0, Opts);
  SplitMix64 Rng(20260730);
  double T = 0;
  for (int Step = 0; Step != 400; ++Step) {
    int Tenant = static_cast<int>(Rng.nextBelow(2));
    Ctl.observe(Tenant, Rng.nextDoubleInRange(0.0, 400.0));
    if (Rng.nextBelow(4) == 0) {
      T += 5.0;
      Ctl.maybeUpdate(T);
    }
    for (int Ten : {0, 1}) {
      EXPECT_GE(Ctl.boost(Ten), 1.0);
      EXPECT_LE(Ctl.boost(Ten), SloWeightController::MaxBoost);
    }
    // Effective weight = static base x bounded boost.
    EXPECT_GE(Ctl.weight(0), 2.0);
    EXPECT_LE(Ctl.weight(0), 2.0 * SloWeightController::MaxBoost);
    EXPECT_GE(Ctl.weight(1), 0.5);
    EXPECT_LE(Ctl.weight(1), 0.5 * SloWeightController::MaxBoost);
  }
}

TEST(SloWeightControllerTest, DecaysBackTowardBaseOnAttainment) {
  SloWeightController Ctl({{0, 100.0}}, {}, /*Interval=*/10.0);
  for (int W = 1; W <= 3; ++W)
    feedWindow(Ctl, 10.0 * W, 4, 500.0);
  double Boosted = Ctl.boost(0);
  EXPECT_GT(Boosted, 1.0);
  // Comfortable attainment (p95 far under target) decays the boost,
  // floored at neutral.
  for (int W = 4; W <= 40; ++W)
    feedWindow(Ctl, 10.0 * W, 4, 5.0);
  EXPECT_DOUBLE_EQ(Ctl.boost(0), 1.0);
  EXPECT_DOUBLE_EQ(Ctl.weight(0), 1.0);
}

TEST(SloWeightControllerTest, HysteresisBandHoldsSteady) {
  // p95 between Headroom*target and target: neither a miss nor a
  // comfortable attainment — the boost must hold.
  SloWeightController Ctl({{0, 100.0}}, {}, /*Interval=*/10.0);
  feedWindow(Ctl, 10.0, 4, 500.0); // One miss: boost rises.
  double Boosted = Ctl.boost(0);
  EXPECT_GT(Boosted, 1.0);
  EXPECT_FALSE(feedWindow(Ctl, 20.0, 4, 90.0));
  EXPECT_DOUBLE_EQ(Ctl.boost(0), Boosted);
}

TEST(SloWeightControllerTest, SparseWindowsAndUntargetedTenants) {
  SloControllerOptions Opts; // MinSamples = 3.
  SloWeightController Ctl({{0, 100.0}}, {}, /*Interval=*/10.0, Opts);
  // Too few samples: the window is ignored, no matter how bad.
  EXPECT_FALSE(feedWindow(Ctl, 10.0, Opts.MinSamples - 1, 1e9));
  EXPECT_DOUBLE_EQ(Ctl.boost(0), 1.0);
  // Observations of a tenant without a target never adapt anything.
  for (int I = 0; I != 10; ++I)
    Ctl.observe(7, 1e9);
  EXPECT_FALSE(Ctl.maybeUpdate(20.0));
  EXPECT_DOUBLE_EQ(Ctl.weight(7), 1.0);
  // No update fires before a full interval has elapsed.
  Ctl.observe(0, 1e9);
  Ctl.observe(0, 1e9);
  Ctl.observe(0, 1e9);
  EXPECT_FALSE(Ctl.maybeUpdate(25.0));
  EXPECT_TRUE(Ctl.maybeUpdate(30.0));
  EXPECT_GT(Ctl.boost(0), 1.0);
}

TEST(ContinuousSchedulerTest, WeightedPriorityCannotStarveLightRequests) {
  // Under weighted priority the heavy grants land before anyone is
  // kept, so the FIFO in-pass charging never touches the bypassed
  // light request; the whole-pass charge must still age it into the
  // starving-first override after MaxDeferrals bypassed passes.
  ResourceCaps Caps = tinyCaps(); // 1024 threads, 16 WG slots.
  ContinuousScheduler Sched(Caps);
  KernelDemand Heavy = demand(64, 0, 0, 16);
  Heavy.Weight = 8.0;
  // The light request's single work group needs half the device, so
  // it never fits next to a fresh heavy grant.
  KernelDemand Light = demand(512, 0, 0, 2);

  Sched.submit({1, Heavy});
  std::vector<RoundGrant> Grants = Sched.admit();
  ASSERT_EQ(Grants.size(), 1u);
  Sched.submit({100, Light});

  uint64_t NextHeavy = 2;
  for (uint32_t Cycle = 0; Cycle != ContinuousScheduler::MaxDeferrals;
       ++Cycle) {
    Sched.complete(Grants.front().Id);
    Sched.submit({NextHeavy++, Heavy});
    Grants = Sched.admit();
    // The heavy tenant keeps winning the freed capacity...
    ASSERT_EQ(Grants.size(), 1u);
    EXPECT_NE(Grants.front().Id, 100u) << "cycle " << Cycle;
    // ...but the bypassed light request is charged each pass.
    EXPECT_EQ(Sched.stats().Deferrals, Cycle + 1);
  }

  // Starving now: the light request outranks any weight for the next
  // freed capacity.
  Sched.complete(Grants.front().Id);
  Sched.submit({NextHeavy, Heavy});
  Grants = Sched.admit();
  ASSERT_FALSE(Grants.empty());
  EXPECT_EQ(Grants.front().Id, 100u);
  EXPECT_GT(Grants.front().WGs, 0u);
}

//===----------------------------------------------------------------------===//
// Weighted greedy saturation (the SLO boost's transmission into shares)
//===----------------------------------------------------------------------===//

TEST(WeightedSaturationTest, EqualWeightsKeepRoundRobinAllocation) {
  // Weight 2.0 for everyone is still *equal* sharing: the allocation
  // must be bit-identical to the unit-weight solve (the paper default).
  ResourceCaps Caps = tinyCaps();
  std::vector<KernelDemand> Unit = {demand(64, 0, 16, 64),
                                    demand(128, 4096, 32, 64),
                                    demand(64, 2048, 8, 64)};
  std::vector<KernelDemand> Scaled = Unit;
  for (KernelDemand &D : Scaled)
    D.Weight = 2.0;
  EXPECT_EQ(solveFairShares(Caps, Unit), solveFairShares(Caps, Scaled));
}

TEST(WeightedSaturationTest, SaturationPreservesWeightRatios) {
  // Two identical kernels, 4:1 weights, demand far beyond the device:
  // after saturation the heavy kernel must hold roughly four times the
  // light kernel's share — round-robin growth would have split the
  // device 1:1 instead.
  ResourceCaps Caps = tinyCaps();
  std::vector<KernelDemand> Ks = {demand(64, 0, 0, 1024),
                                  demand(64, 0, 0, 1024)};
  Ks[0].Weight = 4.0;
  std::vector<uint64_t> Shares = solveFairShares(Caps, Ks);
  ASSERT_GT(Shares[1], 0u);
  double Ratio = static_cast<double>(Shares[0]) /
                 static_cast<double>(Shares[1]);
  EXPECT_GE(Ratio, 3.0);
  EXPECT_LE(Ratio, 5.0);
  // The allocation still saturates the device (work conservation).
  EXPECT_EQ(Shares[0] + Shares[1], Caps.WGSlots);
}

//===----------------------------------------------------------------------===//
// Incremental admission (serve_scale hot path)
//===----------------------------------------------------------------------===//

TEST(SolverInvariantTest, ScratchOverloadMatchesAllocatingSolve) {
  // The allocation-free overload claims bit-identical shares to the
  // reference solve; sweep randomized demand sets through both greedy
  // settings and hold it to that. Half the trials draw demands from a
  // four-shape pool (many repeats, heavy floors), the regime the
  // solver's per-solve shape table (cached base divisions, the clamp's
  // shape search) is built for.
  SplitMix64 Rng(0x5C2A7C4);
  ResourceCaps Caps = tinyCaps();
  KernelDemand Pool[4] = {demand(512, 16384, 64, 50),
                          demand(256, 8192, 32, 20),
                          demand(64, 0, 16, 8),
                          demand(128, 4096, 0, 12)};
  SolverScratch Scratch;
  std::vector<uint64_t> Shares;
  for (int Trial = 0; Trial != 200; ++Trial) {
    size_t K = 1 + Rng.nextBelow(16);
    bool Pooled = Trial % 2 == 0;
    std::vector<KernelDemand> Ks;
    for (size_t I = 0; I != K; ++I) {
      KernelDemand D;
      if (Pooled) {
        D = Pool[Rng.nextBelow(4)];
      } else {
        D.WGThreads = 32ull << Rng.nextBelow(5);
        D.LocalMemPerWG = Rng.nextBelow(5) * 8192;
        D.RegsPerThread = Rng.nextBelow(128);
        D.RequestedWGs = Rng.nextBelow(4) == 0 ? 0 : 1 + Rng.nextBelow(256);
      }
      if (Rng.nextBelow(3) == 0)
        D.Weight = Rng.nextDoubleInRange(0.25, 8.0);
      Ks.push_back(D);
    }
    for (bool Greedy : {false, true}) {
      SolverOptions Opts;
      Opts.GreedySaturation = Greedy;
      solveFairShares(Caps, Ks, Opts, Scratch, Shares);
      EXPECT_EQ(Shares, solveFairShares(Caps, Ks, Opts))
          << "trial " << Trial << " greedy " << Greedy;
    }
  }
}

TEST(SolverInvariantTest, ScratchOverloadMatchesAllocatingSolveAtScale) {
  // The sweep above stays at K <= 16 on tinyCaps, where the clamp rarely
  // iterates. This one solves serve_scale-deep queues on both devices'
  // real caps: up to 160 demands drawn from pools of one to eight
  // shapes, so one-WG floors oversubscribe the device by up to dozens
  // of work groups and the clamp iterates, with pair wins and triple
  // searches (queues of at most TripleCap candidates) among the
  // iterations, plus ten trials of 257-300 demands whose first clamp
  // iterations search past PairCap. Per run of both greedy settings the
  // reference clamp makes ~3.8k iterations: ~116 pair wins, ~104 triple
  // searches with ~22 triple wins, and ~24 searches past PairCap.
  SplitMix64 Rng(0x5CA1E5);
  const ResourceCaps Devices[2] = {
      ResourceCaps::fromDevice(sim::DeviceSpec::nvidiaK20m()),
      ResourceCaps::fromDevice(sim::DeviceSpec::amdR9295X2())};
  SolverScratch Scratch;
  std::vector<uint64_t> Shares;
  for (int Trial = 0; Trial != 310; ++Trial) {
    const ResourceCaps &Caps = Devices[Trial % 2];
    size_t K = Trial < 300 ? 1 + Rng.nextBelow(160) : 257 + Rng.nextBelow(44);
    std::vector<KernelDemand> Pool(1 + Rng.nextBelow(8));
    for (KernelDemand &P : Pool) {
      P.WGThreads = 64 * (1 + Rng.nextBelow(8)); // 64..512
      P.LocalMemPerWG = Rng.nextBelow(4) * (Caps.LocalMem / 256);
      P.RegsPerThread = Rng.nextBelow(3) * 16;
    }
    bool Weighted = Rng.nextBelow(3) == 0;
    std::vector<KernelDemand> Ks;
    for (size_t I = 0; I != K; ++I) {
      KernelDemand D = Pool[Rng.nextBelow(Pool.size())];
      D.RequestedWGs = Rng.nextBelow(10) == 0 ? 0 : 1 + Rng.nextBelow(32);
      if (Weighted)
        D.Weight = Rng.nextDoubleInRange(0.5, 4.0);
      Ks.push_back(D);
    }
    for (bool Greedy : {false, true}) {
      SolverOptions Opts;
      Opts.GreedySaturation = Greedy;
      solveFairShares(Caps, Ks, Opts, Scratch, Shares);
      ASSERT_EQ(Shares, solveFairShares(Caps, Ks, Opts))
          << "trial " << Trial << " K " << K << " greedy " << Greedy;
    }
  }

  // Recurring weights. The trials above keep every weight at 1 or draw
  // a fresh continuous weight per demand, so no shape ever recurs under
  // a weight it already had after a different one. Here each demand's
  // weight is 1 or 3: the shape table caches one division per shape and
  // recomputes it at every weight change along the queue (~3.5k times
  // over the 100 trials). In 63 trials some shape's weight-1 demands
  // floor while its weight-3 demands do not, so the shape's entry
  // alternates between a floored and an unfloored division; in 20 both
  // weights floor and one footprint holds candidates of both weights;
  // 25 trials clamp.
  SplitMix64 WRng(0x3EC0DE5);
  for (int Trial = 0; Trial != 100; ++Trial) {
    const ResourceCaps &Caps = Devices[Trial % 2];
    size_t K = 1 + WRng.nextBelow(160);
    std::vector<KernelDemand> Pool(1 + WRng.nextBelow(8));
    for (KernelDemand &P : Pool) {
      P.WGThreads = 64 * (1 + WRng.nextBelow(8));
      P.LocalMemPerWG = WRng.nextBelow(4) * (Caps.LocalMem / 256);
      P.RegsPerThread = WRng.nextBelow(3) * 16;
    }
    std::vector<KernelDemand> Ks;
    for (size_t I = 0; I != K; ++I) {
      KernelDemand D = Pool[WRng.nextBelow(Pool.size())];
      D.RequestedWGs = WRng.nextBelow(10) == 0 ? 0 : 1 + WRng.nextBelow(32);
      D.Weight = WRng.nextBelow(2) ? 3.0 : 1.0;
      Ks.push_back(D);
    }
    for (bool Greedy : {false, true}) {
      SolverOptions Opts;
      Opts.GreedySaturation = Greedy;
      solveFairShares(Caps, Ks, Opts, Scratch, Shares);
      ASSERT_EQ(Shares, solveFairShares(Caps, Ks, Opts))
          << "weighted trial " << Trial << " K " << K << " greedy "
          << Greedy;
    }
  }
}

TEST(SolverInvariantTest, SoloShareMatchesSingleRequestSolve) {
  // soloShare replaces the one-request solve at every solo grant; it
  // must equal the floored K = 1 solve for every shape, weight and
  // greedy setting. The tinyCaps sweep draws work groups of up to 2048
  // threads, so single work groups larger than the device (the clamp
  // sheds the floor, launchWGs restores it) are common; the device
  // sweep covers both specs' real caps.
  auto Check = [](const ResourceCaps &Caps, const KernelDemand &D) {
    for (bool Greedy : {false, true}) {
      SolverOptions Opts;
      Opts.GreedySaturation = Greedy;
      EXPECT_EQ(soloShare(Caps, D),
                launchWGs(solveFairShares(Caps, {D}, Opts)[0]))
          << "threads " << D.WGThreads << " local " << D.LocalMemPerWG
          << " regs " << D.RegsPerThread << " requested "
          << D.RequestedWGs << " weight " << D.Weight << " greedy "
          << Greedy;
    }
  };
  SplitMix64 Rng(0x5010);
  for (int Trial = 0; Trial != 2000; ++Trial) {
    KernelDemand D;
    D.WGThreads = 1 + Rng.nextBelow(2048);
    D.LocalMemPerWG = Rng.nextBelow(2) == 0 ? 0 : Rng.nextBelow(96 << 10);
    D.RegsPerThread = Rng.nextBelow(2) == 0 ? 0 : Rng.nextBelow(256);
    D.RequestedWGs = Rng.nextBelow(16) == 0 ? 0 : 1 + Rng.nextBelow(64);
    D.Weight = Rng.nextDoubleInRange(0.01, 64.0);
    Check(tinyCaps(), D);
  }
  const ResourceCaps Specs[2] = {
      ResourceCaps::fromDevice(sim::DeviceSpec::nvidiaK20m()),
      ResourceCaps::fromDevice(sim::DeviceSpec::amdR9295X2())};
  for (int Trial = 0; Trial != 2000; ++Trial) {
    KernelDemand D;
    D.WGThreads = 1 + Rng.nextBelow(1024);
    D.LocalMemPerWG = Rng.nextBelow(2) == 0 ? 0 : Rng.nextBelow(64 << 10);
    D.RegsPerThread = Rng.nextBelow(2) == 0 ? 0 : Rng.nextBelow(256);
    D.RequestedWGs = 1 + Rng.nextBelow(4096);
    D.Weight = Rng.nextDoubleInRange(0.01, 64.0);
    Check(Specs[Trial % 2], D);
  }
}

TEST(ContinuousSchedulerTest, IncrementalMatchesFullSolveOnEventSoup) {
  // The tentpole property: drive the incremental scheduler and the
  // pre-optimization full-solve reference through an identical
  // randomized arrival/completion soup (shape pool, mixed weights,
  // zero-work requests) and require every admission pass's grants to be
  // bit-identical, with the fast-path/fallback split visible in the
  // stats. A SelfCheck instance rides along so debug builds also
  // exercise the internal re-solve assertion.
  SplitMix64 Rng(0xD15C0);
  ResourceCaps Caps = tinyCaps();
  SolverOptions FullOpts;
  SchedulerOptions FullSched;
  FullSched.Incremental = false;
  ContinuousScheduler Full(Caps, FullOpts, FullSched);
  ContinuousScheduler Inc(Caps);
  SchedulerOptions CheckedSched;
  CheckedSched.SelfCheck = true;
  ContinuousScheduler Checked(Caps, {}, CheckedSched);

  std::vector<uint64_t> InFlight;
  uint64_t NextId = 1;
  for (int Event = 0; Event != 600; ++Event) {
    if (!InFlight.empty() && Rng.nextBelow(3) == 0) {
      size_t Pick = Rng.nextBelow(InFlight.size());
      uint64_t Id = InFlight[Pick];
      InFlight.erase(InFlight.begin() + Pick);
      Full.complete(Id);
      Inc.complete(Id);
      Checked.complete(Id);
    } else {
      RoundRequest R;
      R.Id = NextId++;
      R.Demand.WGThreads = 32ull << Rng.nextBelow(4);
      R.Demand.LocalMemPerWG = Rng.nextBelow(4) * 4096;
      R.Demand.RegsPerThread = Rng.nextBelow(64);
      R.Demand.RequestedWGs =
          Rng.nextBelow(5) == 0 ? 0 : 1 + Rng.nextBelow(8);
      if (Rng.nextBelow(4) == 0)
        R.Demand.Weight = 1ull << Rng.nextBelow(3);
      R.Tenant = static_cast<int>(Rng.nextBelow(6));
      Full.submit(R);
      Inc.submit(R);
      Checked.submit(R);
    }
    const std::vector<RoundGrant> &A = Full.admit();
    const std::vector<RoundGrant> &B = Inc.admit();
    const std::vector<RoundGrant> &C = Checked.admit();
    ASSERT_EQ(B.size(), A.size()) << "event " << Event;
    ASSERT_EQ(C.size(), A.size()) << "event " << Event;
    for (size_t I = 0; I != A.size(); ++I) {
      EXPECT_EQ(B[I].Id, A[I].Id) << "event " << Event;
      EXPECT_EQ(B[I].WGs, A[I].WGs) << "event " << Event;
      EXPECT_EQ(C[I].Id, A[I].Id) << "event " << Event;
      EXPECT_EQ(C[I].WGs, A[I].WGs) << "event " << Event;
    }
    for (const RoundGrant &G : A)
      if (G.WGs > 0)
        InFlight.push_back(G.Id);
  }

  const SchedulerStats &FS = Full.stats();
  const SchedulerStats &IS = Inc.stats();
  // The reference never fast-passes; the incremental path splits its
  // passes between fast paths and full-solve fallbacks, and takes at
  // least some of each on a soup this varied.
  EXPECT_EQ(FS.FastPasses, 0u);
  EXPECT_EQ(FS.RoundsPlanned, FS.FullSolves);
  EXPECT_EQ(IS.RoundsPlanned, FS.RoundsPlanned);
  EXPECT_EQ(IS.RoundsPlanned, IS.FullSolves + IS.FastPasses);
  EXPECT_GT(IS.FastPasses, 0u);
  EXPECT_LT(IS.FullSolves, IS.RoundsPlanned);
  EXPECT_EQ(IS.Deferrals, FS.Deferrals);
  EXPECT_EQ(IS.SoloRescues, FS.SoloRescues);
}

//===----------------------------------------------------------------------===//
// Stride scheduler (approximate weighted admission)
//===----------------------------------------------------------------------===//

/// A device that serves exactly one single-WG request at a time: every
/// admission pass grants one request, so grant order *is* pick order.
ResourceCaps oneSlotCaps() {
  ResourceCaps C;
  C.Threads = 64;
  C.LocalMem = 1 << 20;
  C.Regs = 1 << 20;
  C.WGSlots = 1;
  return C;
}

TEST(StrideSchedulerTest, PickFrequencyTracksTicketRatio) {
  // Weights bind over time: with deep backlogs and tickets 3:1, the
  // heavy tenant must be picked three times as often — the stride
  // invariant the serve_scale fairness gate rests on.
  StrideScheduler S(oneSlotCaps());
  std::map<uint64_t, int> TenantOf;
  uint64_t NextId = 1;
  for (int I = 0; I != 40; ++I) {
    for (int T : {0, 1}) {
      RoundRequest R;
      R.Id = NextId++;
      R.Demand = demand(64, 0, 0, 1);
      R.Demand.Weight = T == 0 ? 3.0 : 1.0;
      R.Tenant = T;
      TenantOf[R.Id] = T;
      S.submit(R);
    }
  }
  int Count[2] = {0, 0};
  for (int Pass = 0; Pass != 40; ++Pass) {
    const std::vector<RoundGrant> &G = S.admit();
    ASSERT_EQ(G.size(), 1u) << "pass " << Pass;
    ++Count[TenantOf[G.front().Id]];
    S.complete(G.front().Id);
  }
  EXPECT_GE(Count[0], 29);
  EXPECT_LE(Count[0], 31);
  EXPECT_EQ(Count[0] + Count[1], 40);
  // Every stride pass is a fast pass; the solver never runs.
  EXPECT_EQ(S.stats().FullSolves, 0u);
  EXPECT_EQ(S.stats().FastPasses, 40u);
}

TEST(StrideSchedulerTest, DeterministicReplay) {
  // Two schedulers fed the identical sequence make identical picks —
  // the determinism serve_scale's grant-history comparison needs.
  StrideScheduler A(oneSlotCaps());
  StrideScheduler B(oneSlotCaps());
  SplitMix64 Rng(0x57121DE);
  uint64_t NextId = 1;
  std::vector<uint64_t> InFlight;
  for (int Event = 0; Event != 200; ++Event) {
    if (!InFlight.empty() && Rng.nextBelow(2) == 0) {
      uint64_t Id = InFlight.front();
      InFlight.erase(InFlight.begin());
      A.complete(Id);
      B.complete(Id);
    } else {
      RoundRequest R;
      R.Id = NextId++;
      R.Demand = demand(64, 0, 0, 1);
      R.Demand.Weight = 1.0 + Rng.nextBelow(4);
      R.Tenant = static_cast<int>(Rng.nextBelow(8));
      A.submit(R);
      B.submit(R);
    }
    const std::vector<RoundGrant> &GA = A.admit();
    const std::vector<RoundGrant> &GB = B.admit();
    ASSERT_EQ(GA.size(), GB.size()) << "event " << Event;
    for (size_t I = 0; I != GA.size(); ++I) {
      EXPECT_EQ(GA[I].Id, GB[I].Id) << "event " << Event;
      EXPECT_EQ(GA[I].WGs, GB[I].WGs) << "event " << Event;
    }
    for (const RoundGrant &G : GA)
      if (G.WGs > 0)
        InFlight.push_back(G.Id);
  }
}

TEST(StrideSchedulerTest, EqualPassTiesPickInTenantOrder) {
  // DeterministicReplay compares two copies of the same code, so it
  // cannot see a change in pick order. Pin the documented (Pass,
  // tenant) order: three equal-weight tenants submitting in the order
  // 2, 0, 1 all join at pass 0, and the ties resolve by tenant id.
  StrideScheduler S(oneSlotCaps());
  for (int Tenant : {2, 0, 1}) {
    RoundRequest R;
    R.Id = static_cast<uint64_t>(10 + Tenant);
    R.Demand = demand(64, 0, 0, 1);
    R.Tenant = Tenant;
    S.submit(R);
  }
  std::vector<uint64_t> Order;
  for (int Pass = 0; Pass != 3; ++Pass) {
    const std::vector<RoundGrant> &G = S.admit();
    ASSERT_EQ(G.size(), 1u) << "pass " << Pass;
    Order.push_back(G.front().Id);
    S.complete(G.front().Id);
  }
  EXPECT_EQ(Order, (std::vector<uint64_t>{10, 11, 12}));
  EXPECT_EQ(S.pending(), 0u);
}

TEST(StrideSchedulerTest, OversizedWorkGroupIsSoloRescued) {
  // Work conservation: an idle device never refuses its minimum-pass
  // request, even one whose single work group exceeds the device.
  StrideScheduler S(tinyCaps());
  S.submit(request(9, demand(2048, 0, 4, 10)));
  const std::vector<RoundGrant> &G = S.admit();
  ASSERT_EQ(G.size(), 1u);
  EXPECT_EQ(G[0].Id, 9u);
  EXPECT_EQ(G[0].WGs, 1u);
  EXPECT_EQ(S.pending(), 0u);
  EXPECT_EQ(S.inFlight(), 1u);
  EXPECT_EQ(S.stats().SoloRescues, 1u);
  EXPECT_EQ(S.stats().Deferrals, 0u);
}

TEST(StrideSchedulerTest, ZeroWorkRequestGrantsZeroWithoutFlight) {
  StrideScheduler S(tinyCaps());
  S.submit(request(0, demand(128, 0, 4, 0)));
  const std::vector<RoundGrant> &G = S.admit();
  ASSERT_EQ(G.size(), 1u);
  EXPECT_EQ(G[0].Id, 0u);
  EXPECT_EQ(G[0].WGs, 0u);
  EXPECT_EQ(S.pending(), 0u);
  EXPECT_EQ(S.inFlight(), 0u);
  EXPECT_EQ(S.stats().SoloRescues, 0u);
}

TEST(StrideSchedulerTest, ReEntryDoesNotBankCredit) {
  // A tenant that slept through ten grants rejoins at the global pass,
  // not its own stale one: it must share from now on instead of
  // draining a banked backlog of "owed" picks.
  StrideScheduler S(oneSlotCaps());
  std::map<uint64_t, int> TenantOf;
  uint64_t NextId = 1;
  auto Submit = [&](int Tenant) {
    RoundRequest R;
    R.Id = NextId++;
    R.Demand = demand(64, 0, 0, 1);
    R.Tenant = Tenant;
    TenantOf[R.Id] = Tenant;
    S.submit(R);
  };
  for (int I = 0; I != 20; ++I)
    Submit(0);
  for (int Pass = 0; Pass != 10; ++Pass) {
    const std::vector<RoundGrant> &G = S.admit();
    ASSERT_EQ(G.size(), 1u);
    S.complete(G.front().Id);
  }
  for (int I = 0; I != 10; ++I)
    Submit(1);
  int LateTenantGrants = 0;
  for (int Pass = 0; Pass != 8; ++Pass) {
    const std::vector<RoundGrant> &G = S.admit();
    ASSERT_EQ(G.size(), 1u);
    LateTenantGrants += TenantOf[G.front().Id] == 1;
    S.complete(G.front().Id);
  }
  // Equal weights from here on: roughly alternating, never a monopoly.
  EXPECT_GE(LateTenantGrants, 3);
  EXPECT_LE(LateTenantGrants, 5);
}

} // namespace
