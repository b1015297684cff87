//===- accelos/Scheduler.cpp - Round-based kernel scheduler ------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "accelos/Scheduler.h"

#include "metrics/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace accel;
using namespace accel::accelos;

namespace {

/// Exact aggregate-footprint arithmetic for the schedulers' O(1)
/// residual accounting. Additions and subtractions are symmetric, so a
/// footprint removed is exactly the footprint that was added.
void addUse(ResourceUse &A, const ResourceUse &B) {
  A.Threads += B.Threads;
  A.LocalMem += B.LocalMem;
  A.Regs += B.Regs;
  A.WGSlots += B.WGSlots;
}

void subUse(ResourceUse &A, const ResourceUse &B) {
  assert(A.Threads >= B.Threads && A.LocalMem >= B.LocalMem &&
         A.Regs >= B.Regs && A.WGSlots >= B.WGSlots &&
         "aggregate footprint accounting went negative");
  A.Threads -= B.Threads;
  A.LocalMem -= B.LocalMem;
  A.Regs -= B.Regs;
  A.WGSlots -= B.WGSlots;
}

/// \p Caps minus \p Use, saturating at zero (a solo-rescue grant may
/// legitimately exceed the device; see ContinuousScheduler::admit).
ResourceCaps residualOf(const ResourceCaps &Caps, const ResourceUse &Use) {
  ResourceCaps Free = Caps;
  auto Sub = [](uint64_t &Cap, uint64_t U) { Cap -= std::min(Cap, U); };
  Sub(Free.Threads, Use.Threads);
  Sub(Free.LocalMem, Use.LocalMem);
  Sub(Free.Regs, Use.Regs);
  Sub(Free.WGSlots, Use.WGSlots);
  return Free;
}

/// A queued request's aggregate footprint at its full size, under the
/// same zero-thread normalization admit() applies before solving.
ResourceUse queueFootprint(const KernelDemand &D) {
  return footprintOf(D, D.WGThreads == 0 ? 0 : D.RequestedWGs);
}

} // namespace

AdmissionScheduler::~AdmissionScheduler() = default;

std::unique_ptr<AdmissionScheduler>
accelos::makeAdmissionScheduler(AdmissionMode Mode, const ResourceCaps &Caps,
                                SolverOptions Opts,
                                SchedulerOptions SchedOpts) {
  switch (Mode) {
  case AdmissionMode::RoundSync:
    return std::make_unique<RoundSyncScheduler>(Caps, Opts);
  case AdmissionMode::Stride:
    return std::make_unique<StrideScheduler>(Caps);
  case AdmissionMode::Continuous:
    break;
  }
  return std::make_unique<ContinuousScheduler>(Caps, Opts, SchedOpts);
}

RoundGrant RoundScheduler::soloGrant(const QueuedRequest &E) const {
  // soloShare floors a request whose single work group exceeds even the
  // empty device to one: the execution layer serializes it, and its work
  // must not silently disappear.
  return {E.R.Id,
          E.R.Demand.RequestedWGs == 0 ? 0 : soloShare(Caps, E.R.Demand)};
}

std::vector<RoundGrant> RoundScheduler::nextRound() {
  std::vector<RoundGrant> Grants;
  if (Queue.empty())
    return Grants;
  ++Stats.RoundsPlanned;
  ++Stats.FullSolves; // Round-synchronous planning always solves.

  Demands.clear();
  for (const QueuedRequest &E : Queue)
    Demands.push_back(E.R.Demand);
  solveFairShares(Caps, Demands, Opts, Scratch, Shares);

  // Anti-starvation: when the clamp would shed the queue head (always
  // the longest-waiting request) yet again after repeated losses, give
  // it a dedicated round instead; everyone else simply stays queued.
  if (Shares[0] == 0 && Queue.front().R.Demand.RequestedWGs != 0 &&
      Queue.front().DeferCount >= MaxDeferrals) {
    ++Stats.SoloRescues;
    Grants.push_back(soloGrant(Queue.front()));
    Queue.pop_front();
    return Grants;
  }

  std::deque<QueuedRequest> Deferred;
  for (size_t I = 0; I != Shares.size(); ++I) {
    QueuedRequest &E = Queue[I];
    // Zero-request submissions complete trivially with zero work groups
    // instead of deferring forever; clamp-shed requests wait for the
    // next, smaller round.
    if (Shares[I] == 0 && E.R.Demand.RequestedWGs != 0) {
      ++E.DeferCount;
      ++Stats.Deferrals;
      Deferred.push_back(E);
      continue;
    }
    Grants.push_back({E.R.Id, Shares[I]});
  }

  // Every request shed: force the head through alone so each round is
  // guaranteed to make progress. The head is granted in *this* round
  // after all, so the deferral charged to it above is taken back.
  if (Grants.empty()) {
    ++Stats.SoloRescues;
    --Stats.Deferrals;
    Grants.push_back(soloGrant(Deferred.front()));
    Deferred.pop_front();
  }

  Queue = std::move(Deferred);
  return Grants;
}

//===----------------------------------------------------------------------===//
// RoundSyncScheduler
//===----------------------------------------------------------------------===//

const std::vector<RoundGrant> &RoundSyncScheduler::admit() {
  Grants.clear();
  // Completion barrier. A round whose grants were all zero-work leaves
  // nothing in flight, so the next round is planned at the same event.
  while (InFlight == 0 && Rounds.pending() != 0)
    for (const RoundGrant &G : Rounds.nextRound()) {
      Grants.push_back(G);
      InFlight += G.WGs != 0;
    }
  return Grants;
}

void RoundSyncScheduler::complete(uint64_t /*Id*/) {
  assert(InFlight > 0 && "completing with no round grant in flight");
  if (InFlight > 0)
    --InFlight;
}

//===----------------------------------------------------------------------===//
// ResidualScheduler
//===----------------------------------------------------------------------===//

ResourceCaps ResidualScheduler::residual() const {
  return residualOf(Caps, FlightUse);
}

void ResidualScheduler::addFlight(uint64_t Id, const KernelDemand &D,
                                  uint64_t WGs) {
  auto It = std::lower_bound(FlightIds.begin(), FlightIds.end(), Id);
  assert((It == FlightIds.end() || *It != Id) &&
         "request admitted while already in flight");
  size_t Row = static_cast<size_t>(It - FlightIds.begin());
  FlightIds.insert(It, Id);
  KernelDemand &F = *Flights.insert(Flights.begin() + Row, D);
  F.RequestedWGs = WGs;
  assert((Row == 0 || FlightIds[Row - 1] < Id) &&
         (Row + 1 == FlightIds.size() || Id < FlightIds[Row + 1]) &&
         "in-flight ledger out of id order");
  addUse(FlightUse, footprintOf(D, WGs));
}

void ResidualScheduler::complete(uint64_t Id) {
  auto It = std::lower_bound(FlightIds.begin(), FlightIds.end(), Id);
  assert(It != FlightIds.end() && *It == Id &&
         "completing an execution that is not in flight");
  if (It == FlightIds.end() || *It != Id)
    return;
  auto Row = Flights.begin() + (It - FlightIds.begin());
  subUse(FlightUse, footprintOf(*Row, Row->RequestedWGs));
  FlightIds.erase(It);
  Flights.erase(Row);
}

void ResidualScheduler::shrink(uint64_t Id, uint64_t WGs) {
  auto It = std::lower_bound(FlightIds.begin(), FlightIds.end(), Id);
  assert(It != FlightIds.end() && *It == Id &&
         "shrinking an execution not in flight");
  KernelDemand &F = Flights[static_cast<size_t>(It - FlightIds.begin())];
  assert(WGs > 0 && WGs <= F.RequestedWGs &&
         "shrink must narrow a grant, not grow it");
  subUse(FlightUse, footprintOf(F, F.RequestedWGs - WGs));
  F.RequestedWGs = WGs;
}

void ResidualScheduler::checkFlightUse() const {
#ifndef NDEBUG
  ResourceUse Sum;
  for (const KernelDemand &F : Flights)
    addUse(Sum, footprintOf(F, F.RequestedWGs));
  assert(Sum.Threads == FlightUse.Threads &&
         Sum.LocalMem == FlightUse.LocalMem && Sum.Regs == FlightUse.Regs &&
         Sum.WGSlots == FlightUse.WGSlots &&
         "in-flight footprint aggregate out of sync with the ledger");
#endif
}

//===----------------------------------------------------------------------===//
// ContinuousScheduler
//===----------------------------------------------------------------------===//

void ContinuousScheduler::submit(const RoundRequest &R) {
  Queue.push_back({R, 0});
  addUse(QueueUse, queueFootprint(R.Demand));
  if (R.Demand.RequestedWGs > 0 && R.Demand.WGThreads > 0)
    MinWGThreads = std::min(MinWGThreads, R.Demand.WGThreads);
}

void ContinuousScheduler::collectDemands() {
  Demands.assign(Flights.begin(), Flights.end());
  for (const QueuedRequest &E : Queue) {
    KernelDemand D = E.R.Demand;
    // Degenerate zero-thread demands must not reach the solver's (or
    // fittingWGs') divisions; they are granted zero work groups below.
    if (D.WGThreads == 0)
      D.RequestedWGs = 0;
    Demands.push_back(D);
  }
}

void ContinuousScheduler::solveTargets(size_t QueueBase) {
  if (SchedOpts.Incremental && Opts.GreedySaturation) {
    // Underload rule: if every in-flight grant plus every queued
    // request at its full size fits the device in aggregate, then (a)
    // the base divisions cannot oversubscribe (each is at most the full
    // request), so the clamp never fires, and (b) greedy saturation —
    // equal-weight or weighted — grows every share until its request,
    // since no intermediate step can exceed the fitting aggregate.
    // The solve's answer is therefore "everyone gets what they asked
    // for", share for share.
    ResourceUse Total = FlightUse;
    addUse(Total, QueueUse);
    if (Total.Threads <= Caps.Threads && Total.LocalMem <= Caps.LocalMem &&
        Total.Regs <= Caps.Regs && Total.WGSlots <= Caps.WGSlots) {
      ++Stats.FastPasses;
      Shares.assign(QueueBase + Queue.size(), 0);
      for (size_t I = 0; I != Queue.size(); ++I) {
        const KernelDemand &D = Queue[I].R.Demand;
        Shares[QueueBase + I] = D.WGThreads == 0 ? 0 : D.RequestedWGs;
      }
#ifndef NDEBUG
      if (SchedOpts.SelfCheck) {
        collectDemands();
        std::vector<uint64_t> Ref = solveFairShares(Caps, Demands, Opts);
        for (size_t I = 0; I != Queue.size(); ++I)
          assert(Shares[QueueBase + I] == Ref[QueueBase + I] &&
                 "underload fast path diverged from the full solve");
      }
#endif
      return;
    }
    // No-capacity rule: the device is occupied and not one work group
    // of any work-carrying queued request fits the residual, so every
    // grant below clamps to zero whatever the solver would say — and
    // with flights present the solo rescue cannot fire either. (With
    // an *empty* device the full path must run: work conservation may
    // force an over-sized grant through.) Shares do not need to match
    // the solve here, only the grants do; the zero vector yields the
    // same min(target, fittingWGs) == 0 for every entry.
    if (!Flights.empty()) {
      ResourceCaps Free = residual();
      bool AnyFits = false;
      // Every work-carrying request needs at least one slot and
      // MinWGThreads threads, so a residual below both bounds rules
      // out every fit without the per-entry divisions.
      if (Free.WGSlots != 0 && Free.Threads >= MinWGThreads)
        for (const QueuedRequest &E : Queue) {
          const KernelDemand &D = E.R.Demand;
          if (D.RequestedWGs == 0 || D.WGThreads == 0)
            continue;
          if (fittingWGs(Free, D) > 0) {
            AnyFits = true;
            break;
          }
        }
      if (!AnyFits) {
        ++Stats.FastPasses;
        Shares.assign(QueueBase + Queue.size(), 0);
        return;
      }
    }
  }

  // Full solve: fair-share targets over everything active. In-flight
  // executions keep their grants (no preemption) but stay in the
  // divisor, capped at what they actually occupy, so a pending
  // request's target is the share it deserves *next to* the current
  // residents.
  ++Stats.FullSolves;
  collectDemands();
  if (!SchedOpts.Incremental) {
    // Reference mode: the pre-optimization hot path, verbatim — a
    // fresh allocating solve every pass (serve_scale's full-solve
    // baseline).
    Shares = solveFairShares(Caps, Demands, Opts);
    return;
  }
  solveFairShares(Caps, Demands, Opts, Scratch, Shares);
#ifndef NDEBUG
  if (SchedOpts.SelfCheck) {
    std::vector<uint64_t> Ref = solveFairShares(Caps, Demands, Opts);
    assert(Ref == Shares &&
           "allocation-free solve diverged from the reference solve");
  }
#endif
}

const std::vector<RoundGrant> &ContinuousScheduler::admit() {
  checkFlightUse();
  Grants.clear();
  if (Queue.empty())
    return Grants;
  ++Stats.RoundsPlanned;

  // Queue entries follow the in-flight block in the solve; grants below
  // grow Flights, so the offset must be pinned here.
  const size_t QueueBase = Flights.size();
  solveTargets(QueueBase);

  // Admission order. The paper-default equal-weight discipline is plain
  // FIFO (kept verbatim: bit-identical). With non-equal weights, FIFO
  // would defeat the weights exactly under saturation — a heavy
  // tenant's requeued slice waits out every lighter request ahead of it
  // each cycle — so pending requests are served highest-weight first,
  // FIFO among equal weights. A starving request (DeferCount at the
  // MaxDeferrals bound) goes first regardless of weight, so weighted
  // priority cannot bypass anyone indefinitely.
  Order.resize(Queue.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  // Mixed-weight detection over work-carrying entries only: zero-work
  // submissions complete trivially wherever they sit, so their weights
  // must not flip the queue into priority order.
  bool MixedWeights = false;
  double RefWeight = 0;
  bool HaveRef = false;
  for (const QueuedRequest &E : Queue) {
    if (E.R.Demand.RequestedWGs == 0)
      continue;
    if (!HaveRef) {
      RefWeight = E.R.Demand.Weight;
      HaveRef = true;
    } else if (E.R.Demand.Weight != RefWeight) {
      MixedWeights = true;
      break;
    }
  }
  if (MixedWeights)
    std::stable_sort(Order.begin(), Order.end(),
                     [&](size_t A, size_t B) {
                       bool SA = Queue[A].DeferCount >= MaxDeferrals;
                       bool SB = Queue[B].DeferCount >= MaxDeferrals;
                       if (SA != SB)
                         return SA;
                       return Queue[A].R.Demand.Weight >
                              Queue[B].R.Demand.Weight;
                     });

  ResourceCaps Free = residual();
  // Residual-exhaustion bound: every work-carrying demand needs at
  // least one slot and at least MinWGThreads threads, so once Free
  // drops below either, fittingWGs() is zero for the rest of the pass
  // and its divisions are skipped.
  auto Exhausted = [&]() {
    return Free.WGSlots == 0 || Free.Threads < MinWGThreads;
  };
  // The requests that stay queued, in admission order.
  Kept.clear();
  // Everyone still in Kept when a later grant lands was overtaken; each
  // is charged at most one deferral per pass.
  size_t ChargedUpTo = 0;
  bool Blocked = false;
  bool AnyCapacityGrant = false;
  for (size_t OI = 0; OI != Order.size(); ++OI) {
    QueuedRequest &E = Queue[Order[OI]];
    uint64_t Target = Shares[QueueBase + Order[OI]];
    // Zero-work (or degenerate zero-thread) requests complete
    // trivially: zero work groups, no flight, no capacity. (Their
    // queueFootprint is all-zero, so QueueUse needs no update.)
    if (E.R.Demand.RequestedWGs == 0 || E.R.Demand.WGThreads == 0) {
      Grants.push_back({E.R.Id, 0});
      continue;
    }
    uint64_t WGs = 0;
    if (!Blocked) {
      // min(0, fit) needs no division, and an exhausted residual fits
      // nothing; both skips leave WGs at the zero the full expression
      // would have produced.
      if (Target != 0 && !Exhausted())
        WGs = std::min(Target, fittingWGs(Free, E.R.Demand));
      if (WGs == 0 && Flights.empty() && !AnyCapacityGrant) {
        // Work conservation: an idle device never refuses its oldest
        // request. Mirror the round scheduler's solo grant (soloShare
        // floors the pathological over-sized single work group).
        WGs = soloShare(Caps, E.R.Demand);
        ++Stats.SoloRescues;
      }
    }
    if (WGs == 0) {
      if (E.DeferCount >= MaxDeferrals)
        Blocked = true; // Starving: hold every younger request back.
      Kept.push_back(E);
      continue;
    }
    // FIFO order: everyone still in Kept when this (younger) grant
    // lands was overtaken. Under weighted priority the grants land
    // FIRST (heaviest served before anyone is kept), so this loop
    // would never charge exactly the requests being bypassed; the
    // whole-pass charge below replaces it.
    if (!MixedWeights) {
      for (size_t J = ChargedUpTo; J != Kept.size(); ++J) {
        ++Kept[J].DeferCount;
        ++Stats.Deferrals;
      }
      ChargedUpTo = Kept.size();
    }
    Grants.push_back({E.R.Id, WGs});
    addFlight(E.R.Id, E.R.Demand, WGs);
    subUse(QueueUse, queueFootprint(E.R.Demand));
    Free = residualOf(Free, footprintOf(E.R.Demand, WGs));
    AnyCapacityGrant = true;
  }

  // Weighted priority: every work-carrying request passed over while
  // this pass granted capacity was bypassed, no matter where the grant
  // sat in the iteration. Charging here (once per pass) is what makes
  // the starving-first override reachable — after MaxDeferrals such
  // passes the request sorts ahead of any weight.
  if (MixedWeights && AnyCapacityGrant)
    for (QueuedRequest &E : Kept)
      if (E.R.Demand.RequestedWGs > 0) {
        ++E.DeferCount;
        ++Stats.Deferrals;
      }

  Queue.swap(Kept); // swap, not move: both deques keep their capacity.
  return Grants;
}

//===----------------------------------------------------------------------===//
// StrideScheduler
//===----------------------------------------------------------------------===//

void StrideScheduler::submit(const RoundRequest &R) {
  TenantState &T = Tenants[R.Tenant];
  double Tickets = R.Demand.Weight > 0 ? R.Demand.Weight : 1.0;
  if (Tickets != T.Tickets) {
    T.Tickets = Tickets;
    T.Stride = Stride1 / Tickets;
  }
  if (T.Queue.empty()) {
    // Re-entry rule: an idle tenant joins at the global pass (or its
    // own, if ahead), so sleeping never banks scheduling credit.
    T.Pass = std::max(T.Pass, GlobalPass);
    Ready.push({T.Pass, R.Tenant});
  }
  T.Queue.push_back({R, 0});
  ++Pending;
}

void StrideScheduler::clear() {
  for (auto &[Tid, T] : Tenants)
    T.Queue.clear();
  Ready = {};
  Pending = 0;
}

const std::vector<RoundGrant> &StrideScheduler::admit() {
#ifndef NDEBUG
  size_t Queued = 0;
  for (const auto &[Tid, T] : Tenants)
    Queued += !T.Queue.empty();
  assert(Ready.size() == Queued &&
         "pick index out of sync with the tenants' queues");
#endif
  checkFlightUse();
  Grants.clear();
  if (Pending == 0)
    return Grants;
  ++Stats.RoundsPlanned;
  ++Stats.FastPasses; // Stride never solves; every pass is a fast pass.

  ResourceCaps Free = residual();
  const ResourceCaps PassFree = Free;
  const uint64_t ActiveAtStart = Ready.size();
  Skipped.clear();
  bool Blocked = false;
  bool AnyCapacityGrant = false;
  while (!Ready.empty() && !Blocked) {
    const auto [Pass, Tid] = Ready.top();
    TenantState &T = Tenants[Tid];
    QueuedRequest &E = T.Queue.front();
    const KernelDemand &D = E.R.Demand;
    // Zero-work (or degenerate zero-thread) requests complete
    // trivially and consume no pass credit.
    if (D.RequestedWGs == 0 || D.WGThreads == 0) {
      Grants.push_back({E.R.Id, 0});
      T.Queue.pop_front();
      --Pending;
      if (T.Queue.empty())
        Ready.pop();
      continue;
    }
    uint64_t WGs = std::min(D.RequestedWGs, fittingWGs(Free, D));
    if (WGs > 0 && ActiveAtStart > 1) {
      // Equal split of the pass's starting residual across the tenants
      // waiting at pass start: space is shared concurrently; the
      // weights bind through pick frequency, not share size.
      ResourceCaps Split{PassFree.Threads / ActiveAtStart,
                         PassFree.LocalMem / ActiveAtStart,
                         PassFree.Regs / ActiveAtStart,
                         PassFree.WGSlots / ActiveAtStart};
      WGs = std::min(WGs, std::max<uint64_t>(fittingWGs(Split, D), 1));
    } else if (WGs == 0 && Flights.empty() && !AnyCapacityGrant) {
      // Work conservation: an idle device never refuses its
      // minimum-pass request, even one whose single work group exceeds
      // the device (serialized downstream, like the solo rescues of
      // the fair-share schedulers).
      WGs = soloShare(Caps, D);
      ++Stats.SoloRescues;
    }
    if (WGs == 0) {
      // Does not fit: bypass this tenant for the rest of the pass. A
      // starving head (MaxDeferrals bypasses) blocks every
      // higher-pass grant until capacity drains back.
      if (E.DeferCount >= MaxDeferrals)
        Blocked = true;
      Skipped.push_back(Tid);
      Ready.pop();
      continue;
    }
    Grants.push_back({E.R.Id, WGs});
    addFlight(E.R.Id, D, WGs);
    Free = residualOf(Free, footprintOf(D, WGs));
    AnyCapacityGrant = true;
    T.Queue.pop_front();
    --Pending;
    // Advance the clock: the tenant pays one stride per granted
    // request, and the global pass tracks the service frontier.
    GlobalPass = std::max(GlobalPass, Pass);
    Ready.pop();
    T.Pass = Pass + T.Stride;
    if (!T.Queue.empty())
      Ready.push({T.Pass, Tid});
  }
  // Re-arm the bypassed tenants (their pass values are unchanged, so
  // they only sink in the pick order while others advance); each
  // bypassed head is charged one deferral per pass that granted
  // capacity over it.
  for (int Tid : Skipped) {
    TenantState &T = Tenants[Tid];
    if (AnyCapacityGrant) {
      ++T.Queue.front().DeferCount;
      ++Stats.Deferrals;
    }
    Ready.push({T.Pass, Tid});
  }
  return Grants;
}

//===----------------------------------------------------------------------===//
// SloWeightController
//===----------------------------------------------------------------------===//

SloWeightController::SloWeightController(
    const std::map<int, double> &Targets,
    const std::map<int, double> &BaseWeights, double Interval,
    SloControllerOptions Opts)
    : Interval(Interval), NextUpdate(Interval), Opts(Opts) {
  assert(Interval > 0 && "non-positive control interval");
  for (const auto &[Tenant, Base] : BaseWeights) {
    assert(Base > 0 && "non-positive static weight");
    Tenants[Tenant].Base = Base;
  }
  for (const auto &[Tenant, Target] : Targets) {
    assert(Target > 0 && "non-positive SLO target");
    Tenants[Tenant].Target = Target;
  }
}

SloWeightController::TenantState &SloWeightController::state(int Tenant) {
  return Tenants[Tenant]; // Default state: no target, base 1, boost 1.
}

void SloWeightController::observe(int Tenant, double QueueDelay) {
  TenantState &S = state(Tenant);
  if (S.Target > 0)
    S.Window.push_back(QueueDelay);
}

bool SloWeightController::maybeUpdate(double Now) {
  if (Now < NextUpdate)
    return false;
  // Events can be sparse; re-arm one interval from *now* rather than
  // replaying every missed period against the same stale window.
  NextUpdate = Now + Interval;
  ++Stats.Updates;

  bool Changed = false;
  for (auto &[Tenant, S] : Tenants) {
    std::vector<double> Window = std::move(S.Window);
    S.Window.clear();
    if (S.Target <= 0 || Window.size() < Opts.MinSamples)
      continue;
    double P95 = metrics::latencyPercentile(std::move(Window), 95);
    if (P95 > S.Target) {
      // Missed SLO: multiplicative increase toward the bound.
      double Next = std::min(S.Boost * IncreaseFactor, MaxBoost);
      Changed |= Next != S.Boost;
      if (Next != S.Boost)
        ++Stats.Increases;
      S.Boost = Next;
    } else if (P95 <= Opts.Headroom * S.Target && S.Boost > 1.0) {
      // Comfortable attainment: decay back toward the static weight.
      S.Boost = std::max(S.Boost / DecayFactor, 1.0);
      ++Stats.Decays;
      Changed = true;
    }
  }
  return Changed;
}

double SloWeightController::weight(int Tenant) const {
  auto It = Tenants.find(Tenant);
  return It == Tenants.end() ? 1.0 : It->second.Base * It->second.Boost;
}

double SloWeightController::boost(int Tenant) const {
  auto It = Tenants.find(Tenant);
  return It == Tenants.end() ? 1.0 : It->second.Boost;
}

std::map<int, double> SloWeightController::weights() const {
  std::map<int, double> Out;
  for (const auto &[Tenant, S] : Tenants)
    Out[Tenant] = S.Base * S.Boost;
  return Out;
}
