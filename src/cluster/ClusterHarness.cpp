//===- cluster/ClusterHarness.cpp - Fleet-wide serving loop ------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "cluster/ClusterHarness.h"

#include "accelos/Scheduler.h"
#include "harness/ReplayDetail.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <memory>
#include <optional>

using namespace accel;
using namespace accel::harness;
using detail::ArrivalSource;
using detail::ReplayRequest;
using detail::ReplayState;

namespace {

/// Binding::Device of a request bound to no device.
constexpr size_t NoDevice = static_cast<size_t>(-1);
/// Binding::Fault of a request no fault's recovery waits on.
constexpr size_t NoFault = static_cast<size_t>(-1);
constexpr double Inf = std::numeric_limits<double>::infinity();

/// One device of a replay: its view plus the two probes placement
/// reads. runClusterReplay fills the list from its Fleet, whose views
/// share one compiled suite; the single-device replays fill it from
/// their one driver without building a Fleet (Fleet::addDevice probes
/// every solo duration).
struct ReplayDevice {
  ExperimentDriver *Driver = nullptr;
  double ServiceRate = 1.0; ///< Fleet::serviceRate.
  double MeanSolo = 0;      ///< Fleet::meanSoloDuration (Blind estimates).
};

/// One fleet member's live serving state. Outstanding work lives in
/// the policy's load view (PlacementPolicy::loads()) — the lifecycle
/// notifications keep it current, and the replay reads it back for
/// migration decisions instead of keeping a second tally.
struct DeviceState {
  std::optional<sim::EngineSession> Session;
  std::unique_ptr<accelos::AdmissionScheduler> Sched;
  /// An admission pass is pending (an arrival or completion changed
  /// this device's queue or residual capacity). Starts true.
  bool NeedAdmit = true;
  /// In the serving set: placements, admission, and migration targets
  /// all require Alive. Mirrors the policy view's DeviceLoad::Alive.
  bool Alive = true;
  /// The session's nextEventTime() and whether it has work in flight,
  /// re-read after every admission pass, advance and cancelAll: the
  /// only calls that change either. The fleet loop reads them every
  /// iteration; the cache saves a call into the engine's translation
  /// unit per device there.
  double NextEvent = -1;
  bool Busy = false;
  /// Busy time is a sum of busy intervals, each opened and closed at
  /// the merged time where refresh() sees Busy flip, so it does not
  /// depend on how finely the merged clock steps in between.
  double BusySince = 0;
  double BusyTime = 0;
  size_t PlacedRequests = 0;
};

/// One request's binding to the fleet. bind() gives it a device, unbind()
/// takes it away (failover, migration), and settle() ends it.
struct Binding {
  /// The device serving it; NoDevice while unbound (before its first
  /// placement, parked, between an unbind and a bind, and settled).
  size_t Device = NoDevice;
  double Accounted = 0;    ///< Remaining cost in the policy's view.
  size_t CountedWGs = 0;   ///< Cursor already counted in ExecutedWGs.
  size_t Fault = NoFault;  ///< The fault whose recovery waits on it.
  uint32_t Migrations = 0; ///< Voluntary migrations so far.
  bool Settled = false;    ///< Finished or lost.
};

/// The merged-clock replay over N per-device admission schedulers —
/// the one continuous accelOS replay loop; runStream and runClosedLoop
/// run it on a one-device view. Each iteration (1) applies scripted
/// fleet-capacity events due at the current merged time, (2) places and
/// submits every arrival due from the arrival source, (3) runs the
/// pending admission passes device by device, (4) moves the merged
/// clock on to the next instant the fleet must see. The device with the
/// earliest next event runs ahead, bounded by the next event anywhere
/// else: another device's, the next arrival, the next fleet-plan event.
/// Until then its leg events touch only its own session, so it runs on
/// to the first instant that completes a launch (or at which the SLO
/// controller's next update is due), and the merged clock moves there.
/// Every other device with an event due at that instant steps to it,
/// and the completions are reacted to in fleet order (deciding
/// migrations at those quantum-slice boundaries). A session with
/// nothing due lags behind the merged clock until the replay next
/// touches it; none runs past it. A device's busy time is a sum of busy
/// intervals, opened and closed where the loop sees its session's
/// in-flight state flip.
///
/// Every request gets each device through bind() — its first placement,
/// a failover, a migration — and ends exactly once through settle():
/// finished or lost.
class ClusterReplay {
public:
  ClusterReplay(const std::vector<ReplayDevice> &Fleet,
                cluster::PlacementPolicy &Policy, ArrivalSource &Src,
                const ClusterOptions &Opts, ClusterOutcome &Out)
      : RS(Opts.Stream, Opts.Mode, *Fleet[0].Driver, Out.Stream), Src(Src),
        Fleet(Fleet), Policy(Policy), Opts(Opts), Out(Out) {
    Plan = Opts.FleetPlan;
    std::stable_sort(Plan.begin(), Plan.end(),
                     [](const FleetEvent &A, const FleetEvent &B) {
                       return A.Time < B.Time;
                     });
    // A device whose first scripted event is Up joins the fleet later
    // (elastic scale-up): it starts outside the serving set.
    std::vector<bool> Alive(Fleet.size(), true);
    std::vector<bool> Seen(Fleet.size(), false);
    for (const FleetEvent &E : Plan) {
      assert(E.Device < Fleet.size() &&
             "fleet plan names an unknown device");
      if (!Seen[E.Device]) {
        Seen[E.Device] = true;
        if (E.What == FleetEvent::Kind::Up)
          Alive[E.Device] = false;
      }
    }
    // RoundSync, the StreamOptions default, means Continuous here: a
    // fleet has no global round boundary.
    const accelos::AdmissionMode Mode =
        Opts.Stream.Admission == accelos::AdmissionMode::Stride
            ? accelos::AdmissionMode::Stride
            : accelos::AdmissionMode::Continuous;
    Devices.resize(Fleet.size());
    std::vector<double> Rates(Fleet.size());
    for (size_t D = 0; D != Fleet.size(); ++D) {
      assert(Fleet[D].Driver->suite() == Fleet[0].Driver->suite() &&
             "the devices of one replay must share a compiled suite");
      const sim::DeviceSpec &Spec = Fleet[D].Driver->device();
      Devices[D].Alive = Alive[D];
      Devices[D].Session.emplace(Spec);
      Devices[D].Sched = accelos::makeAdmissionScheduler(
          Mode, accelos::ResourceCaps::fromDevice(Spec),
          detail::solverOptsFor(Opts.Stream),
          detail::schedOptsFor(Opts.Stream));
      Rates[D] = Fleet[D].ServiceRate;
    }
    Policy.attach(std::move(Rates), Alive);
    if (Opts.Stream.AdaptiveSloWeights) {
      assert(Opts.Stream.SloControlInterval > 0 &&
             "adaptive SLO weights need a positive control interval");
      Ctl.emplace(Opts.Stream.SloTargets, Opts.Stream.Weights,
                  Opts.Stream.SloControlInterval, Opts.Stream.SloTuning);
      RS.adoptController(&*Ctl);
    }
  }

  ReplayState RS;
  ArrivalSource &Src;
  size_t Completed = 0;

  bool anyAlive() const {
    for (const DeviceState &DS : Devices)
      if (DS.Alive)
        return true;
    return false;
  }

  /// Will any device (re)join later? While true, requests that cannot
  /// be placed wait parked instead of being lost.
  bool pendingUp() const {
    for (size_t P = PlanCursor; P != Plan.size(); ++P)
      if (Plan[P].What == FleetEvent::Kind::Up)
        return true;
    return false;
  }

  /// Applies every scripted fleet event due at merged time \p T, in
  /// plan order — before the arrivals of the same instant, so a
  /// request arriving the moment a device dies never lands on it.
  void applyPlan(double T) {
    while (PlanCursor != Plan.size() && Plan[PlanCursor].Time <= T) {
      const FleetEvent &E = Plan[PlanCursor++];
      if (E.What == FleetEvent::Kind::Down)
        applyDown(E.Device, T);
      else
        applyUp(E.Device, T);
    }
  }

  /// The source's next arrival, due at merged time \p T: place it, or
  /// park/lose it when the whole fleet is out of service. An unplaced
  /// request is materialized with device 0's isolated baseline, which
  /// its first bind() replaces.
  void arrive(double T) {
    bool Placeable = anyAlive();
    size_t D = 0;
    if (Placeable) {
      workloads::TimedRequest R = Src.peek();
      D = decide(R.Tenant, R.KernelIdx, R.ArrivalTime);
    }
    size_t Idx = Src.take(RS, *Fleet[D].Driver);
    Bindings.emplace_back();
    Out.Placement.push_back(Fleet.size());
    Out.Retries.push_back(0);
    Out.RequestedWGs += RS.remainingGroups(Idx);
    if (Placeable)
      bind(Idx, D, T, /*Failover=*/false);
    else if (pendingUp())
      Parked.push_back(Idx);
    else
      settle(Idx, std::max(T, Out.Stream.Requests[Idx].ArrivalTime),
             /*Lost=*/true);
  }

  /// Runs the pending admission passes of every in-service device, in
  /// fleet order.
  void admitAll(double T) {
    for (size_t D = 0; D != Devices.size(); ++D) {
      DeviceState &DS = Devices[D];
      if (!DS.Alive || !DS.NeedAdmit)
        continue;
      catchUp(DS, T);
      while (DS.NeedAdmit)
        DS.NeedAdmit = detail::admissionPass(*DS.Sched, *DS.Session, RS, T);
      refresh(DS, T);
    }
  }

  /// Debug builds: every device's cached session state is current, and
  /// no session has run past merged time \p T.
  void checkCached([[maybe_unused]] double T) const {
#ifndef NDEBUG
    for (const DeviceState &DS : Devices) {
      assert(DS.NextEvent == DS.Session->nextEventTime() &&
             "cached next event time out of date");
      assert(DS.Busy == (DS.Session->inFlight() > 0) &&
             "cached in-flight flag out of date");
      assert(DS.Session->now() <= T && "a session ran past the merged clock");
    }
#endif
  }

  /// Moves the merged clock on to the next instant the fleet must see,
  /// stepping the devices with an event due by then and reacting to
  /// their completions (the class comment's step 4). \returns the new
  /// merged time.
  double advanceAll() {
    // The device with the earliest next event (the first in fleet order
    // on a tie) leads; every other pending event bounds its run. Equal
    // times are inclusive, so tied devices step together.
    double Bound = Src.empty() ? Inf : Src.nextTime();
    if (PlanCursor != Plan.size())
      Bound = std::min(Bound, Plan[PlanCursor].Time);
    size_t Lead = NoDevice;
    double LeadAt = Inf;
    for (size_t D = 0; D != Devices.size(); ++D) {
      double Next = Devices[D].NextEvent;
      if (Next < 0)
        continue;
      if (Next < LeadAt) {
        Bound = std::min(Bound, LeadAt);
        Lead = D;
        LeadAt = Next;
      } else {
        Bound = std::min(Bound, Next);
      }
    }
    double NewNow = Bound;
    if (Lead != NoDevice && LeadAt <= Bound) {
      sim::EngineSession &S = *Devices[Lead].Session;
      S.advanceUntil(Bound, Ctl ? Ctl->nextUpdate() : Inf, LeadDone);
      NewNow = S.now();
    } else {
      Lead = NoDevice; // No session has an event by Bound.
    }
    assert(NewNow != Inf && "replay stalled with unfinished requests");
    for (size_t D = 0; D != Devices.size(); ++D) {
      DeviceState &DS = Devices[D];
      const std::vector<sim::KernelExecResult> *Done = &LeadDone;
      if (D != Lead) {
        if (DS.NextEvent < 0 || DS.NextEvent > NewNow)
          continue;
        // The reactions below touch schedulers and the policy, never a
        // session, so one completion buffer serves every other device.
        DS.Session->advanceTo(NewNow, RS.CompletionBuf);
        Done = &RS.CompletionBuf;
      }
      refresh(DS, NewNow);
      for (const sim::KernelExecResult &K : *Done) {
        size_t Idx = static_cast<size_t>(K.AppId);
        RS.recordSlice(Idx, K.StartTime, K.EndTime);
        DS.Sched->complete(Idx);
        DS.NeedAdmit = true;
        ++Out.Stream.EngineCompletions;
        // Drain the slice's work from the policy's load view and count
        // its groups into the conservation ledger.
        const ReplayRequest &R = RS.Requests[Idx];
        Binding &B = Bindings[Idx];
        bool Finished = RS.remainingGroups(Idx) == 0;
        Policy.completeOn(D, B.Accounted - R.RemainingCost, Finished);
        B.Accounted = R.RemainingCost;
        Out.ExecutedWGs += R.Cursor - B.CountedWGs;
        B.CountedWGs = R.Cursor;
        // A sliced request is at a quantum boundary: either the policy
        // steals the remainder for an underloaded device, or it requeues
        // on the SAME device and re-enters its fair-share solve here.
        if (Finished)
          settle(Idx, K.EndTime, /*Lost=*/false);
        else if (!maybeMigrate(Idx, D, K.EndTime))
          submit(Idx, D);
      }
    }
    if (Ctl && Ctl->maybeUpdate(NewNow))
      ++Out.Stream.WeightUpdates;
    return NewNow;
  }

  /// Folds per-device scheduler stats and utilization into the outcome.
  void finalize() {
    assert(std::all_of(Bindings.begin(), Bindings.end(),
                       [](const Binding &B) { return B.Settled; }) &&
           "a request never settled");
    RS.finalize();
    Out.Devices.resize(Devices.size());
    for (size_t D = 0; D != Devices.size(); ++D) {
      assert(!Devices[D].Busy && "a device still busy after the last request");
      ClusterDeviceOutcome &DO = Out.Devices[D];
      const accelos::SchedulerStats &S = Devices[D].Sched->stats();
      DO.Name = Fleet[D].Driver->device().Name;
      DO.Requests = Devices[D].PlacedRequests;
      DO.BusyTime = Devices[D].BusyTime;
      DO.Utilization = Out.Stream.Makespan > 0
                           ? Devices[D].BusyTime / Out.Stream.Makespan
                           : 0;
      DO.Rounds = S.RoundsPlanned;
      DO.Deferrals = S.Deferrals;
      Out.Stream.Rounds += DO.Rounds;
      Out.Stream.Deferrals += DO.Deferrals;
      Out.Stream.FullSolves += S.FullSolves;
      Out.Stream.FastPasses += S.FastPasses;
    }
  }

private:
  void submit(size_t Idx, size_t D) {
    detail::submitRequest(*Devices[D].Sched, RS, Idx);
  }

  /// Re-reads \p DS's cached session state at merged time \p At; a
  /// flip of Busy opens or closes a busy interval there.
  static void refresh(DeviceState &DS, double At) {
    DS.NextEvent = DS.Session->nextEventTime();
    bool Busy = DS.Session->inFlight() > 0;
    if (Busy == DS.Busy)
      return;
    if (Busy)
      DS.BusySince = At;
    else
      DS.BusyTime += At - DS.BusySince;
    DS.Busy = Busy;
  }

  /// Brings \p DS's session, which the loop may have left lagging, to
  /// merged time \p T before the replay touches it. The loop steps
  /// every session with an event due, so this only moves the clock. It
  /// delivers no completion either: the fleet never admits a zero-work
  /// launch, whose completion a session holds until its clock passes.
  void catchUp(DeviceState &DS, double T) {
    assert(DS.Session->now() <= T && "a session ran past the merged clock");
    if (DS.Session->now() >= T)
      return;
    DS.Session->advanceTo(T, RS.CompletionBuf);
    assert(RS.CompletionBuf.empty() &&
           "a lagging session delivered a completion");
  }

  /// Decides the device for a request (sticky affinity first — while
  /// the tenant's home is in service — then the policy over its load
  /// view). \p KernelIdx sizes the per-device solo-duration estimates.
  size_t decide(int Tenant, size_t KernelIdx, double ArrivalTime) {
    if (Opts.StickyTenantAffinity) {
      auto It = Affinity.find(Tenant);
      if (It != Affinity.end() && Devices[It->second].Alive)
        return It->second;
    }
    fillSolo(KernelIdx);
    cluster::PlacementRequest Req;
    Req.Tenant = Tenant;
    Req.KernelIdx = KernelIdx;
    Req.ArrivalTime = ArrivalTime;
    Req.SoloDurations = &SoloBuf;
    size_t D = Policy.place(Req);
    assert(D < Devices.size() && "policy placed outside the fleet");
    assert(Devices[D].Alive &&
           "policy placed on an out-of-service device");
    if (Opts.StickyTenantAffinity)
      Affinity[Tenant] = D;
    return D;
  }

  /// Binds unbound request \p Idx to device \p To at \p T, and its
  /// remaining virtual range re-enters that device's admission. A
  /// request never placed before (an arrival, or one that arrived
  /// during a full outage and waited parked) counts toward \p To's
  /// placed requests; any other binding is a move off the device it
  /// last ran on — a failover (\p Failover) or a voluntary migration —
  /// and is recorded.
  void bind(size_t Idx, size_t To, double T, bool Failover) {
    Binding &B = Bindings[Idx];
    assert(B.Device == NoDevice && !B.Settled &&
           "binding a bound or settled request");
    size_t From = Out.Placement[Idx];
    if (From == Fleet.size())
      ++Devices[To].PlacedRequests;
    else
      Out.Migrations.push_back({.RequestIdx = Idx,
                                .From = From,
                                .To = To,
                                .Time = T,
                                .RemainingWGs = RS.remainingGroups(Idx),
                                .Failover = Failover});
    RS.rehome(Idx, *Fleet[To].Driver);
    Out.Placement[Idx] = To;
    B.Device = To;
    B.Accounted = RS.Requests[Idx].RemainingCost;
    Policy.admitTo(To, B.Accounted);
    submit(Idx, To);
    Devices[To].NeedAdmit = true;
  }

  /// Takes bound request \p Idx off its device: its remaining cost
  /// leaves the policy's view of that device.
  void unbind(size_t Idx) {
    Binding &B = Bindings[Idx];
    Policy.withdrawFrom(B.Device, B.Accounted);
    B.Accounted = 0;
    B.Device = NoDevice;
  }

  /// Fail-stop loss of device \p D at merged time \p T: cancel its
  /// session (rolling every in-flight slice back into its request's
  /// remaining range), release the scheduler, and displace every bound
  /// request — re-placed under the retry budget, parked if the whole
  /// fleet is dark but capacity will return, lost otherwise.
  void applyDown(size_t D, double T) {
    DeviceState &DS = Devices[D];
    if (!DS.Alive)
      return; // Double-down in a plan: no effect.
    DS.Alive = false;
    Policy.deviceDown(D);
    size_t FaultIdx = Out.Faults.size();
    ClusterFaultRecord FR;
    FR.Device = D;
    FR.DownTime = T;
    Out.Faults.push_back(FR);
    FaultLive.push_back(0);
    // The partial slice work is discarded with the device (fail-stop);
    // each cancelled launch releases its scheduler flight and returns
    // its virtual window to the request's remaining range.
    catchUp(DS, T);
    for (sim::KernelLaunchDesc &L : DS.Session->cancelAll()) {
      size_t Idx = static_cast<size_t>(L.AppId);
      DS.Sched->complete(Idx);
      RS.rollbackSlice(Idx, L.ViewBegin);
    }
    refresh(DS, T);
    DS.Sched->clear(); // Queued-but-unadmitted requests.
    DS.NeedAdmit = false;
    // Displace in request-index order: determinism over map order.
    for (size_t Idx = 0; Idx != Bindings.size(); ++Idx) {
      if (Bindings[Idx].Device != D)
        continue;
      unbind(Idx);
      ++Out.Faults[FaultIdx].Displaced;
      attachFault(Idx, FaultIdx, T);
      const ReplayRequest &R = RS.Requests[Idx];
      if (++Out.Retries[Idx] > Opts.MaxRetries)
        settle(Idx, T, /*Lost=*/true);
      else if (anyAlive())
        bind(Idx, decide(R.Tenant, R.KernelIdx, T), T, /*Failover=*/true);
      else if (pendingUp())
        Parked.push_back(Idx);
      else
        settle(Idx, T, /*Lost=*/true);
    }
  }

  /// Device \p D (re)joins the fleet empty at merged time \p T; parked
  /// requests re-enter placement in park order (no retry charge — a
  /// rejoin is recovery, not another failure). One that arrived during
  /// the outage gets its first placement here; the others fail over.
  void applyUp(size_t D, double T) {
    DeviceState &DS = Devices[D];
    if (DS.Alive)
      return; // Double-up in a plan: no effect.
    DS.Alive = true;
    Policy.deviceUp(D);
    DS.NeedAdmit = true;
    std::vector<size_t> Waiting;
    Waiting.swap(Parked);
    for (size_t Idx : Waiting) {
      const ReplayRequest &R = RS.Requests[Idx];
      bind(Idx, decide(R.Tenant, R.KernelIdx, T), T, /*Failover=*/true);
    }
  }

  /// Voluntary work-stealing at a quantum boundary: when \p D's
  /// normalized backlog has diverged from the mean of the other
  /// in-service devices, ask the policy where request \p Idx's
  /// remaining range should run. \returns true when the request moved
  /// (it was submitted to the target).
  bool maybeMigrate(size_t Idx, size_t D, double At) {
    const MigrationOptions &M = Opts.Migration;
    if (!M.Enabled || Bindings[Idx].Migrations >= M.MaxPerRequest)
      return false;
    const std::vector<cluster::DeviceLoad> &Loads = Policy.loads();
    double OthersSum = 0;
    size_t Others = 0;
    for (size_t I = 0; I != Loads.size(); ++I) {
      if (I == D || !Loads[I].Alive)
        continue;
      OthersSum += normBacklog(Loads[I]);
      ++Others;
    }
    if (Others == 0)
      return false;
    if (normBacklog(Loads[D]) <=
        M.DivergenceFactor * (OthersSum / static_cast<double>(Others)))
      return false;
    const ReplayRequest &R = RS.Requests[Idx];
    // Price only what is left: the solo estimates scale by the
    // unexecuted fraction of the virtual range.
    size_t RemainingGroups = RS.remainingGroups(Idx);
    double Frac = static_cast<double>(RemainingGroups) /
                  static_cast<double>(RemainingGroups + R.Cursor);
    fillSolo(R.KernelIdx);
    for (double &S : SoloBuf)
      S *= Frac;
    cluster::PlacementRequest Req;
    Req.Tenant = R.Tenant;
    Req.KernelIdx = R.KernelIdx;
    Req.ArrivalTime = At;
    Req.SoloDurations = &SoloBuf;
    std::optional<size_t> To = Policy.suggestMigration(Req, D);
    if (!To || *To == D)
      return false;
    assert(*To < Devices.size() && Devices[*To].Alive &&
           "policy suggested an out-of-service device");
    unbind(Idx);
    ++Bindings[Idx].Migrations;
    // The tenant's home moves with its migrated request.
    if (Opts.StickyTenantAffinity)
      Affinity[R.Tenant] = *To;
    bind(Idx, *To, At, /*Failover=*/false);
    return true;
  }

  static double normBacklog(const cluster::DeviceLoad &L) {
    double Rate = L.ServiceRate > 0 ? L.ServiceRate : 1.0;
    return L.OutstandingCost / Rate;
  }

  /// Fills the reusable per-device solo-estimate buffer for one
  /// decision about \p KernelIdx.
  void fillSolo(size_t KernelIdx) {
    SoloBuf.resize(Devices.size());
    for (size_t D = 0; D != Devices.size(); ++D)
      SoloBuf[D] = soloEstimate(D, KernelIdx);
  }

  /// The solo-duration estimate the placement policy sees for kernel
  /// \p KernelIdx on device \p D, per ClusterOptions::SoloEstimate.
  double soloEstimate(size_t D, size_t KernelIdx) {
    switch (Opts.SoloEstimate) {
    case SoloEstimateKind::Oracle:
      return Fleet[D].Driver->isolatedDuration(SchedulerKind::Baseline,
                                               KernelIdx);
    case SoloEstimateKind::Blind:
      return Fleet[D].MeanSolo;
    case SoloEstimateKind::StaticPrior: {
      double Prior = Fleet[D].Driver->priorSoloDuration(KernelIdx);
      auto It = Observed.find({D, KernelIdx});
      if (It == Observed.end())
        return Prior;
      // The prior counts as one observation.
      const SoloObservation &O = It->second;
      return (Prior + O.Sum) / (1.0 + static_cast<double>(O.Count));
    }
    }
    accel_unreachable("bad solo estimate kind");
  }

  /// Hands request \p Idx's settlement to fault \p F's recovery
  /// tracking (releasing any earlier fault still waiting on it).
  void attachFault(size_t Idx, size_t F, double At) {
    detachFault(Idx, At);
    Bindings[Idx].Fault = F;
    ++FaultLive[F];
  }

  /// Request \p Idx settled or was re-displaced at \p At: when it was
  /// the last one its fault displaced, that fault has recovered.
  void detachFault(size_t Idx, double At) {
    size_t F = Bindings[Idx].Fault;
    if (F == NoFault)
      return;
    Bindings[Idx].Fault = NoFault;
    assert(FaultLive[F] > 0 && "fault live-count underflow");
    if (--FaultLive[F] == 0)
      Out.Faults[F].RecoveryTime = At - Out.Faults[F].DownTime;
  }

  /// Ends request \p Idx at \p At, exactly once: its last slice
  /// completed, or it is lost (\p Lost), which records it — never
  /// silently dropped — as completing empty at the loss instant. Either
  /// way its fault, if any, stops waiting on it and a closed-loop
  /// tenant's think clock starts here, so the script drains. Only a
  /// finished request is observed by the SLO controller (a lost one
  /// had no service to grade) and by the StaticPrior blend.
  void settle(size_t Idx, double At, bool Lost) {
    Binding &B = Bindings[Idx];
    assert(!B.Settled && "request settled twice");
    B.Settled = true;
    const ReplayRequest &R = RS.Requests[Idx];
    if (Lost) {
      assert(B.Device == NoDevice && "losing a bound request");
      Out.LostRequests.push_back(Idx);
      if (B.Fault != NoFault)
        ++Out.Faults[B.Fault].Lost;
      // It ends with an empty slice at the loss instant, which no slice
      // it ran ends after.
      assert(Out.Stream.Requests[Idx].EndTime <= At &&
             "lost before its last slice ended");
      RS.recordSlice(Idx, At, At);
    } else {
      const StreamRequestResult &Res = Out.Stream.Requests[Idx];
      if (Opts.SoloEstimate == SoloEstimateKind::StaticPrior) {
        // The measured service span (first slice start to last slice
        // end) is the online observation the analysis prior blends
        // into. It over-reads under contention, which is the safe
        // direction: a busy device looks slower, never faster.
        SoloObservation &O = Observed[{B.Device, R.KernelIdx}];
        O.Sum += Res.EndTime - Res.StartTime;
        ++O.Count;
      }
      if (Ctl)
        Ctl->observe(R.Tenant, Res.queueingExcess());
      B.Device = NoDevice;
    }
    detachFault(Idx, At);
    ++Completed;
    Src.completed(R, At);
  }

  const std::vector<ReplayDevice> &Fleet;
  cluster::PlacementPolicy &Policy;
  const ClusterOptions &Opts;
  ClusterOutcome &Out;
  std::vector<DeviceState> Devices;
  std::optional<accelos::SloWeightController> Ctl;
  std::map<int, size_t> Affinity; ///< Tenant -> device (sticky mode).
  std::vector<Binding> Bindings;  ///< Indexed like RS.Requests.
  std::vector<size_t> Parked; ///< Unplaceable until a device comes up.
  std::vector<FleetEvent> Plan; ///< Time-sorted (stable) fault plan.
  size_t PlanCursor = 0;
  std::vector<size_t> FaultLive; ///< Unsettled displacements per fault.
  std::vector<double> SoloBuf;   ///< Reused per placement decision.
  /// The leading device's completions, held for its turn in fleet order.
  std::vector<sim::KernelExecResult> LeadDone;
  /// Measured service spans per (device, kernel), for StaticPrior
  /// blending.
  struct SoloObservation {
    double Sum = 0;
    size_t Count = 0;
  };
  std::map<std::pair<size_t, size_t>, SoloObservation> Observed;
};

/// Replays \p Workload over \p Fleet: the body of runClusterReplay.
ClusterOutcome replay(const std::vector<ReplayDevice> &Fleet,
                      cluster::PlacementPolicy &Policy,
                      const ClusterWorkload &Workload,
                      const ClusterOptions &Opts) {
  ClusterOutcome Out;
  Out.Stream.FinalWeights = Opts.Stream.Weights;
  ArrivalSource Src(Workload);
  const size_t Total = Src.total();
  if (Total == 0 || Fleet.empty()) {
    // Every device still reports, just idle: consumers may index
    // Devices by fleet position unconditionally.
    Out.Devices.resize(Fleet.size());
    for (size_t D = 0; D != Fleet.size(); ++D)
      Out.Devices[D].Name = Fleet[D].Driver->device().Name;
    return Out;
  }

  ClusterReplay CR(Fleet, Policy, Src, Opts, Out);
  double Now = 0;

  while (CR.Completed != Total) {
    double T = Now;
    CR.applyPlan(T);
    while (!Src.empty() && Src.nextTime() <= T)
      CR.arrive(T);
    if (CR.Completed == Total)
      break; // The last arrivals were all lost at this instant.

    CR.admitAll(T);
    CR.checkCached(T);
    Now = CR.advanceAll();
    assert(Now >= T && "the merged clock went back");
  }

  assert(CR.RS.Requests.size() == Total && "workload not fully replayed");
  CR.finalize();
  return Out;
}

} // namespace

ClusterOutcome harness::runClusterReplay(cluster::Fleet &Fleet,
                                         cluster::PlacementPolicy &Policy,
                                         const ClusterWorkload &Workload,
                                         const ClusterOptions &Opts) {
  std::vector<ReplayDevice> Devices;
  for (size_t D = 0; D != Fleet.size(); ++D)
    Devices.push_back(
        {&Fleet.driver(D), Fleet.serviceRate(D), Fleet.meanSoloDuration(D)});
  return replay(Devices, Policy, Workload, Opts);
}

StreamOutcome detail::replayOnDevice(ExperimentDriver &Driver,
                                     accelos::SchedulingMode Mode,
                                     const ClusterWorkload &Workload,
                                     const StreamOptions &Opts) {
  ClusterOptions COpts;
  COpts.Stream = Opts;
  COpts.Mode = Mode;
  // Any policy places every request on the one device.
  std::unique_ptr<cluster::PlacementPolicy> Policy =
      cluster::makePlacementPolicy(cluster::PlacementKind::RoundRobin);
  return replay({{&Driver}}, *Policy, Workload, COpts).Stream;
}
