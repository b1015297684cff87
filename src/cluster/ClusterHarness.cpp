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
#include <map>
#include <memory>
#include <optional>

using namespace accel;
using namespace accel::harness;
using detail::ClosedLoopDriver;
using detail::LiveRequest;
using detail::ReplayState;

namespace {

/// Sentinel for "request not attached to any fault".
constexpr size_t NoFault = static_cast<size_t>(-1);

/// One device of a replay: its compiled view plus the two probes
/// placement reads. runClusterReplay fills the list from its Fleet; the
/// single-device replays fill it from their one driver without building
/// a Fleet (Fleet::addDevice recompiles the suite and re-probes every
/// solo duration).
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
  double BusyTime = 0;
  size_t PlacedRequests = 0;
};

/// The merged-clock replay over N per-device admission schedulers —
/// the one continuous accelOS replay loop; runStream and runClosedLoop
/// run it on a one-device view. Each iteration (1) applies scripted
/// fleet-capacity events due at the current merged time, (2) places and
/// submits every arrival due, (3) runs the pending admission passes
/// device by device, (4) advances every session to the earliest next
/// event anywhere in the fleet, reacting to completions (and, at those
/// quantum-slice boundaries, deciding migrations).
class ClusterReplay {
public:
  ClusterReplay(const std::vector<ReplayDevice> &Fleet,
                cluster::PlacementPolicy &Policy, const ClusterOptions &Opts,
                ClusterOutcome &Out)
      : RS(*Fleet[0].Driver, Opts.Stream, Opts.Mode, Out.Stream),
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
      const sim::DeviceSpec &Spec = Fleet[D].Driver->device();
      Devices[D].Alive = Alive[D];
      Devices[D].Session.emplace(Spec);
      Devices[D].Sched = accelos::makeAdmissionScheduler(
          Mode, detail::capsFor(Spec, Opts.Stream),
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
  ClosedLoopDriver *Loop = nullptr; ///< Set for closed-loop replays.
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

  double nextPlanTime() const {
    return PlanCursor != Plan.size() ? Plan[PlanCursor].Time : -1;
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

  /// One open-loop arrival: place it, or park/lose it when the whole
  /// fleet is out of service.
  void arriveOpen(const workloads::TimedRequest &R, double T) {
    if (anyAlive()) {
      size_t D = decide(R.Tenant, R.KernelIdx, R.ArrivalTime);
      size_t Idx = RS.append(R, *Fleet[D].Driver);
      registerRequest(Idx);
      commit(Idx, D);
      return;
    }
    // Materialized against device 0's view only so the request has a
    // shape; rehome() rebinds it before it ever executes.
    size_t Idx = RS.append(R, *Fleet[0].Driver);
    registerRequest(Idx);
    if (pendingUp())
      Parked.push_back(Idx);
    else
      lose(Idx, std::max(T, R.ArrivalTime));
  }

  /// One closed-loop issue reaching its arrival instant.
  void arriveClosed(ClosedLoopDriver &L, double T) {
    detail::IssuedRequest R = L.pop();
    if (anyAlive()) {
      size_t D = decide(L.tenantOf(R), R.KernelIdx, R.Time);
      size_t Idx = L.materializeOn(RS, R, *Fleet[D].Driver);
      registerRequest(Idx);
      commit(Idx, D);
      return;
    }
    size_t Idx = L.materializeOn(RS, R, *Fleet[0].Driver);
    registerRequest(Idx);
    if (pendingUp())
      Parked.push_back(Idx);
    else
      lose(Idx, std::max(T, R.Time));
  }

  /// Runs the pending admission passes of every in-service device, in
  /// fleet order.
  void admitAll(double T) {
    for (size_t D = 0; D != Devices.size(); ++D) {
      DeviceState &DS = Devices[D];
      if (!DS.Alive)
        continue;
      while (DS.NeedAdmit)
        DS.NeedAdmit = detail::admissionPass(
            *DS.Sched, *DS.Session, RS, T,
            [&](size_t Idx) { retire(Idx, T); });
    }
  }

  /// The earliest pending event anywhere in the fleet, or negative
  /// when every session is idle. (A dead device's session is idle by
  /// construction: cancelAll emptied it.)
  double nextFleetEvent() {
    double Next = -1;
    for (DeviceState &DS : Devices) {
      double E = DS.Session->nextEventTime();
      if (E >= 0 && (Next < 0 || E < Next))
        Next = E;
    }
    return Next;
  }

  /// Advances every session from merged time \p T to \p Target,
  /// reacting to completions; accounts per-device busy time. Dead
  /// sessions advance too (empty, instantaneous) so their clocks stay
  /// on the merged time for a later rejoin.
  void advanceAll(double T, double Target) {
    double NewNow = std::max(Target, T);
    for (size_t D = 0; D != Devices.size(); ++D) {
      DeviceState &DS = Devices[D];
      if (DS.Session->inFlight() > 0)
        DS.BusyTime += NewNow - T;
      // The reactions below touch schedulers and the policy, never a
      // session, so one completion buffer serves every device.
      DS.Session->advanceTo(NewNow, RS.CompletionBuf);
      for (const sim::KernelExecResult &K : RS.CompletionBuf) {
        size_t Idx = static_cast<size_t>(K.AppId);
        LiveRequest &LR = RS.Live[Idx];
        if (!LR.Started) {
          LR.Started = true;
          LR.Start = K.StartTime;
        }
        LR.End = K.EndTime;
        DS.Sched->complete(Idx);
        DS.NeedAdmit = true;
        ++Out.Stream.EngineCompletions;
        // Settle the drained work into the policy's load view and the
        // conservation ledger.
        double Remaining = RS.remainingCost(Idx);
        bool Finished = RS.remainingGroups(Idx) == 0;
        Policy.completeOn(D, Accounted[Idx] - Remaining, Finished);
        Accounted[Idx] = Remaining;
        Out.ExecutedWGs += LR.Cursor - CountedWGs[Idx];
        CountedWGs[Idx] = LR.Cursor;
        if (!Finished) {
          // Sliced: a quantum boundary. Either the policy steals the
          // remainder for an underloaded device, or it requeues on the
          // SAME device and re-enters its fair-share solve here.
          if (!maybeMigrate(Idx, D, K.EndTime))
            submit(Idx, D);
        } else {
          Out.Stream.Requests[Idx].StartTime = LR.Start;
          Out.Stream.Requests[Idx].EndTime = LR.End;
          FinishedFlag[Idx] = true;
          finish(Idx, LR.End);
        }
      }
    }
    if (Ctl && Ctl->maybeUpdate(NewNow))
      ++Out.Stream.WeightUpdates;
  }

  /// Folds per-device scheduler stats and utilization into the outcome.
  void finalize() {
    RS.finalize();
    Out.Devices.resize(Devices.size());
    for (size_t D = 0; D != Devices.size(); ++D) {
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

  /// Grows every per-request bookkeeping vector for newly materialized
  /// request \p Idx and counts its work into the conservation ledger.
  void registerRequest(size_t Idx) {
    assert(Idx == DeviceOf.size() && "requests register in trace order");
    Out.Placement.push_back(Fleet.size());
    Out.Retries.push_back(0);
    DeviceOf.push_back(Fleet.size());
    PrevDeviceOf.push_back(Fleet.size());
    Accounted.push_back(0);
    FinishedFlag.push_back(false);
    CountedWGs.push_back(0);
    MigrationsOf.push_back(0);
    PendingFaultOf.push_back(NoFault);
    Out.RequestedWGs += RS.remainingGroups(Idx);
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

  /// First binding of materialized request \p Idx to device \p D.
  void commit(size_t Idx, size_t D) {
    Out.Placement[Idx] = D;
    DeviceOf[Idx] = D;
    double Cost = RS.remainingCost(Idx);
    Accounted[Idx] = Cost;
    Policy.admitTo(D, Cost);
    ++Devices[D].PlacedRequests;
    submit(Idx, D);
    Devices[D].NeedAdmit = true;
  }

  /// Re-binds an unbound request (failover target, unparked, or
  /// migrating) to device \p To: its remaining virtual range rehomes
  /// onto \p To's compiled view and re-enters that device's admission.
  void rebind(size_t Idx, size_t From, size_t To, double T,
              bool Failover) {
    RS.rehome(Idx, *Fleet[To].Driver);
    DeviceOf[Idx] = To;
    Out.Placement[Idx] = To;
    double Cost = RS.remainingCost(Idx);
    Accounted[Idx] = Cost;
    Policy.admitTo(To, Cost);
    ClusterMigrationRecord MR;
    MR.RequestIdx = Idx;
    MR.From = From;
    MR.To = To;
    MR.Time = T;
    MR.RemainingWGs = RS.remainingGroups(Idx);
    MR.Failover = Failover;
    Out.Migrations.push_back(MR);
    submit(Idx, To);
    Devices[To].NeedAdmit = true;
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
    for (sim::KernelLaunchDesc &L : DS.Session->cancelAll()) {
      size_t Idx = static_cast<size_t>(L.AppId);
      DS.Sched->complete(Idx);
      RS.rollbackSlice(Idx, L.ViewBegin);
    }
    DS.Sched->clear(); // Queued-but-unadmitted requests.
    DS.NeedAdmit = false;
    // Displace in request-index order: determinism over map order.
    for (size_t Idx = 0; Idx != DeviceOf.size(); ++Idx) {
      if (DeviceOf[Idx] != D || FinishedFlag[Idx])
        continue;
      Policy.withdrawFrom(D, Accounted[Idx]);
      Accounted[Idx] = 0;
      PrevDeviceOf[Idx] = D;
      DeviceOf[Idx] = Fleet.size();
      ++Out.Faults[FaultIdx].Displaced;
      attachFault(Idx, FaultIdx, T);
      if (++Out.Retries[Idx] > Opts.MaxRetries) {
        lose(Idx, T);
      } else if (anyAlive()) {
        size_t To = decide(RS.Trace[Idx].Tenant,
                           RS.Trace[Idx].KernelIdx, T);
        rebind(Idx, D, To, T, /*Failover=*/true);
      } else if (pendingUp()) {
        Parked.push_back(Idx);
      } else {
        lose(Idx, T);
      }
    }
  }

  /// Device \p D (re)joins the fleet empty at merged time \p T; parked
  /// requests re-enter placement in park order (no retry charge — a
  /// rejoin is recovery, not another failure).
  void applyUp(size_t D, double T) {
    DeviceState &DS = Devices[D];
    if (DS.Alive)
      return; // Double-up in a plan: no effect.
    DS.Alive = true;
    Policy.deviceUp(D);
    DS.NeedAdmit = true;
    if (Parked.empty())
      return;
    std::vector<size_t> Waiting;
    Waiting.swap(Parked);
    for (size_t Idx : Waiting) {
      const workloads::TimedRequest &R = RS.Trace[Idx];
      size_t To = decide(R.Tenant, R.KernelIdx, T);
      if (Out.Placement[Idx] == Fleet.size()) {
        // Arrived during a full outage and was never placed: this is
        // its first placement, not a migration.
        RS.rehome(Idx, *Fleet[To].Driver);
        commit(Idx, To);
      } else {
        rebind(Idx, PrevDeviceOf[Idx], To, T, /*Failover=*/true);
      }
    }
  }

  /// Voluntary work-stealing at a quantum boundary: when \p D's
  /// normalized backlog has diverged from the mean of the other
  /// in-service devices, ask the policy where request \p Idx's
  /// remaining range should run. \returns true when the request moved
  /// (it was submitted to the target).
  bool maybeMigrate(size_t Idx, size_t D, double At) {
    const MigrationOptions &M = Opts.Migration;
    if (!M.Enabled || MigrationsOf[Idx] >= M.MaxPerRequest)
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
    const workloads::TimedRequest &R = RS.Trace[Idx];
    // Price only what is left: the solo estimates scale by the
    // unexecuted fraction of the virtual range.
    size_t RemainingGroups = RS.remainingGroups(Idx);
    double Frac = static_cast<double>(RemainingGroups) /
                  static_cast<double>(RemainingGroups + RS.Live[Idx].Cursor);
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
    Policy.withdrawFrom(D, Accounted[Idx]);
    Accounted[Idx] = 0;
    PrevDeviceOf[Idx] = D;
    ++MigrationsOf[Idx];
    // The tenant's home moves with its migrated request.
    if (Opts.StickyTenantAffinity)
      Affinity[R.Tenant] = *To;
    rebind(Idx, D, *To, At, /*Failover=*/false);
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
      const SoloObservation &O = It->second;
      return (Prior * Opts.PriorObservationWeight + O.Sum) /
             (Opts.PriorObservationWeight + static_cast<double>(O.Count));
    }
    }
    accel_unreachable("bad solo estimate kind");
  }

  /// Hands request \p Idx's settlement to fault \p F's recovery
  /// tracking (releasing any earlier fault still waiting on it).
  void attachFault(size_t Idx, size_t F, double At) {
    detachFault(Idx, At);
    PendingFaultOf[Idx] = F;
    ++FaultLive[F];
  }

  /// Request \p Idx settled (finished, lost, or re-displaced): when it
  /// was the last one its fault displaced, that fault has recovered.
  void detachFault(size_t Idx, double At) {
    size_t F = PendingFaultOf[Idx];
    if (F == NoFault)
      return;
    PendingFaultOf[Idx] = NoFault;
    assert(FaultLive[F] > 0 && "fault live-count underflow");
    if (--FaultLive[F] == 0)
      Out.Faults[F].RecoveryTime = At - Out.Faults[F].DownTime;
  }

  /// Declares request \p Idx lost at \p At: it completes empty at the
  /// loss instant and is recorded — never silently dropped. The SLO
  /// controller does not observe it (there is no service to grade),
  /// but a closed-loop tenant's think clock still advances, so the
  /// script drains.
  void lose(size_t Idx, double At) {
    FinishedFlag[Idx] = true;
    Out.LostRequests.push_back(Idx);
    if (PendingFaultOf[Idx] != NoFault)
      ++Out.Faults[PendingFaultOf[Idx]].Lost;
    RS.completeZeroWork(Idx, At);
    detachFault(Idx, At);
    ++Completed;
    if (Loop)
      Loop->issue(Loop->tenantPos(Idx), At);
  }

  /// Retires a zero-work request at the admission boundary. The SLO
  /// controller does NOT observe it (it never occupied the device); the
  /// tenant's think clock still starts here.
  void retire(size_t Idx, double T) {
    Policy.completeOn(DeviceOf[Idx], Accounted[Idx], true);
    Accounted[Idx] = 0;
    FinishedFlag[Idx] = true;
    detachFault(Idx, T);
    ++Completed;
    if (Loop)
      Loop->issue(Loop->tenantPos(Idx), T);
  }

  /// Common full-completion bookkeeping: the SLO controller observes
  /// the aggregate queueing time, and a closed-loop tenant's think
  /// clock starts from this completion.
  void finish(size_t Idx, double At) {
    ++Completed;
    if (Opts.SoloEstimate == SoloEstimateKind::StaticPrior) {
      // The measured service span (first slice start to last slice
      // end) is the online observation the analysis prior blends into.
      // It over-reads under contention, which is the safe direction: a
      // busy device looks slower, never faster.
      const StreamRequestResult &RR = Out.Stream.Requests[Idx];
      SoloObservation &O =
          Observed[{DeviceOf[Idx], RS.Trace[Idx].KernelIdx}];
      O.Sum += RR.EndTime - RR.StartTime;
      ++O.Count;
    }
    detachFault(Idx, At);
    if (Ctl)
      Ctl->observe(RS.Trace[Idx].Tenant,
                   Out.Stream.Requests[Idx].queueingExcess());
    if (Loop)
      Loop->issue(Loop->tenantPos(Idx), At);
  }

  const std::vector<ReplayDevice> &Fleet;
  cluster::PlacementPolicy &Policy;
  const ClusterOptions &Opts;
  ClusterOutcome &Out;
  std::vector<DeviceState> Devices;
  std::optional<accelos::SloWeightController> Ctl;
  std::map<int, size_t> Affinity; ///< Tenant -> device (sticky mode).
  // Per-request bookkeeping, parallel to RS.Trace. DeviceOf is the
  // fleet size while a request is unbound (parked or lost-unplaced).
  std::vector<size_t> DeviceOf;
  std::vector<size_t> PrevDeviceOf; ///< Last binding before unbound.
  std::vector<double> Accounted; ///< Remaining cost counted per request.
  std::vector<char> FinishedFlag;
  std::vector<size_t> CountedWGs;  ///< Cursor already in ExecutedWGs.
  std::vector<uint32_t> MigrationsOf; ///< Voluntary-migration budget.
  std::vector<size_t> PendingFaultOf; ///< Fault awaiting this request.
  std::vector<size_t> Parked; ///< Unplaceable until a device comes up.
  std::vector<FleetEvent> Plan; ///< Time-sorted (stable) fault plan.
  size_t PlanCursor = 0;
  std::vector<size_t> FaultLive; ///< Unsettled displacements per fault.
  std::vector<double> SoloBuf;   ///< Reused per placement decision.
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
  assert((Workload.Trace != nullptr) != (Workload.Script != nullptr) &&
         "workload must be exactly one of open-loop or closed-loop");
  ClusterOutcome Out;
  Out.Stream.FinalWeights = Opts.Stream.Weights;
  const std::vector<workloads::TimedRequest> *Trace = Workload.Trace;
  const size_t Total =
      Trace ? Trace->size() : Workload.Script->totalRequests();
  if (Total == 0 || Fleet.empty()) {
    // Every device still reports, just idle: consumers may index
    // Devices by fleet position unconditionally.
    Out.Devices.resize(Fleet.size());
    for (size_t D = 0; D != Fleet.size(); ++D)
      Out.Devices[D].Name = Fleet[D].Driver->device().Name;
    return Out;
  }

  ClusterReplay CR(Fleet, Policy, Opts, Out);
  std::optional<ClosedLoopDriver> Loop;
  if (Workload.Script) {
    Loop.emplace(*Workload.Script);
    CR.Loop = &*Loop;
  }
  size_t NextArrival = 0;
  double Now = 0;

  while (CR.Completed != Total) {
    double T = Now;
    CR.applyPlan(T);
    if (Trace) {
      while (NextArrival != Trace->size() &&
             (*Trace)[NextArrival].ArrivalTime <= T)
        CR.arriveOpen((*Trace)[NextArrival++], T);
    } else {
      while (!Loop->empty() && Loop->nextTime() <= T)
        CR.arriveClosed(*Loop, T);
    }
    if (CR.Completed == Total)
      break; // The last arrivals were all lost at this instant.

    CR.admitAll(T);

    double NextEvent = CR.nextFleetEvent();
    double NextInput =
        Trace ? (NextArrival != Trace->size()
                     ? (*Trace)[NextArrival].ArrivalTime
                     : -1)
              : (Loop->empty() ? -1 : Loop->nextTime());
    double NextPlan = CR.nextPlanTime();
    double Target = NextEvent;
    if (Target < 0 || (NextInput >= 0 && NextInput < Target))
      Target = NextInput;
    if (Target < 0 || (NextPlan >= 0 && NextPlan < Target))
      Target = NextPlan;
    assert(Target >= 0 && "replay stalled with unfinished requests");
    CR.advanceAll(T, Target);
    Now = std::max(Target, T);
  }

  assert((!Workload.Script || CR.RS.Trace.size() == Total) &&
         "script not fully replayed");
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
