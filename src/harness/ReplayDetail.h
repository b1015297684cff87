//===- harness/ReplayDetail.h - Shared streaming replay machinery -*-C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request-level machinery behind every replay loop (the FIFO and
/// round loops of harness/Streaming and the fleet loop behind
/// harness::runClusterReplay): the one arrival source they all draw
/// requests from, per-request slice progress, and the demand/launch
/// builders handed to the schedulers. Internal to the library —
/// everything lives in harness::detail and the types leak no ABI
/// promises.
///
/// Every materialized request may carry its *own* ExperimentDriver (the
/// compiled view of the device it was placed on), so demands, slice
/// launches, and isolated baselines all come from the device that
/// actually serves the request.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_HARNESS_REPLAYDETAIL_H
#define ACCEL_HARNESS_REPLAYDETAIL_H

#include "accelos/AdmissionLoop.h"
#include "accelos/ResourceSolver.h"
#include "accelos/Scheduler.h"
#include "cluster/ClusterHarness.h"
#include "harness/Streaming.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

namespace accel {
namespace harness {
namespace detail {

/// Per-request progress while its work is still in flight. accelOS
/// requests may execute across several grants (work slicing), so the
/// first-dispatch and last-completion times accumulate here.
struct LiveRequest {
  size_t Cursor = 0; ///< Next unexecuted virtual group.
  bool Started = false;
  double Start = 0;
  double End = 0;
};

/// The request-level machinery shared by every replay loop: the
/// materialized request list, per-request slice progress, and the
/// demand/launch builders handed to the schedulers. Trace grows as the
/// arrival source materializes requests; every accessor indexes it
/// afresh.
class ReplayState {
public:
  ReplayState(const StreamOptions &Opts, accelos::SchedulingMode Mode,
              StreamOutcome &Out)
      : Opts(Opts), Mode(Mode), Out(Out) {}

  std::vector<workloads::TimedRequest> Trace;
  std::vector<LiveRequest> Live;

  /// Scratch buffers for the steady-state serving loops: admissionPass
  /// refills LaunchBuf and hands it to EngineSession::admitFrom, and
  /// the replay loops read completions through advanceTo(T,
  /// CompletionBuf) — one allocation per high-water mark instead of
  /// one per event.
  std::vector<sim::KernelLaunchDesc> LaunchBuf;
  std::vector<sim::KernelExecResult> CompletionBuf;

  /// Routes tenant-weight lookups through the SLO controller for the
  /// rest of the run (adaptive closed loop); new and requeued
  /// submissions then pick up whatever the control law last decided.
  void adoptController(const accelos::SloWeightController *C) { Ctl = C; }

  double weightOf(int Tenant) const {
    if (Ctl)
      return Ctl->weight(Tenant);
    auto It = Opts.Weights.find(Tenant);
    return It == Opts.Weights.end() ? 1.0 : It->second;
  }

  /// Appends one materialized request placed on \p D's device: demand,
  /// slice launches, and the isolated baseline all come from \p D. The
  /// driver must outlive the replay.
  size_t append(const workloads::TimedRequest &R, ExperimentDriver &D) {
    size_t Idx = Trace.size();
    Trace.push_back(R);
    Live.emplace_back();
    Drivers.push_back(&D);
    double Cost = 0;
    for (double C : D.kernel(R.KernelIdx).WGCosts)
      Cost += C;
    RemainingCostOf.push_back(Cost);
    StreamRequestResult Res;
    Res.RequestIdx = Idx;
    Res.Tenant = R.Tenant;
    Res.Kernel = D.kernel(R.KernelIdx).Spec->Id;
    Res.ArrivalTime = R.ArrivalTime;
    Res.AloneDuration =
        D.isolatedDuration(SchedulerKind::Baseline, R.KernelIdx);
    Out.Requests.push_back(std::move(Res));
    return Idx;
  }

  /// The driver (device view) serving request \p Idx.
  ExperimentDriver &driverOf(size_t Idx) const { return *Drivers[Idx]; }

  /// The Sec. 3 demand of request \p Idx, narrowed to what is left of
  /// its virtual range (a sliced request re-enters the queue asking
  /// only for the remainder) and weighted by its tenant.
  accelos::KernelDemand demandOf(size_t Idx) const {
    const workloads::TimedRequest &Req = Trace[Idx];
    ExperimentDriver &D = driverOf(Idx);
    accelos::KernelDemand Demand = D.demandFor(Req.KernelIdx);
    Demand.RequestedWGs =
        D.kernel(Req.KernelIdx).WGCosts.size() - Live[Idx].Cursor;
    Demand.Weight = weightOf(Req.Tenant);
    return Demand;
  }

  size_t remainingGroups(size_t Idx) const {
    return driverOf(Idx).kernel(Trace[Idx].KernelIdx).WGCosts.size() -
           Live[Idx].Cursor;
  }

  /// Cost, in thread-cycles, of request \p Idx's not-yet-executed
  /// virtual groups — the residual-work term of cluster placement.
  /// Maintained incrementally (full cost at append, each slice's cost
  /// subtracted when the slice launch is built), so reading it per
  /// completion event is O(1) instead of rescanning the range.
  double remainingCost(size_t Idx) const { return RemainingCostOf[Idx]; }

  /// Builds one quantum-bounded WorkQueue launch for the granted share
  /// \p GrantWGs of request \p Idx, advancing its slice cursor.
  sim::KernelLaunchDesc makeSliceLaunch(size_t Idx, uint64_t GrantWGs,
                                        double Arrival) {
    ExperimentDriver &D = driverOf(Idx);
    const CompiledKernel &CK = D.kernel(Trace[Idx].KernelIdx);
    sim::KernelLaunchDesc L = D.accelosDesc(
        Trace[Idx].KernelIdx, static_cast<int>(Idx), GrantWGs, Mode);
    // Work slicing: run at most a quantum's worth of the virtual range
    // (paper Sec. 2.4: the virtual work queue is what makes
    // bounded-progress launches possible), requeueing the remainder.
    accelos::narrowToSlice(L, CK.WGCosts, Live[Idx].Cursor, GrantWGs, Mode,
                           CK.InstCount, Opts.RoundQuantum);
    for (size_t G = L.ViewBegin; G != L.ViewEnd; ++G)
      RemainingCostOf[Idx] -= CK.WGCosts[G];
    L.ArrivalTime = Arrival;
    return L;
  }

  /// Fail-stop rollback of request \p Idx's in-flight slice, whose view
  /// began at virtual group \p Begin: the device died mid-slice, the
  /// partial execution is discarded, and the slice's groups re-enter
  /// the remaining range (and its cost) so a re-placement serves them
  /// again. The request has at most one slice in flight, so Begin is
  /// exactly where its cursor must return to.
  void rollbackSlice(size_t Idx, size_t Begin) {
    const CompiledKernel &CK =
        driverOf(Idx).kernel(Trace[Idx].KernelIdx);
    LiveRequest &LR = Live[Idx];
    assert(Begin <= LR.Cursor && "rollback past the slice start");
    for (size_t G = Begin; G != LR.Cursor; ++G)
      RemainingCostOf[Idx] += CK.WGCosts[G];
    LR.Cursor = Begin;
  }

  /// Re-binds request \p Idx to device view \p D (failover after a
  /// device loss, or a quantum-boundary migration) carrying the slice
  /// cursor over: a kernel's virtual-group decomposition is derived
  /// from its KernelSpec alone (workloads::generateWGCosts), so it is
  /// identical on every device and the remaining range keeps its
  /// meaning. The remaining cost and the isolated baseline — and with
  /// it the request's slowdown/queueing-excess normalization — are
  /// re-measured on the device that will serve the remainder.
  void rehome(size_t Idx, ExperimentDriver &D) {
    const workloads::TimedRequest &Req = Trace[Idx];
    const CompiledKernel &CK = D.kernel(Req.KernelIdx);
    assert(CK.WGCosts.size() ==
               driverOf(Idx).kernel(Req.KernelIdx).WGCosts.size() &&
           "virtual-range shape differs across devices");
    Drivers[Idx] = &D;
    double Cost = 0;
    for (size_t G = Live[Idx].Cursor; G != CK.WGCosts.size(); ++G)
      Cost += CK.WGCosts[G];
    RemainingCostOf[Idx] = Cost;
    Out.Requests[Idx].AloneDuration =
        D.isolatedDuration(SchedulerKind::Baseline, Req.KernelIdx);
  }

  /// Retires a request that has no (remaining) work at time \p T: it
  /// completes at the boundary without occupying the device.
  void completeZeroWork(size_t Idx, double T) {
    LiveRequest &LR = Live[Idx];
    if (!LR.Started) {
      LR.Started = true;
      LR.Start = T;
    }
    LR.End = std::max(LR.End, T);
    Out.Requests[Idx].StartTime = LR.Start;
    Out.Requests[Idx].EndTime = LR.End;
  }

  /// Computes the whole-outcome aggregates once every request retired.
  void finalize() {
    for (size_t I = 0; I != Trace.size(); ++I) {
      const StreamRequestResult &R = Out.Requests[I];
      Out.Makespan = std::max(Out.Makespan, R.EndTime);
      // streamSlowdown floors the zero-work corner: a request with no
      // work completes at its arrival boundary with zero turnaround,
      // which would trip the positivity asserts in the metrics.
      Out.Slowdowns.push_back(
          streamSlowdown(R.EndTime - R.ArrivalTime, R.AloneDuration));
    }
    if (!Out.Slowdowns.empty())
      Out.Unfairness = metrics::systemUnfairness(Out.Slowdowns);
    Out.FinalWeights = Opts.Weights;
    if (Ctl)
      for (const auto &[Tenant, W] : Ctl->weights())
        Out.FinalWeights[Tenant] = W;
  }

private:
  const StreamOptions &Opts;
  accelos::SchedulingMode Mode;
  StreamOutcome &Out;
  const accelos::SloWeightController *Ctl = nullptr;
  std::vector<ExperimentDriver *> Drivers; ///< Parallel to Trace.
  std::vector<double> RemainingCostOf;     ///< Parallel to Trace.
};

/// Queues request \p Idx — with its current remaining demand and
/// tenant weight — on \p Sched (an arrival or slice-requeue event).
inline void submitRequest(accelos::AdmissionScheduler &Sched,
                          const ReplayState &RS, size_t Idx) {
  accelos::RoundRequest R;
  R.Id = Idx;
  R.Tenant = RS.Trace[Idx].Tenant;
  R.Demand = RS.demandOf(Idx);
  Sched.submit(R);
}

/// One continuous-admission pass at time \p T on one device of the
/// fleet replay: grant whatever fits the residual capacity,
/// turning each grant into a quantum-bounded slice launch. Requests
/// with no remaining work complete at the boundary without occupying
/// the device — \p RetireZeroWork is called to do the caller's
/// completion bookkeeping (ReplayState::completeZeroWork has already
/// recorded the timing). \returns true when the pass itself freed
/// capacity (a tail slice shrinking its reservation) and must re-run
/// at this same instant; each re-pass needs a fresh shrink, so the
/// caller's loop terminates.
///
/// The pass structure itself (grant -> slice -> shrink -> admitFrom)
/// lives in accelos::runAdmissionPass, shared with the functional
/// Runtime's continuous pump; this wrapper binds it to ReplayState's
/// request bookkeeping.
template <typename RetireFn>
inline bool admissionPass(accelos::AdmissionScheduler &Sched,
                          sim::EngineSession &Session, ReplayState &RS,
                          double T, RetireFn &&RetireZeroWork) {
  return accelos::runAdmissionPass(
      Sched, Session, RS.LaunchBuf,
      [&](uint64_t Id,
          uint64_t WGs) -> std::optional<sim::KernelLaunchDesc> {
        size_t Idx = static_cast<size_t>(Id);
        if (RS.remainingGroups(Idx) == 0) {
          RS.completeZeroWork(Idx, T);
          return std::nullopt;
        }
        return RS.makeSliceLaunch(Idx, WGs, T);
      },
      [&](uint64_t Id) { RetireZeroWork(static_cast<size_t>(Id)); });
}

inline accelos::SchedulingMode modeFor(SchedulerKind Kind) {
  return Kind == SchedulerKind::AccelOSNaive
             ? accelos::SchedulingMode::Naive
             : accelos::SchedulingMode::Optimized;
}

/// runStream's Continuous/Stride modes and runClosedLoop's accelOS mode:
/// the fleet replay on a one-device view of \p Driver (no Fleet is
/// built).
StreamOutcome replayOnDevice(ExperimentDriver &Driver,
                             accelos::SchedulingMode Mode,
                             const ClusterWorkload &Workload,
                             const StreamOptions &Opts);

/// The solver options the continuous scheduler runs under:
/// StreamOptions::StrictShares turns greedy saturation off so admission
/// targets are pure weighted entitlements, and FullSolveReference pins
/// the solver to its reference (pre-fast-path) saturation loop.
inline accelos::SolverOptions solverOptsFor(const StreamOptions &Opts) {
  accelos::SolverOptions SOpts;
  SOpts.GreedySaturation = !Opts.StrictShares;
  SOpts.FastSaturation = !Opts.FullSolveReference;
  return SOpts;
}

/// The scheduler options the continuous scheduler runs under:
/// FullSolveReference disables the incremental fast paths (every
/// admission pass runs a full share solve — the measurement baseline).
inline accelos::SchedulerOptions schedOptsFor(const StreamOptions &Opts) {
  accelos::SchedulerOptions SO;
  SO.Incremental = !Opts.FullSolveReference;
  return SO;
}

/// The arrivals of one replay, whichever shape its workload has. An
/// open trace is a cursor in trace order. A closed-loop script keeps
/// per-tenant script cursors and the (Time, Seq) min-heap of issued but
/// not yet arrived requests, which completed() refills. Every replay
/// loop draws its requests from one of these.
class ArrivalSource {
public:
  explicit ArrivalSource(const ClusterWorkload &W)
      : Trace(W.Trace), Script(W.Script) {
    assert((Trace != nullptr) != (Script != nullptr) &&
           "workload must be exactly one of open-loop or closed-loop");
    if (!Script)
      return;
    Cursor.assign(Script->Tenants.size(), 0);
    // Each tenant opens with its first Concurrency scripted requests,
    // issued from time 0 (their think times stagger the arrivals).
    for (size_t TP = 0; TP != Script->Tenants.size(); ++TP)
      for (size_t S = 0; S != Script->Tenants[TP].Concurrency; ++S)
        issue(TP, 0);
  }

  /// Requests the workload materializes over the whole replay.
  size_t total() const {
    return Trace ? Trace->size() : Script->totalRequests();
  }

  /// No arrival is pending now; a closed loop may issue more as its
  /// requests complete.
  bool empty() const { return Trace ? Next == Trace->size() : Heap.empty(); }

  /// Arrival instant of the next request; requires !empty().
  double nextTime() const {
    return Trace ? (*Trace)[Next].ArrivalTime : Heap.top().Time;
  }

  /// The next request, not yet materialized, so a fleet can place it
  /// before take() commits it to a device.
  workloads::TimedRequest peek() const {
    if (Trace)
      return (*Trace)[Next];
    const IssuedRequest &R = Heap.top();
    workloads::TimedRequest Req;
    Req.KernelIdx = R.KernelIdx;
    Req.Tenant = Script->Tenants[R.TenantPos].Tenant;
    Req.ArrivalTime = R.Time;
    return Req;
  }

  /// Materializes the next request in \p RS on \p D's device.
  /// \returns its index.
  size_t take(ReplayState &RS, ExperimentDriver &D) {
    if (Trace)
      return RS.append((*Trace)[Next++], D);
    workloads::TimedRequest Req = peek();
    TenantPosOf.push_back(Heap.top().TenantPos);
    Heap.pop();
    return RS.append(Req, D);
  }

  /// Request \p Idx completed (or was lost) at \p At: its closed-loop
  /// tenant issues the next scripted request from that instant
  /// (backpressure). A no-op for an open trace.
  void completed(size_t Idx, double At) {
    if (Script)
      issue(TenantPosOf[Idx], At);
  }

private:
  /// A scripted request whose arrival instant has been decided (issue
  /// time + think time) but which has not been materialized yet. Seq
  /// breaks arrival-time ties deterministically in issue order.
  struct IssuedRequest {
    double Time = 0;
    uint64_t Seq = 0;
    size_t TenantPos = 0; ///< Index into the script's tenant list.
    size_t KernelIdx = 0;

    bool operator>(const IssuedRequest &O) const {
      return Time != O.Time ? Time > O.Time : Seq > O.Seq;
    }
  };

  void issue(size_t TP, double From) {
    size_t &C = Cursor[TP];
    if (C == Script->Sequences[TP].size())
      return; // Script exhausted: the tenant's population drains.
    const workloads::ScriptedRequest &SR = Script->Sequences[TP][C++];
    Heap.push({From + SR.ThinkTime, NextSeq++, TP, SR.KernelIdx});
  }

  const std::vector<workloads::TimedRequest> *Trace;
  size_t Next = 0; ///< Trace cursor.
  const workloads::ClosedLoopScript *Script;
  std::vector<size_t> Cursor; ///< Next unissued script entry per tenant.
  std::priority_queue<IssuedRequest, std::vector<IssuedRequest>,
                      std::greater<IssuedRequest>>
      Heap;
  uint64_t NextSeq = 0;
  std::vector<size_t> TenantPosOf; ///< Script tenant per request.
};

} // namespace detail
} // namespace harness
} // namespace accel

#endif // ACCEL_HARNESS_REPLAYDETAIL_H
