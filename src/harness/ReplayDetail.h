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
/// requests from, one record of slice progress per request, and the
/// demand/launch builders handed to the schedulers. Internal to the
/// library — everything lives in harness::detail and the types leak no
/// ABI promises.
///
/// The device views of one replay share one compiled suite, so a
/// request's demand and slice launches are the same on every device.
/// Only its isolated baseline depends on the device: it is read from
/// the view that serves the request, when the request is materialized
/// and again whenever the fleet rebinds it.
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

/// One materialized request as a replay loop tracks it. Its result
/// (arrival, start and end times, isolated baseline) is written
/// straight into the outcome's StreamRequestResult of the same index.
/// accelOS requests may execute across several grants (work slicing):
/// the first slice to complete sets the start, each one the end.
struct ReplayRequest {
  size_t KernelIdx = 0;
  size_t Issuer = 0;        ///< Closed loop: the script tenant position.
  size_t Cursor = 0;        ///< Next unexecuted virtual group.
  double RemainingCost = 0; ///< Thread-cycles of the groups from Cursor.
  int Tenant = 0;
  bool Started = false; ///< A slice completed, so StartTime is set.
};

/// The request-level machinery shared by every replay loop: the
/// materialized requests, and the demand/launch builders handed to the
/// schedulers. Requests grows as the arrival source materializes them;
/// every accessor indexes it afresh.
class ReplayState {
public:
  /// \p Kernels is any device view of the replay's one compiled suite:
  /// kernels, demands and launches read through it are the same on every
  /// device that shares the suite.
  ReplayState(const StreamOptions &Opts, accelos::SchedulingMode Mode,
              const ExperimentDriver &Kernels, StreamOutcome &Out)
      : Opts(Opts), Mode(Mode), Kernels(Kernels), Out(Out) {}

  std::vector<ReplayRequest> Requests; ///< Indexed like Out.Requests.

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

  /// Appends one materialized request whose isolated baseline comes
  /// from \p D's device (issued by script tenant \p Issuer in a closed
  /// loop). \returns its index.
  size_t append(const workloads::TimedRequest &R, ExperimentDriver &D,
                size_t Issuer = 0) {
    size_t Idx = Requests.size();
    ReplayRequest &Rec = Requests.emplace_back();
    Rec.KernelIdx = R.KernelIdx;
    Rec.Tenant = R.Tenant;
    Rec.Issuer = Issuer;
    StreamRequestResult Res;
    Res.RequestIdx = Idx;
    Res.Tenant = R.Tenant;
    Res.Kernel = Kernels.kernel(R.KernelIdx).Spec->Id;
    Res.ArrivalTime = R.ArrivalTime;
    Out.Requests.push_back(std::move(Res));
    rehome(Idx, D);
    return Idx;
  }

  /// The Sec. 3 demand of request \p Idx, narrowed to what is left of
  /// its virtual range (a sliced request re-enters the queue asking
  /// only for the remainder) and weighted by its tenant.
  accelos::KernelDemand demandOf(size_t Idx) const {
    const ReplayRequest &R = Requests[Idx];
    accelos::KernelDemand Demand = Kernels.demandFor(R.KernelIdx);
    Demand.RequestedWGs = remainingGroups(Idx);
    Demand.Weight = weightOf(R.Tenant);
    return Demand;
  }

  size_t remainingGroups(size_t Idx) const {
    const ReplayRequest &R = Requests[Idx];
    return Kernels.kernel(R.KernelIdx).WGCosts.size() - R.Cursor;
  }

  /// Builds one quantum-bounded WorkQueue launch for the granted share
  /// \p GrantWGs of request \p Idx, advancing its slice cursor and
  /// taking the slice's cost off RemainingCost. Every replay loop
  /// submits a request only while it has work left (every suite kernel
  /// has work groups), so no grant carries a zero-work request.
  sim::KernelLaunchDesc makeSliceLaunch(size_t Idx, uint64_t GrantWGs,
                                        double Arrival) {
    assert(remainingGroups(Idx) != 0 && "granted a request with no work");
    ReplayRequest &R = Requests[Idx];
    const CompiledKernel &CK = Kernels.kernel(R.KernelIdx);
    sim::KernelLaunchDesc L = Kernels.accelosDesc(
        R.KernelIdx, static_cast<int>(Idx), GrantWGs, Mode);
    // Work slicing: run at most a quantum's worth of the virtual range
    // (paper Sec. 2.4: the virtual work queue is what makes
    // bounded-progress launches possible), requeueing the remainder.
    accelos::narrowToSlice(L, CK.WGCosts, R.Cursor, GrantWGs, Mode,
                           CK.InstCount, Opts.RoundQuantum);
    for (size_t G = L.ViewBegin; G != L.ViewEnd; ++G)
      R.RemainingCost -= CK.WGCosts[G];
    L.ArrivalTime = Arrival;
    return L;
  }

  /// Records a completed slice of request \p Idx that ran from
  /// \p Start to \p End.
  void recordSlice(size_t Idx, double Start, double End) {
    StreamRequestResult &Res = Out.Requests[Idx];
    if (!Requests[Idx].Started) {
      Requests[Idx].Started = true;
      Res.StartTime = Start;
    }
    Res.EndTime = End;
  }

  /// Fail-stop rollback of request \p Idx's in-flight slice, whose view
  /// began at virtual group \p Begin: the device died mid-slice, the
  /// partial execution is discarded, and the slice's groups re-enter
  /// the remaining range (and its cost) so a re-placement serves them
  /// again. The request has at most one slice in flight, so Begin is
  /// exactly where its cursor must return to.
  void rollbackSlice(size_t Idx, size_t Begin) {
    ReplayRequest &R = Requests[Idx];
    const CompiledKernel &CK = Kernels.kernel(R.KernelIdx);
    assert(Begin <= R.Cursor && "rollback past the slice start");
    for (size_t G = Begin; G != R.Cursor; ++G)
      R.RemainingCost += CK.WGCosts[G];
    R.Cursor = Begin;
  }

  /// Homes request \p Idx on device view \p D (its materialization,
  /// and every later binding: first placement, failover after a device
  /// loss, or a quantum-boundary migration), carrying the slice cursor
  /// over. The isolated baseline — and with it the request's
  /// slowdown/queueing-excess normalization — is read from the device
  /// that will serve the remainder. RemainingCost is summed afresh over
  /// the remaining range: placement reads that sum, and its last bits
  /// differ from the incrementally maintained value's.
  void rehome(size_t Idx, ExperimentDriver &D) {
    ReplayRequest &R = Requests[Idx];
    const std::vector<double> &Costs = Kernels.kernel(R.KernelIdx).WGCosts;
    double Cost = 0;
    for (size_t G = R.Cursor; G != Costs.size(); ++G)
      Cost += Costs[G];
    R.RemainingCost = Cost;
    Out.Requests[Idx].AloneDuration =
        D.isolatedDuration(SchedulerKind::Baseline, R.KernelIdx);
  }

  /// Computes the whole-outcome aggregates once every request retired.
  void finalize() {
    for (size_t I = 0; I != Requests.size(); ++I) {
      const StreamRequestResult &R = Out.Requests[I];
      Out.Makespan = std::max(Out.Makespan, R.EndTime);
      // streamSlowdown floors the zero-turnaround corner: a request
      // lost unplaced ends at its arrival instant, which would trip the
      // positivity asserts in the metrics.
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
  const ExperimentDriver &Kernels;
  StreamOutcome &Out;
  const accelos::SloWeightController *Ctl = nullptr;
};

/// Queues request \p Idx — with its current remaining demand and
/// tenant weight — on \p Sched (an arrival or slice-requeue event).
inline void submitRequest(accelos::AdmissionScheduler &Sched,
                          const ReplayState &RS, size_t Idx) {
  accelos::RoundRequest R;
  R.Id = Idx;
  R.Tenant = RS.Requests[Idx].Tenant;
  R.Demand = RS.demandOf(Idx);
  Sched.submit(R);
}

/// One continuous-admission pass at time \p T on one device of the
/// fleet replay: grant whatever fits the residual capacity, turning
/// each grant into a quantum-bounded slice launch. \returns true when
/// the pass itself freed capacity (a tail slice shrinking its
/// reservation) and must re-run at this same instant; each re-pass
/// needs a fresh shrink, so the caller's loop terminates.
///
/// The pass structure itself (grant -> slice -> shrink -> admitFrom)
/// lives in accelos::runAdmissionPass, shared with the functional
/// Runtime's continuous pump; this wrapper binds it to ReplayState's
/// request bookkeeping. Every grant carries work (makeSliceLaunch), so
/// no grant retires without a launch.
inline bool admissionPass(accelos::AdmissionScheduler &Sched,
                          sim::EngineSession &Session, ReplayState &RS,
                          double T) {
  return accelos::runAdmissionPass(
      Sched, Session, RS.LaunchBuf,
      [&](uint64_t Id,
          uint64_t WGs) -> std::optional<sim::KernelLaunchDesc> {
        return RS.makeSliceLaunch(static_cast<size_t>(Id), WGs, T);
      },
      [](uint64_t) {});
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
/// targets are pure weighted entitlements.
inline accelos::SolverOptions solverOptsFor(const StreamOptions &Opts) {
  accelos::SolverOptions SOpts;
  SOpts.GreedySaturation = !Opts.StrictShares;
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

  /// Materializes the next request in \p RS, its isolated baseline
  /// read from \p D's device. \returns its index.
  size_t take(ReplayState &RS, ExperimentDriver &D) {
    if (Trace)
      return RS.append((*Trace)[Next++], D);
    workloads::TimedRequest Req = peek();
    size_t Issuer = Heap.top().TenantPos;
    Heap.pop();
    return RS.append(Req, D, Issuer);
  }

  /// Request \p R completed (or was lost) at \p At: its closed-loop
  /// tenant issues the next scripted request from that instant
  /// (backpressure). A no-op for an open trace.
  void completed(const ReplayRequest &R, double At) {
    if (Script)
      issue(R.Issuer, At);
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
};

} // namespace detail
} // namespace harness
} // namespace accel

#endif // ACCEL_HARNESS_REPLAYDETAIL_H
