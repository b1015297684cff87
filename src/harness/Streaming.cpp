//===- harness/Streaming.cpp - Streaming-arrival serving loop ----------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "harness/Streaming.h"

#include "accelos/Scheduler.h"
#include "ek/ElasticKernels.h"
#include "harness/ReplayDetail.h"
#include "metrics/Metrics.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace accel;
using namespace accel::harness;
using detail::ClosedLoopDriver;
using detail::LiveRequest;
using detail::ReplayState;
using detail::modeFor;

double harness::meanIsolatedBaselineDuration(ExperimentDriver &Driver) {
  double Sum = 0;
  for (size_t I = 0; I != Driver.numKernels(); ++I)
    Sum += Driver.isolatedDuration(SchedulerKind::Baseline, I);
  return Sum / static_cast<double>(Driver.numKernels());
}

std::map<int, std::vector<double>>
StreamOutcome::latenciesByTenant() const {
  std::map<int, std::vector<double>> Out;
  for (const StreamRequestResult &R : Requests)
    Out[R.Tenant].push_back(R.latency());
  return Out;
}

std::vector<double> StreamOutcome::queueDelays() const {
  std::vector<double> Out;
  Out.reserve(Requests.size());
  for (const StreamRequestResult &R : Requests)
    Out.push_back(R.queueDelay());
  return Out;
}

std::map<int, std::vector<double>>
StreamOutcome::queueDelaysByTenant() const {
  std::map<int, std::vector<double>> Out;
  for (const StreamRequestResult &R : Requests)
    Out[R.Tenant].push_back(R.queueDelay());
  return Out;
}

std::map<int, std::vector<double>>
StreamOutcome::queueingExcessByTenant() const {
  std::map<int, std::vector<double>> Out;
  for (const StreamRequestResult &R : Requests)
    Out[R.Tenant].push_back(R.queueingExcess());
  return Out;
}

StreamOutcome harness::runStream(
    ExperimentDriver &Driver, SchedulerKind Kind,
    const std::vector<workloads::TimedRequest> &Trace,
    const StreamOptions &Opts) {
  StreamOutcome Out;
  if (Trace.empty())
    return Out;
  const bool IsEk = Kind == SchedulerKind::ElasticKernels;
  // Event-driven accelOS admission is the fleet replay on one device.
  if (Kind != SchedulerKind::Baseline && !IsEk &&
      Opts.Admission != accelos::AdmissionMode::RoundSync)
    return detail::replayOnDevice(Driver, modeFor(Kind),
                                  ClusterWorkload::openLoop(Trace), Opts);

  const sim::DeviceSpec &Spec = Driver.device();
  ReplayState RS(Driver, Opts, modeFor(Kind), Out);
  for (const workloads::TimedRequest &R : Trace)
    RS.append(R);

  if (Kind == SchedulerKind::Baseline) {
    // The standard stack submits straight into the hardware FIFO: one
    // engine run where every launch carries its real arrival time.
    std::vector<sim::KernelLaunchDesc> Launches;
    for (size_t I = 0; I != Trace.size(); ++I) {
      sim::KernelLaunchDesc L =
          Driver.baselineDesc(Trace[I].KernelIdx, static_cast<int>(I));
      L.ArrivalTime = Trace[I].ArrivalTime;
      Launches.push_back(std::move(L));
    }
    sim::Engine Engine(Spec);
    sim::SimResult R = Engine.run(std::move(Launches));
    for (const sim::KernelExecResult &K : R.Kernels) {
      StreamRequestResult &Req =
          Out.Requests[static_cast<size_t>(K.AppId)];
      Req.StartTime = K.StartTime;
      Req.EndTime = K.EndTime;
    }
    Out.Rounds = 1;
  } else {
    // Round-synchronous serving loop: requests arriving mid-round wait
    // for the completion boundary, where the plan sees the grown queue.
    accelos::RoundScheduler Sched(
        accelos::ResourceCaps::fromDevice(Spec));
    std::deque<size_t> EkPending;
    size_t NextArrival = 0;
    size_t Completed = 0;
    double T = 0;

    auto Submit = [&](size_t Idx) {
      accelos::RoundRequest R;
      R.Id = Idx;
      R.Demand = RS.demandOf(Idx);
      Sched.submit(R);
    };
    auto Admit = [&](double Now) {
      while (NextArrival != Trace.size() &&
             Trace[NextArrival].ArrivalTime <= Now) {
        if (IsEk)
          EkPending.push_back(NextArrival);
        else
          Submit(NextArrival);
        ++NextArrival;
      }
    };
    auto Pending = [&] {
      return IsEk ? EkPending.size() : Sched.pending();
    };

    Admit(T);
    while (Completed != Trace.size()) {
      if (Pending() == 0) {
        // Idle device: jump to the next arrival.
        assert(NextArrival != Trace.size() && "requests lost");
        T = std::max(T, Trace[NextArrival].ArrivalTime);
        Admit(T);
        continue;
      }

      std::vector<sim::KernelLaunchDesc> Launches;
      std::vector<size_t> Unfinished;
      if (IsEk) {
        std::vector<ek::EKKernelDesc> Descs;
        for (size_t Idx : EkPending)
          Descs.push_back(Driver.ekDesc(Trace[Idx].KernelIdx,
                                        static_cast<int>(Idx)));
        EkPending.clear();
        Launches = ek::planMergedLaunch(Spec, Descs);
      } else {
        for (const accelos::RoundGrant &G : Sched.nextRound()) {
          size_t Idx = static_cast<size_t>(G.Id);
          if (RS.remainingGroups(Idx) == 0) {
            RS.completeZeroWork(Idx, T);
            ++Completed;
            continue;
          }
          Launches.push_back(
              RS.makeSliceLaunch(Idx, G.WGs, /*Arrival=*/0));
          if (RS.remainingGroups(Idx) != 0)
            Unfinished.push_back(Idx);
        }
      }

      sim::Engine Engine(Spec);
      sim::SimResult R = Engine.run(std::move(Launches));
      for (const sim::KernelExecResult &K : R.Kernels) {
        size_t Idx = static_cast<size_t>(K.AppId);
        LiveRequest &LR = RS.Live[Idx];
        if (!LR.Started) {
          LR.Started = true;
          LR.Start = K.StartTime + T;
        }
        LR.End = K.EndTime + T;
      }
      T += R.Makespan;
      ++Out.Rounds;

      // Completion boundary: finished requests retire, sliced ones
      // requeue (ahead of this boundary's new arrivals — they are
      // older), and the next round re-solves over the new queue.
      for (const sim::KernelExecResult &K : R.Kernels) {
        size_t Idx = static_cast<size_t>(K.AppId);
        bool Done = IsEk || RS.remainingGroups(Idx) == 0;
        if (!Done)
          continue;
        Out.Requests[Idx].StartTime = RS.Live[Idx].Start;
        Out.Requests[Idx].EndTime = RS.Live[Idx].End;
        ++Completed;
      }
      for (size_t Idx : Unfinished)
        Submit(Idx);
      Admit(T);
    }
    if (!IsEk)
      Out.Deferrals = Sched.stats().Deferrals;
  }

  RS.finalize();
  return Out;
}

//===----------------------------------------------------------------------===//
// Closed-loop tenant replay (the TenantLoop mode)
//===----------------------------------------------------------------------===//

StreamOutcome harness::runClosedLoop(
    ExperimentDriver &Driver, SchedulerKind Kind,
    const workloads::ClosedLoopScript &Script,
    const StreamOptions &Opts) {
  StreamOutcome Out;
  const size_t Total = Script.totalRequests();
  Out.FinalWeights = Opts.Weights;
  if (Total == 0)
    return Out;
  // accelOS reacts to individual completions: the fleet replay on one
  // device, with the closed loop issuing into it.
  if (Kind != SchedulerKind::Baseline &&
      Kind != SchedulerKind::ElasticKernels)
    return detail::replayOnDevice(Driver, modeFor(Kind),
                                  ClusterWorkload::closedLoop(Script), Opts);

  const sim::DeviceSpec &Spec = Driver.device();
  ReplayState RS(Driver, Opts, modeFor(Kind), Out);
  ClosedLoopDriver Loop(Script);
  size_t Completed = 0;

  if (Kind == SchedulerKind::Baseline) {
    // FIFO: each issued request is admitted into the hardware queue the
    // moment the tenant decides it (the session holds it invisible
    // until its ArrivalTime); completions trigger the next issues.
    sim::EngineSession Session(Spec);
    while (Completed != Total) {
      std::vector<sim::KernelLaunchDesc> Launches;
      while (!Loop.empty()) {
        double At = Loop.nextTime();
        size_t Idx = Loop.materialize(RS);
        sim::KernelLaunchDesc L = Driver.baselineDesc(
            RS.Trace[Idx].KernelIdx, static_cast<int>(Idx));
        L.ArrivalTime = At;
        Launches.push_back(std::move(L));
      }
      if (!Launches.empty())
        Session.admit(std::move(Launches));
      double Next = Session.nextEventTime();
      assert(Next >= 0 && "closed loop stalled with requests pending");
      for (const sim::KernelExecResult &K : Session.advanceTo(Next)) {
        size_t Idx = static_cast<size_t>(K.AppId);
        Out.Requests[Idx].StartTime = K.StartTime;
        Out.Requests[Idx].EndTime = K.EndTime;
        ++Completed;
        Loop.issue(Loop.tenantPos(Idx), K.EndTime);
      }
    }
    Out.Rounds = 1;
  } else {
    // EK: requests pending at a round boundary are statically merged
    // and co-dispatched; completions mid-round issue follow-ups that
    // wait for the next boundary.
    std::deque<size_t> Pending;
    double T = 0;
    while (Completed != Total) {
      while (!Loop.empty() && Loop.nextTime() <= T)
        Pending.push_back(Loop.materialize(RS));
      if (Pending.empty()) {
        assert(!Loop.empty() && "closed loop stalled with requests pending");
        T = std::max(T, Loop.nextTime());
        continue;
      }
      std::vector<ek::EKKernelDesc> Descs;
      for (size_t Idx : Pending)
        Descs.push_back(Driver.ekDesc(RS.Trace[Idx].KernelIdx,
                                      static_cast<int>(Idx)));
      Pending.clear();
      sim::Engine Engine(Spec);
      sim::SimResult R = Engine.run(ek::planMergedLaunch(Spec, Descs));
      for (const sim::KernelExecResult &K : R.Kernels) {
        size_t Idx = static_cast<size_t>(K.AppId);
        Out.Requests[Idx].StartTime = K.StartTime + T;
        Out.Requests[Idx].EndTime = K.EndTime + T;
        ++Completed;
        Loop.issue(Loop.tenantPos(Idx), K.EndTime + T);
      }
      T += R.Makespan;
      ++Out.Rounds;
    }
  }

  assert(RS.Trace.size() == Total && "script not fully replayed");
  RS.finalize();
  return Out;
}
