//===- harness/Streaming.cpp - Single-device serving replays -----------------===//
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

using namespace accel;
using namespace accel::harness;
using detail::ArrivalSource;
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
StreamOutcome::queueingExcessByTenant() const {
  std::map<int, std::vector<double>> Out;
  for (const StreamRequestResult &R : Requests)
    Out[R.Tenant].push_back(R.queueingExcess());
  return Out;
}

namespace {

/// The FIFO loop: the standard stack submits each request straight
/// into the hardware queue the moment it is issued (the session holds
/// it invisible until its ArrivalTime), and completions let closed-loop
/// tenants issue their next requests. An open trace is issued whole in
/// the first pass, which is Engine::run event for event.
void replayFifo(ExperimentDriver &Driver, ReplayState &RS,
                ArrivalSource &Src, StreamOutcome &Out) {
  sim::EngineSession Session(Driver.device());
  size_t Completed = 0;
  while (Completed != Src.total()) {
    std::vector<sim::KernelLaunchDesc> Launches;
    while (!Src.empty()) {
      size_t Idx = Src.take(RS, Driver);
      sim::KernelLaunchDesc L = Driver.baselineDesc(
          RS.Requests[Idx].KernelIdx, static_cast<int>(Idx));
      L.ArrivalTime = Out.Requests[Idx].ArrivalTime;
      Launches.push_back(std::move(L));
    }
    if (!Launches.empty())
      Session.admit(std::move(Launches));
    double Next = Session.nextEventTime();
    assert(Next >= 0 && "FIFO replay stalled with requests pending");
    for (const sim::KernelExecResult &K : Session.advanceTo(Next)) {
      size_t Idx = static_cast<size_t>(K.AppId);
      RS.recordSlice(Idx, K.StartTime, K.EndTime);
      ++Completed;
      Src.completed(RS.Requests[Idx], K.EndTime);
    }
  }
  Out.Rounds = 1;
}

/// The round loop of Elastic Kernels and accelOS RoundSync: the
/// requests pending at a completion boundary are merged (EK) or
/// share-solved (accelOS) into one fresh engine run whose times are
/// offset by the boundary; requests issued mid-round wait for the next
/// boundary, where the plan sees the grown queue.
void replayRounds(ExperimentDriver &Driver, bool IsEk, ReplayState &RS,
                  ArrivalSource &Src, StreamOutcome &Out) {
  const sim::DeviceSpec &Spec = Driver.device();
  accelos::RoundScheduler Sched(accelos::ResourceCaps::fromDevice(Spec));
  std::vector<size_t> EkPending;
  size_t Completed = 0;
  double T = 0;

  auto Submit = [&](size_t Idx) {
    accelos::RoundRequest R;
    R.Id = Idx;
    R.Demand = RS.demandOf(Idx);
    Sched.submit(R);
  };
  auto Admit = [&] {
    while (!Src.empty() && Src.nextTime() <= T) {
      size_t Idx = Src.take(RS, Driver);
      if (IsEk)
        EkPending.push_back(Idx);
      else
        Submit(Idx);
    }
  };
  auto Retire = [&](size_t Idx) {
    ++Completed;
    Src.completed(RS.Requests[Idx], Out.Requests[Idx].EndTime);
  };

  Admit();
  while (Completed != Src.total()) {
    if ((IsEk ? EkPending.size() : Sched.pending()) == 0) {
      // Idle device: jump to the next arrival.
      assert(!Src.empty() && "requests lost");
      T = std::max(T, Src.nextTime());
      Admit();
      continue;
    }

    std::vector<sim::KernelLaunchDesc> Launches;
    std::vector<size_t> Unfinished;
    if (IsEk) {
      std::vector<ek::EKKernelDesc> Descs;
      for (size_t Idx : EkPending)
        Descs.push_back(Driver.ekDesc(RS.Requests[Idx].KernelIdx,
                                      static_cast<int>(Idx)));
      EkPending.clear();
      Launches = ek::planMergedLaunch(Spec, Descs);
    } else {
      for (const accelos::RoundGrant &G : Sched.nextRound()) {
        size_t Idx = static_cast<size_t>(G.Id);
        Launches.push_back(RS.makeSliceLaunch(Idx, G.WGs, /*Arrival=*/0));
        if (RS.remainingGroups(Idx) != 0)
          Unfinished.push_back(Idx);
      }
    }

    sim::Engine Engine(Spec);
    sim::SimResult R = Engine.run(std::move(Launches));
    for (const sim::KernelExecResult &K : R.Kernels)
      RS.recordSlice(static_cast<size_t>(K.AppId), K.StartTime + T,
                     K.EndTime + T);
    T += R.Makespan;
    ++Out.Rounds;

    // Completion boundary: finished requests retire, sliced ones
    // requeue (ahead of this boundary's new arrivals — they are
    // older), and the next round re-solves over the new queue.
    for (const sim::KernelExecResult &K : R.Kernels) {
      size_t Idx = static_cast<size_t>(K.AppId);
      if (IsEk || RS.remainingGroups(Idx) == 0)
        Retire(Idx);
    }
    for (size_t Idx : Unfinished)
      Submit(Idx);
    Admit();
  }
  if (!IsEk)
    Out.Deferrals = Sched.stats().Deferrals;
}

/// The one replay behind runStream, runClosedLoop and runWorkload.
StreamOutcome replay(ExperimentDriver &Driver, SchedulerKind Kind,
                     const ClusterWorkload &Workload,
                     const StreamOptions &Opts) {
  // accelOS reacts to individual arrivals and completions on the fleet
  // replay. Only RoundSync on an open trace keeps the round barrier: a
  // closed loop has no round boundary, so there it means Continuous.
  if (Kind != SchedulerKind::Baseline &&
      Kind != SchedulerKind::ElasticKernels &&
      (Workload.Script ||
       Opts.Admission != accelos::AdmissionMode::RoundSync))
    return detail::replayOnDevice(Driver, modeFor(Kind), Workload, Opts);

  StreamOutcome Out;
  ReplayState RS(Opts, modeFor(Kind), Driver, Out);
  ArrivalSource Src(Workload);
  if (Src.total() != 0) {
    if (Kind == SchedulerKind::Baseline)
      replayFifo(Driver, RS, Src, Out);
    else
      replayRounds(Driver, Kind == SchedulerKind::ElasticKernels, RS, Src,
                   Out);
  }
  assert(RS.Requests.size() == Src.total() && "workload not fully replayed");
  RS.finalize();
  return Out;
}

} // namespace

StreamOutcome harness::runStream(
    ExperimentDriver &Driver, SchedulerKind Kind,
    const std::vector<workloads::TimedRequest> &Trace,
    const StreamOptions &Opts) {
  return replay(Driver, Kind, ClusterWorkload::openLoop(Trace), Opts);
}

StreamOutcome harness::runClosedLoop(
    ExperimentDriver &Driver, SchedulerKind Kind,
    const workloads::ClosedLoopScript &Script,
    const StreamOptions &Opts) {
  return replay(Driver, Kind, ClusterWorkload::closedLoop(Script), Opts);
}

WorkloadOutcome harness::runWorkload(ExperimentDriver &Driver,
                                     SchedulerKind Kind,
                                     const workloads::Workload &W) {
  std::vector<workloads::TimedRequest> Trace(W.size());
  for (size_t I = 0; I != W.size(); ++I)
    Trace[I].KernelIdx = W[I];
  StreamOutcome S = runStream(Driver, Kind, Trace);
  WorkloadOutcome Out;
  Out.Slowdowns = std::move(S.Slowdowns);
  Out.Unfairness = S.Unfairness;
  Out.Makespan = S.Makespan;
  std::vector<metrics::Interval> Intervals;
  for (const StreamRequestResult &R : S.Requests)
    Intervals.push_back({R.StartTime, R.EndTime});
  Out.Overlap = metrics::executionOverlap(Intervals);
  return Out;
}
