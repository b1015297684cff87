//===- harness/Streaming.h - Single-device serving replays ------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-device serving replays: an open-loop arrival trace
/// (workloads::poissonTrace), a closed-loop tenant script
/// (workloads::closedLoopTrace) or a batch workload, replayed under the
/// compared schedulers, reporting per-request latencies, fairness, and
/// SLO attainment.
///
/// Every replay draws its requests from one arrival source
/// (harness::detail::ArrivalSource): an open trace is a cursor in trace
/// order, while a closed script issues each tenant's next request only
/// after a predecessor completes. One loop per discipline consumes it:
///
///  - Baseline, the FIFO loop: the standard stack's hardware queue.
///    Each request enters one persistent engine session the moment it
///    is issued, carrying its real ArrivalTime;
///  - Elastic Kernels and accelOS RoundSync, the round loop: at each
///    completion boundary the pending requests are statically merged
///    (EK) or share-solved (accelOS) into one fresh engine run, and
///    requests arriving mid-round wait for the next boundary. A grant
///    may run a kernel for a bounded *quantum* of its virtual groups
///    and requeue the remainder — the software analogue of preemption
///    that accelOS's virtual work queue makes possible. RoundSync is
///    kept as the regression reference and as the demonstration of the
///    round-boundary convoy it suffers from;
///  - accelOS Continuous and Stride (StreamOptions::Admission, an
///    accelos::AdmissionMode): the fleet replay behind runClusterReplay
///    (cluster/ClusterHarness.h) on a one-device view of the caller's
///    driver. Fair shares are re-solved at every arrival/completion
///    event inside one persistent engine session and newly arrived or
///    requeued sliced kernels immediately fill the residual capacity
///    left by in-flight grants (accelos::ContinuousScheduler), or the
///    pass/stride tenant counters of accelos::StrideScheduler pick
///    instead. On an all-zero-arrival trace with slicing disabled
///    Continuous reproduces the round-sync schedule bit-for-bit
///    (regression-tested); under streaming arrivals it cuts queueing
///    delay because a request no longer waits out a round it missed.
///
/// runWorkload, the paper's batch experiment (Sec. 7.2: every kernel
/// submitted at once), is runStream on the trace whose arrivals are all
/// zero. runClosedLoop is the *TenantLoop* mode: arrivals are not a
/// fixed trace but reactions — each tenant keeps at most its
/// Concurrency requests outstanding and issues the next scripted
/// request only after a predecessor drains plus a think time
/// (backpressure). A closed loop has no round boundary, so its accelOS
/// path is always the fleet replay, where an optional SLO layer
/// (StreamOptions::SloTargets + AdaptiveSloWeights) feeds each tenant's
/// observed p95 queueing delay back into its fair-share weight through
/// accelos::SloWeightController.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_HARNESS_STREAMING_H
#define ACCEL_HARNESS_STREAMING_H

#include "accelos/Scheduler.h"
#include "harness/Experiment.h"
#include "metrics/Metrics.h"
#include "workloads/Arrivals.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace accel {
namespace harness {

/// Timing of one completed streaming request.
struct StreamRequestResult {
  size_t RequestIdx = 0; ///< Position in the replayed trace.
  int Tenant = 0;
  std::string Kernel;
  double ArrivalTime = 0;
  double StartTime = 0;
  double EndTime = 0;
  /// The kernel's isolated (solo baseline) duration — the latency this
  /// request would have seen on an idle device.
  double AloneDuration = 0;

  /// Submission-to-completion latency (queueing included).
  double latency() const { return EndTime - ArrivalTime; }

  /// Time spent waiting before the first work-group dispatch.
  double queueDelay() const { return StartTime - ArrivalTime; }

  /// Total time this request spent queued rather than served: latency
  /// minus the kernel's isolated duration. Under work slicing a request
  /// waits *between* grants too, so this — not queueDelay() — is the
  /// request's true aggregate queueing time, and it is the value
  /// per-tenant SLO targets are judged on.
  double queueingExcess() const {
    return std::max(0.0, latency() - AloneDuration);
  }
};

/// Whole-trace outcome under one scheduler.
struct StreamOutcome {
  std::vector<StreamRequestResult> Requests; ///< Indexed by trace order.
  /// Per-request turnaround normalized to the kernel's isolated
  /// baseline duration (the streaming analogue of IS_i).
  std::vector<double> Slowdowns;
  double Makespan = 0;   ///< Completion time of the last request.
  double Unfairness = 1; ///< max/min over Slowdowns.
  /// Scheduling decisions: engine rounds for RoundSync (1 for FIFO),
  /// admission passes for Continuous.
  size_t Rounds = 0;
  uint64_t Deferrals = 0; ///< Scheduler deferrals (accelOS only).
  /// Admission passes that ran a full fair-share solve vs the
  /// incremental/stride fast path (continuous accelOS only; the
  /// fallback-to-full-solve counter). Rounds == FullSolves + FastPasses
  /// on those paths.
  uint64_t FullSolves = 0;
  uint64_t FastPasses = 0;
  /// Engine completion events delivered to the replay loop (slice
  /// completions included) — with arrivals and admission passes, the
  /// event count bench/serve_scale normalizes wall-clock by.
  uint64_t EngineCompletions = 0;

  /// Effective per-tenant weights when the run ended: the static
  /// StreamOptions::Weights (also for an empty workload), overlaid with
  /// the SLO controller's final boosts when AdaptiveSloWeights adapted
  /// them.
  std::map<int, double> FinalWeights;
  /// Times the SLO controller changed any weight (adaptive runs only).
  uint64_t WeightUpdates = 0;

  /// Latencies grouped by tenant, for percentile reporting.
  std::map<int, std::vector<double>> latenciesByTenant() const;

  /// Per-request queueing delays, in trace order.
  std::vector<double> queueDelays() const;

  /// First-dispatch queueing delays grouped by tenant.
  std::map<int, std::vector<double>> queueDelaysByTenant() const;

  /// Aggregate queueing times (StreamRequestResult::queueingExcess)
  /// grouped by tenant — the values SLO attainment and goodput are
  /// judged on (metrics::sloAttainment).
  std::map<int, std::vector<double>> queueingExcessByTenant() const;
};

/// Streaming replay knobs.
struct StreamOptions {
  using AdmissionMode = accelos::AdmissionMode;

  /// Per-tenant sharing weights (absent tenants weigh 1.0); only
  /// accelOS honours weights.
  std::map<int, double> Weights;
  /// accelOS work-slicing quantum in simulation time units: each grant
  /// runs the kernel for roughly this long (sized through its
  /// virtual-group costs) and requeues the unfinished remainder. Zero
  /// disables slicing — granted kernels run to completion.
  double RoundQuantum = 0;
  /// How the accelOS scheduler admits work into the device. The FIFO
  /// baseline and Elastic Kernels have fixed disciplines of their own
  /// and ignore this knob. Stride is the high-rate serving mode
  /// benchmarked by bench/serve_scale. The closed-loop tenant loop and
  /// the fleet replay have no global round boundary, so there RoundSync
  /// means Continuous; Stride gives every device a StrideScheduler.
  AdmissionMode Admission = AdmissionMode::RoundSync;

  /// Per-tenant SLO: a latency target expressed as a bound on each
  /// request's aggregate queueing time (queueingExcess: latency over
  /// the kernel's isolated duration), in simulation time units.
  /// Tenants absent here have no target (they attain trivially).
  /// Drives SLO-attainment/goodput reporting and, when
  /// AdaptiveSloWeights is set, the weight controller.
  std::map<int, double> SloTargets;
  /// accelOS on the fleet replay (runClosedLoop, runClusterReplay, and
  /// runStream's Continuous and Stride modes): periodically re-weight
  /// tenants from their observed p95 queueing time via
  /// accelos::SloWeightController (multiplicative increase toward missed
  /// SLOs, bounded boost). The FIFO and EK baselines have no weights to
  /// steer and ignore this, as does runStream's RoundSync loop.
  bool AdaptiveSloWeights = false;
  /// Control interval of the SLO controller, in simulation time units.
  /// Must be positive when AdaptiveSloWeights is set.
  double SloControlInterval = 0;
  /// Controller tuning (attainment headroom, sample floor).
  accelos::SloControllerOptions SloTuning;
  /// Strict weighted entitlements (continuous accelOS only; off is the
  /// bit-identical default). The work-conserving discipline grants
  /// every request min(saturated share, residual fit) — which is
  /// *request*-bound on an empty device and *fit*-bound on a full one,
  /// so the weighted share target between the two almost never binds
  /// and weights barely steer service. With StrictShares the admission
  /// targets come from the solver WITHOUT greedy saturation: each
  /// request is granted its weighted entitlement and no more, so the
  /// capacity a light tenant leaves on the table flows to the heavy
  /// (or SLO-boosted) tenants' next slices instead of being backfilled.
  /// Entitlements sum to (nearly) the full capacity, so under load the
  /// device stays as busy as before; what changes is who occupies it.
  bool StrictShares = false;
  /// Measurement baseline for the incremental-admission fast paths
  /// (continuous accelOS only): run every admission pass through the
  /// solver's allocating reference solve — the exact pre-optimization
  /// hot path. Grant histories are bit-identical to the default either
  /// way (the fast paths are exactness-preserving); what changes is the
  /// events/sec bench/serve_scale measures.
  bool FullSolveReference = false;
};

/// Degenerate-latency threshold, as a fraction of the request's
/// isolated baseline duration: below it a turnaround is considered
/// zero-work. Far smaller than any real request's latency (which is at
/// least its own execution time).
constexpr double ZeroWorkLatencyEpsilon = 1e-9;

/// The streaming slowdown of one request: latency over the isolated
/// baseline duration. A zero-work request completes at its admission
/// boundary, so both its shared and isolated durations are (near)
/// zero; its slowdown is the 0/0 limit — ideal service, exactly 1.
/// (Reporting the raw epsilon ratio instead would both trip the
/// metrics' positivity asserts at zero and, clamped, inflate max/min
/// unfairness by nine orders of magnitude.)
inline double streamSlowdown(double Latency, double AloneDuration) {
  if (AloneDuration <= 0 ||
      Latency <= ZeroWorkLatencyEpsilon * AloneDuration)
    return 1.0;
  return metrics::individualSlowdown(Latency, AloneDuration);
}

/// Replays \p Trace under \p Kind on \p Driver's device.
StreamOutcome runStream(ExperimentDriver &Driver, SchedulerKind Kind,
                        const std::vector<workloads::TimedRequest> &Trace,
                        const StreamOptions &Opts = {});

/// Per-workload metric bundle of one batch experiment.
struct WorkloadOutcome {
  std::vector<double> Slowdowns; ///< IS_i vs. isolated baseline runs.
  double Unfairness = 1;         ///< U = max IS / min IS.
  double Overlap = 0;            ///< O = T(c) / T(t).
  double Makespan = 0;
};

/// Runs the multi-kernel workload \p W under \p Kind: runStream with
/// default options (accelOS RoundSync, no slicing) on a trace that
/// submits every kernel at time 0, so T(s) is the turnaround from that
/// common submission and queueing behind earlier requests counts
/// against fairness. accelOS requests the oversubscription clamp sheds
/// wait for the next round, which begins when the previous round's
/// kernels complete.
WorkloadOutcome runWorkload(ExperimentDriver &Driver, SchedulerKind Kind,
                            const workloads::Workload &W);

/// The TenantLoop mode: replays the closed-loop \p Script under \p Kind.
/// Each tenant starts with its first Concurrency scripted requests (at
/// their think-time offsets from time 0) and issues the next one only
/// when a predecessor completes — so the arrival stream emerges from
/// scheduling decisions instead of being fixed up front, and a slow
/// scheduler is offered less load (backpressure), exactly like a real
/// closed-loop serving client. The accelOS path runs arrival-aware
/// continuous (or, with Admission Stride, stride) admission on the
/// one-device fleet replay; FIFO submits reactively into the hardware
/// queue and EK merges whatever is pending at each round boundary.
/// With AdaptiveSloWeights, completions feed the SloWeightController
/// and new/requeued submissions pick up the adapted weights. The
/// outcome's Requests are in arrival order.
StreamOutcome runClosedLoop(ExperimentDriver &Driver, SchedulerKind Kind,
                            const workloads::ClosedLoopScript &Script,
                            const StreamOptions &Opts = {});

/// Mean isolated (solo, baseline) duration across the suite: the
/// natural time unit for calibrating arrival rates and round quanta.
double meanIsolatedBaselineDuration(ExperimentDriver &Driver);

} // namespace harness
} // namespace accel

#endif // ACCEL_HARNESS_STREAMING_H
