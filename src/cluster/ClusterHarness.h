//===- cluster/ClusterHarness.h - Fleet-wide serving loop -------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cluster serving loop: one request stream scheduled across a
/// cluster::Fleet of heterogeneous simulated devices on a single merged
/// event clock. Every device runs its own arrival-aware admission
/// scheduler (sim::EngineSession + an accelos::AdmissionScheduler:
/// ContinuousScheduler, or StrideScheduler when StreamOptions::Admission
/// is Stride); the cluster layer adds the placement decision — which
/// device a request runs on (cluster::PlacementPolicy) — and keeps
/// fairness cluster-wide:
///
///  - per-tenant sharing weights apply on every device a tenant's
///    requests land on;
///  - with StreamOptions::AdaptiveSloWeights, ONE SLO controller
///    (accelos::SloWeightController) observes the aggregate queueing
///    time of completions from ALL devices, and its adapted weights
///    propagate to every device's scheduler through the next
///    submissions and slice requeues.
///
/// The merged clock: arrivals due now are placed and admitted, then
/// every session advances to the earliest next event anywhere in the
/// fleet (or the next arrival / scripted fleet event, whichever is
/// first). This is the only continuous accelOS replay loop:
/// harness::runStream (Continuous and Stride) and runClosedLoop run it
/// on a one-device view of their driver, so the single-device case is
/// the same code, not a tested equivalence.
///
/// One entry point serves both workload shapes: runClusterReplay takes
/// a ClusterWorkload (an open-loop timed trace OR a closed-loop
/// script — the reactive issue-on-completion loop of runClosedLoop),
/// drawn through the one arrival source every replay loop shares, and
/// ClusterOptions carries everything else.
///
/// The fleet is neither static nor immortal. ClusterOptions::FleetPlan
/// scripts capacity events against the merged clock: a device goes
/// Down (fail-stop: in-flight slices are discarded and roll back into
/// the requests' remaining virtual ranges, queued requests unbind) and
/// may later come Up again — the same mechanism expresses elastic
/// scale-up, since a device whose first scripted event is Up starts
/// outside the serving set. Displaced requests re-enter placement
/// under bounded retries (MaxRetries) and are recorded per request;
/// with nowhere to go they are lost (ClusterOutcome::LostRequests) —
/// never silently dropped. With MigrationOptions::Enabled, the replay
/// additionally consults PlacementPolicy::suggestMigration at
/// quantum-slice boundaries when the completing device's normalized
/// backlog has diverged from the rest of the fleet, and half-executed
/// virtual ranges carry their remaining work groups to the new device.
/// Everything stays deterministic: the same inputs (trace + options +
/// fleet plan) replay to bit-identical outcomes, migrations and
/// failures included.
///
/// The replay keeps one binding per request. A request gets a device
/// only by being bound: its first placement (at arrival, or at a rejoin
/// when it arrived during a full outage), which counts toward
/// ClusterDeviceOutcome::Requests, or a failover or migration, which
/// adds a ClusterMigrationRecord. It ends exactly once, finished or
/// lost; Debug builds assert that every request does.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_CLUSTER_CLUSTERHARNESS_H
#define ACCEL_CLUSTER_CLUSTERHARNESS_H

#include "cluster/Fleet.h"
#include "harness/Streaming.h"
#include "workloads/Arrivals.h"

#include <cstdint>
#include <string>
#include <vector>

namespace accel {
namespace harness {

/// Per-device serving numbers of one cluster replay.
struct ClusterDeviceOutcome {
  std::string Name;     ///< The device spec's name.
  size_t Requests = 0;  ///< Requests first placed on this device.
  double BusyTime = 0;  ///< Time the device had work in flight.
  double Utilization = 0; ///< BusyTime over the cluster makespan.
  size_t Rounds = 0;      ///< Admission passes solved on this device.
  uint64_t Deferrals = 0; ///< Scheduler deferrals on this device.
};

/// One scripted device failure and what came of it.
struct ClusterFaultRecord {
  size_t Device = 0;
  double DownTime = 0;
  /// Requests unbound from the device (in flight or queued) by the
  /// failure.
  size_t Displaced = 0;
  /// Displaced requests that could not be re-placed (retry budget
  /// exhausted, or no device ever came back).
  size_t Lost = 0;
  /// Time from the failure until every displaced request was settled
  /// again — finished, lost, or displaced anew by a later fault. Zero
  /// when the failure displaced nothing.
  double RecoveryTime = 0;
};

/// One re-placement of a live request: a failover off a dead device, or
/// a quantum-boundary load-balancing migration.
struct ClusterMigrationRecord {
  size_t RequestIdx = 0;
  /// The device the request was last bound to (for a request parked
  /// through a full outage, the device it was displaced from).
  size_t From = 0;
  size_t To = 0;
  double Time = 0;
  /// Virtual work groups the request still had to execute when it
  /// moved.
  uint64_t RemainingWGs = 0;
  /// True when forced by a device failure, false for a voluntary
  /// (work-stealing) migration.
  bool Failover = false;
};

/// Whole-fleet outcome of one cluster replay.
struct ClusterOutcome {
  /// Cluster-wide request metrics, in the shape every single-device
  /// consumer already understands: per-request timings, slowdowns
  /// (normalized to the isolated duration on the device that served
  /// the request's final slice), unfairness, makespan, FinalWeights.
  /// Rounds/Deferrals aggregate over the fleet.
  StreamOutcome Stream;
  std::vector<ClusterDeviceOutcome> Devices; ///< Indexed by fleet position.
  /// The (final) placement of every request, parallel to
  /// Stream.Requests; the fleet size for a lost request that was never
  /// placed.
  std::vector<size_t> Placement;
  /// Times each request was displaced by a device failure, parallel to
  /// Stream.Requests.
  std::vector<uint32_t> Retries;
  /// Requests that could not be served (trace order). Lost requests
  /// still appear in Stream.Requests with their loss instant as
  /// EndTime.
  std::vector<size_t> LostRequests;
  std::vector<ClusterFaultRecord> Faults; ///< Plan order.
  std::vector<ClusterMigrationRecord> Migrations; ///< Event order.
  /// Work conservation: virtual work groups the trace asked for vs.
  /// those that completed. Equal whenever LostRequests is empty —
  /// migration and failover move work, they never duplicate or leak it.
  uint64_t RequestedWGs = 0;
  uint64_t ExecutedWGs = 0;
};

/// Where the per-request solo-duration estimate the placement policies
/// see (PlacementRequest::soloOn) comes from. The interesting case is
/// cold start: a kernel the fleet has never executed.
enum class SoloEstimateKind {
  /// Measured isolated duration, even for kernels that have never run —
  /// an oracle no real serving system has on first contact. The
  /// historical (and still default) behavior.
  Oracle,
  /// No per-kernel knowledge at all: every request is assumed to take
  /// the device's suite-mean solo duration. What a prior-less system
  /// is reduced to before its first measurement.
  Blind,
  /// Cold-start prior from the KIR static cost analysis
  /// (harness::ExperimentDriver::priorSoloDuration), blending into the
  /// measured mean service span as completions of the same kernel on
  /// the same device accumulate.
  StaticPrior,
};

/// One scripted fleet-capacity event on the merged clock.
struct FleetEvent {
  enum class Kind {
    Down, ///< Fail-stop: the device leaves with its work displaced.
    Up,   ///< The device (re)joins empty and accepts placements again.
  };
  double Time = 0;
  size_t Device = 0;
  Kind What = Kind::Down;
};

/// Quantum-boundary migration (work-stealing) knobs.
struct MigrationOptions {
  bool Enabled = false;
  /// Migrate only when the completing device's normalized backlog
  /// (outstanding thread-cycles over service rate) exceeds this factor
  /// times the mean normalized backlog of the other in-service devices.
  double DivergenceFactor = 2.0;
  /// Per-request cap on voluntary migrations (failovers are not
  /// budgeted — a dead device leaves no choice).
  uint32_t MaxPerRequest = 8;
};

/// Cluster replay knobs: the single-device streaming options (weights,
/// quantum, SLO targets/adaptation, strict shares) apply per device. Stream.Admission Stride gives every device
/// a StrideScheduler; RoundSync (the default) means Continuous, since a
/// fleet has no global round boundary.
struct ClusterOptions {
  StreamOptions Stream;
  /// accelOS batching mode of the per-device work-queue launches.
  accelos::SchedulingMode Mode = accelos::SchedulingMode::Optimized;
  /// Per-tenant sticky affinity: once a tenant's first request is
  /// placed, every later request of that tenant follows it to the same
  /// device (cache/session locality) while that device is in service;
  /// the policy decides each tenant's first placement and re-decides
  /// after its home device fails.
  bool StickyTenantAffinity = false;
  /// Source of the solo-duration estimates placement decisions use. In
  /// StaticPrior mode the analysis prior counts as one observation when
  /// blending with measured service spans:
  /// estimate = (Prior + sum(observed)) / (1 + count).
  SoloEstimateKind SoloEstimate = SoloEstimateKind::Oracle;
  /// Scripted capacity events (failure injection / elasticity),
  /// applied in time order (ties in plan order) before the arrivals of
  /// the same instant. A device whose FIRST scripted event is Up
  /// starts outside the serving set.
  std::vector<FleetEvent> FleetPlan;
  /// How many times a request may be displaced by failures before it
  /// is declared lost.
  uint32_t MaxRetries = 3;
  MigrationOptions Migration;
};

/// The workload of one cluster replay: exactly one of an open-loop
/// timed trace or a closed-loop script.
struct ClusterWorkload {
  const std::vector<workloads::TimedRequest> *Trace = nullptr;
  const workloads::ClosedLoopScript *Script = nullptr;

  static ClusterWorkload
  openLoop(const std::vector<workloads::TimedRequest> &T) {
    ClusterWorkload W;
    W.Trace = &T;
    return W;
  }

  static ClusterWorkload closedLoop(const workloads::ClosedLoopScript &S) {
    ClusterWorkload W;
    W.Script = &S;
    return W;
  }
};

/// Replays \p Workload across \p Fleet under \p Policy — THE cluster
/// entry point; open vs closed loop is a property of the workload, not
/// a second function. AdaptiveSloWeights drives one cluster-wide
/// controller across every device.
ClusterOutcome runClusterReplay(cluster::Fleet &Fleet,
                                cluster::PlacementPolicy &Policy,
                                const ClusterWorkload &Workload,
                                const ClusterOptions &Opts = {});

} // namespace harness
} // namespace accel

#endif // ACCEL_CLUSTER_CLUSTERHARNESS_H
