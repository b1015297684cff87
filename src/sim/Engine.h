//===- sim/Engine.h - Discrete-event accelerator simulation -----*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timing model: a discrete-event simulation of work-group execution
/// on a multi-CU accelerator with processor-sharing compute units,
/// occupancy limits (threads, local memory, registers, WG slots), a
/// FIFO hardware dispatcher with per-vendor admission policies, and two
/// work-sourcing modes:
///
///  - Static: one physical work group per unit of work, pre-assigned
///    cost (standard OpenCL and the Elastic Kernels baseline);
///  - WorkQueue: few physical work groups dynamically dequeue batches of
///    virtual groups from a shared queue with a per-dequeue atomic cost
///    (accelOS, paper Sec. 2.4/6.4).
///
/// Launches enter the device queue at their ArrivalTime, so the same
/// model covers both the paper's one-shot batches (all arrivals zero)
/// and open-loop streams of requests arriving over time. Two driving
/// styles share one implementation:
///
///  - Engine::run — simulate a fixed launch vector to completion;
///  - EngineSession — a persistent incremental session (admit /
///    advanceTo / advanceUntil / drain) that lets a host-side scheduler
///    inject launches mid-run and react to individual completions, which
///    is what arrival-aware continuous admission is built on. A session
///    holds only the launches still in play, so its memory tracks the
///    active window, not every launch it ever ran.
///
/// All of the paper's scheduling effects — serialization and unfairness
/// under FIFO, space sharing under accelOS, load balancing from dynamic
/// dequeue, batching amortization — are emergent behaviours of this
/// model, not hard-coded outcomes.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_SIM_ENGINE_H
#define ACCEL_SIM_ENGINE_H

#include "sim/DeviceSpec.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace accel {
namespace sim {

/// One kernel execution request submitted to the device.
struct KernelLaunchDesc {
  int AppId = 0;

  /// Simulation time at which this launch reaches the device. The
  /// hardware dispatcher's FIFO queue is ordered by arrival (vector
  /// order breaks ties), and a launch is invisible to admission and
  /// dispatch before this time. Zero (the default) reproduces the
  /// one-shot batch model where every launch is submitted together.
  double ArrivalTime = 0;

  /// Physical work-group shape and per-WG resource footprint.
  uint64_t WGThreads = 0;     ///< w_i: threads per work group.
  uint64_t LocalMemPerWG = 0; ///< m_i: local memory bytes per work group.
  uint64_t RegsPerThread = 0; ///< r_i: registers per thread.

  /// Fraction of peak per-thread issue rate this kernel sustains
  /// (memory/latency-bound kernels < 1). Determines how much co-running
  /// can recover utilization.
  double IssueEfficiency = 1.0;

  enum class ModeKind { Static, WorkQueue } Mode = ModeKind::Static;

  /// Static mode: cost (thread-cycles) of each physical work group.
  std::vector<double> StaticCosts;

  /// WorkQueue mode: cost of each *virtual* group, the number of
  /// physical work groups that drain them, and the dequeue batch size.
  std::vector<double> VirtualCosts;
  uint64_t PhysicalWGs = 0;
  uint64_t Batch = 1;

  /// WorkQueue fast path for high-rate serving replays: a non-owning
  /// [ViewBegin, ViewEnd) window into a per-virtual-group cost array
  /// owned by the caller (e.g. the compiled kernel's WGCosts), used in
  /// place of copying the window into VirtualCosts. The array must
  /// outlive the launch's completion. Null (the default) keeps the
  /// owned-vector representation.
  const double *ViewCosts = nullptr;
  uint64_t ViewBegin = 0;
  uint64_t ViewEnd = 0;

  /// Virtual-group count under either representation.
  uint64_t numVirtualGroups() const {
    return ViewCosts ? ViewEnd - ViewBegin : VirtualCosts.size();
  }
  /// Cost of virtual group \p I under either representation.
  double virtualCost(uint64_t I) const {
    return ViewCosts ? ViewCosts[ViewBegin + I] : VirtualCosts[I];
  }

  /// Launches sharing a merge group dispatch without head-of-line
  /// blocking between each other (the Elastic Kernels merged batch).
  /// -1 means "own group" (default FIFO semantics). Engine::run resolves
  /// a group over its whole batch, finished members included; a session
  /// only over the launches it still holds (see EngineSession).
  int MergeGroup = -1;

  uint64_t numPhysicalWGs() const {
    return Mode == ModeKind::Static ? StaticCosts.size() : PhysicalWGs;
  }

  /// Total useful work in thread-cycles (excludes overheads).
  double totalWork() const;
};

/// Timing of one kernel execution.
struct KernelExecResult {
  int AppId = 0;
  double ArrivalTime = 0; ///< Submission to the device queue.
  double StartTime = 0;   ///< First work-group dispatch.
  double EndTime = 0;     ///< Last work-group completion.
  uint64_t DispatchedWGs = 0;
  uint64_t DequeueOps = 0;

  double duration() const { return EndTime - StartTime; }

  /// Time from submission to completion (queueing included) — the
  /// latency a tenant observes in a streaming workload.
  double turnaround() const { return EndTime - ArrivalTime; }

  /// Time spent waiting in the device queue before the first dispatch.
  double queueDelay() const { return StartTime - ArrivalTime; }
};

/// Result of simulating one workload.
struct SimResult {
  std::vector<KernelExecResult> Kernels;
  double Makespan = 0;
};

namespace detail {
class SessionState;
}

/// A persistent simulation session: the incremental form of the engine.
///
/// Where Engine::run tears the whole simulation down after one batch, a
/// session keeps the device state (resident work groups, the FIFO
/// device queue, each compute unit's next leg end) alive between calls,
/// so a host-side scheduler can inject launches at arbitrary simulation
/// times and react to each completion as it happens — the substrate for
/// arrival-aware continuous admission (no global round boundaries).
///
/// The protocol is pull-based:
///
///   EngineSession S(Spec);
///   S.admit(Batch1);                 // visible at their ArrivalTime
///   while ((T = S.nextEventTime()) >= 0) {
///     for (const KernelExecResult &K : S.advanceTo(T))
///       react(K);                    // completions in (now, T]
///     S.admit(moreWork);             // e.g. at ArrivalTime == S.now()
///   }
///
/// A caller that reacts only to completions need not stop at every
/// event: advanceUntil(Bound, StopAt, Out) runs the session ahead to the
/// first instant that completes a launch (or lies at or after StopAt),
/// never past Bound — on a merged clock, the next instant anything else
/// needs the caller. The events it runs through are the ones stepping
/// with advanceTo would take, in the same order.
///
/// Determinism contract: admitting every launch up front and draining
/// the session is event-for-event identical to Engine::run on the same
/// vector (Engine::run is implemented exactly that way, merge groups
/// aside), so the one-shot batch semantics are preserved bit-for-bit.
///
/// Memory: a session holds only the launches still in play. Once a
/// launch has delivered its completion and every launch that arrived
/// before it has finished, its record is recycled for a later admit,
/// so a long-lived session (a serving loop, the Runtime) runs in memory
/// bounded by its active window.
class EngineSession {
public:
  explicit EngineSession(const DeviceSpec &Spec);
  ~EngineSession();
  EngineSession(EngineSession &&) noexcept;
  EngineSession &operator=(EngineSession &&) noexcept;

  /// Submits launches to the device queue. Each launch becomes visible
  /// to admission and dispatch at max(ArrivalTime, now()): a launch
  /// admitted after its nominal arrival has simply reached the device
  /// late. Ties keep admission order (and, within one call, vector
  /// order). Zero-work launches complete immediately at their arrival.
  void admit(std::vector<KernelLaunchDesc> Launches);

  /// Buffer-reusing admit: moves the launches out of \p Launches and
  /// clears it, retaining its capacity, so a steady-state serving loop
  /// refills one scratch vector instead of allocating per event.
  void admitFrom(std::vector<KernelLaunchDesc> &Launches);

  /// Current simulation time: advances monotonically via advanceTo.
  double now() const;

  /// Absolute time of the next pending event (a work-group completion
  /// or a not-yet-arrived launch), or a negative value when the session
  /// is idle and the queue is empty.
  double nextEventTime() const;

  /// Advances the simulation through every event at times <= \p T and
  /// sets now() to at least \p T. \returns the launches that completed
  /// in the window, in completion order; completions at one instant on
  /// different compute units come in CU index order.
  std::vector<KernelExecResult> advanceTo(double T);

  /// Buffer-reusing advanceTo: replaces the contents of \p Out with the
  /// window's completions (capacity retained across calls).
  void advanceTo(double T, std::vector<KernelExecResult> &Out);

  /// Runs ahead to the next instant the caller must see: processes the
  /// events at times <= \p T, in the order advanceTo does, and returns
  /// after the first instant that leaves a completion to return or lies
  /// at or after \p StopAt, with every event of that instant processed
  /// and now() at that instant. When neither comes first, it returns
  /// after every event up to \p T with now() at least \p T, as
  /// advanceTo(T) does. A \p StopAt at or before now() stops after the
  /// first instant. Replaces \p Out with the completions.
  void advanceUntil(double T, double StopAt,
                    std::vector<KernelExecResult> &Out);

  /// Advances the simulation to exactly the next pending event and
  /// replaces \p Out with the completions at that instant. \returns
  /// false (clearing \p Out) when the session is idle — the host-driven
  /// pump's "nothing left to wait for" signal when it has no arrivals
  /// of its own scheduled.
  bool advanceNextEvent(std::vector<KernelExecResult> &Out);

  /// Runs every admitted launch to completion (the batch semantics).
  /// \returns the completions, in completion order.
  std::vector<KernelExecResult> drain();

  /// Fail-stop cancellation (the device died under its work): removes
  /// every launch that has not yet delivered a completion — resident
  /// work groups are evicted mid-leg and their partial progress is
  /// discarded, queued and not-yet-arrived launches are dropped — and
  /// \returns the cancelled descriptors in queue order so the caller
  /// can rebuild the work elsewhere. Completions already recorded and
  /// the clock survive: the session stays usable, e.g. for a failed
  /// device rejoining the fleet later.
  std::vector<KernelLaunchDesc> cancelAll();

  /// Launches admitted but not yet finished.
  size_t inFlight() const;

private:
  std::unique_ptr<detail::SessionState> State;
};

/// Discrete-event executor for a stream of kernel launches. Each launch
/// is admitted to the device queue at its ArrivalTime (arrival events
/// interleave with work-group completions); launches that all arrive at
/// time 0 reproduce the classic concurrently-submitted batch, in vector
/// order.
///
/// Engine::run is the one-shot convenience wrapper over EngineSession:
/// admit everything, drain, report in submission order.
class Engine {
public:
  explicit Engine(const DeviceSpec &Spec) : Spec(Spec) {}

  /// Simulates the launches to completion. Taken by value so callers
  /// can std::move a batch in and skip copying the per-WG cost
  /// vectors; an lvalue argument is copied exactly once, as before.
  SimResult run(std::vector<KernelLaunchDesc> Launches);

private:
  const DeviceSpec &Spec;
};

} // namespace sim
} // namespace accel

#endif // ACCEL_SIM_ENGINE_H
