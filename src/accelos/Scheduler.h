//===- accelos/Scheduler.h - Round-based kernel scheduler -------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Kernel Scheduler's round policy, extracted from the runtime so
/// the same component drives both the functional path (Runtime) and the
/// timing harness. It maintains a FIFO queue of pending kernel
/// execution requests and, at every scheduling boundary (a batch of
/// arrivals or the completion of the previous round), re-solves the
/// Sec. 3 fair shares over whatever is pending — the divisor K is
/// dynamic, shrinking as requests complete and growing as tenants
/// submit more work.
///
/// Requests the oversubscription clamp sheds (their minimum-share floor
/// could not fit alongside the others) are *deferred*: they stay queued
/// and are re-solved in a later, smaller round instead of being floored
/// onto an already-full device. A request that keeps losing to the
/// clamp is eventually granted a round of its own, so deferral never
/// becomes starvation.
///
/// The admission disciplines share the queue/grant vocabulary and one
/// interface, AdmissionScheduler, selected by AdmissionMode:
///
///  - RoundSync: RoundScheduler behind a completion barrier — every
///    grant of a round ends before the next round is solved (the
///    paper's global scheduling boundary);
///  - Continuous: ContinuousScheduler — in-flight executions keep
///    their grants while newly arrived (or requeued sliced) requests
///    are admitted into the *residual* capacity at every
///    arrival/completion event, with no global barrier;
///  - Stride: StrideScheduler — the same event-driven admission with
///    pass/stride tenant counters in place of the fair-share solve.
///
/// Continuous and Stride keep one in-flight ledger, ResidualScheduler.
/// Every fair-share solve runs the allocation-free solveFairShares, and
/// every solo grant is soloShare (ResourceSolver.h).
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_ACCELOS_SCHEDULER_H
#define ACCEL_ACCELOS_SCHEDULER_H

#include "accelos/ResourceSolver.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace accel {
namespace accelos {

/// One queued kernel execution request.
struct RoundRequest {
  uint64_t Id = 0; ///< Caller-owned handle, returned in the grant.
  KernelDemand Demand;
  /// Submitting tenant. The fair-share schedulers ignore it (weights
  /// arrive per-request in Demand.Weight); the stride scheduler charges
  /// this tenant's pass counter for every grant. Last so the
  /// widespread {Id, Demand} aggregate initialization keeps working.
  int Tenant = 0;
};

/// A pending request in a scheduler's queue, with the times it has been
/// passed over: clamp-shed requeues for RoundScheduler, overtakes by
/// younger grants for ContinuousScheduler and StrideScheduler. Each
/// scheduler's MaxDeferrals bounds the count.
struct QueuedRequest {
  RoundRequest R;
  uint32_t DeferCount = 0;
};

/// A share grant for one member of a scheduling round.
struct RoundGrant {
  uint64_t Id = 0;
  /// Solved physical work groups. Positive for every request that asked
  /// for work; zero only for zero-request (idle) submissions.
  uint64_t WGs = 0;
};

/// Observable scheduler behaviour.
struct SchedulerStats {
  /// Scheduling decisions solved: rounds for RoundScheduler, admission
  /// passes (one per arrival/completion event with a non-empty queue)
  /// for ContinuousScheduler.
  uint64_t RoundsPlanned = 0;
  /// Times a request was pushed past a scheduling decision: clamp-shed
  /// requeues for RoundScheduler; for ContinuousScheduler, the times a
  /// waiting request was overtaken by a younger grant in the same pass
  /// (the bypasses the anti-starvation bound counts).
  uint64_t Deferrals = 0;
  /// Times an anti-starvation escape engaged: solo rounds for
  /// RoundScheduler, forced idle-device grants for ContinuousScheduler.
  uint64_t SoloRescues = 0;
  /// Scheduling decisions that invoked solveFairShares. For
  /// ContinuousScheduler this is the fallback-to-full-solve counter of
  /// the incremental machinery: RoundsPlanned == FullSolves + FastPasses.
  uint64_t FullSolves = 0;
  /// Scheduling decisions served without a solve: ContinuousScheduler
  /// admission passes resolved by a structural fast path (underloaded
  /// device, or zero residual capacity), and every StrideScheduler pass.
  uint64_t FastPasses = 0;
};

/// The admission discipline of one device's scheduler — the one choice
/// behind harness::StreamOptions::Admission and RuntimeOptions::Mode.
enum class AdmissionMode {
  /// Completion-round-synchronous: a global boundary per round.
  RoundSync,
  /// Event-driven fair-share admission into the residual capacity.
  Continuous,
  /// Event-driven admission through pass/stride tenant counters: no
  /// solver, O(log tenants) per pick, approximate weighted fairness.
  Stride,
};

/// The event-driven admission surface every serving loop drives: the
/// fleet replay (per device) and the Runtime pump. The caller queues
/// arrivals and requeued slices with submit(), asks admit() for grants
/// at every arrival/completion event, narrows a grant whose slice runs
/// fewer work groups with shrink(), and reports each granted
/// execution's end with complete(). Zero-work requests are granted zero
/// work groups and need no complete().
class AdmissionScheduler {
public:
  virtual ~AdmissionScheduler();

  /// Queues a request (an arrival event; call admit() to act on it).
  virtual void submit(const RoundRequest &R) = 0;
  /// Plans admissions for the current event. The returned reference is
  /// into a buffer reused by the next call.
  virtual const std::vector<RoundGrant> &admit() = 0;
  /// Marks the granted execution \p Id complete, returning its capacity.
  virtual void complete(uint64_t Id) = 0;
  /// Narrows the reserved footprint of in-flight execution \p Id to the
  /// \p WGs actually launched.
  virtual void shrink(uint64_t Id, uint64_t WGs) = 0;
  /// Drops every pending request (error recovery, device loss);
  /// in-flight executions are unaffected.
  virtual void clear() = 0;
  virtual const SchedulerStats &stats() const = 0;
};

/// Round-synchronous fair-share scheduler over one device's capacity.
class RoundScheduler {
public:
  /// A request deferred this many times is granted a round of its own.
  static constexpr uint32_t MaxDeferrals = 3;

  explicit RoundScheduler(const ResourceCaps &Caps,
                          SolverOptions Opts = {})
      : Caps(Caps), Opts(Opts) {}

  /// Queues a request (an arrival boundary: the next round's K grows).
  void submit(const RoundRequest &R) { Queue.push_back({R, 0}); }

  /// Plans the next round over everything pending: solves fair shares
  /// with K = pending(), pops and returns the granted requests, and
  /// keeps clamp-shed requests queued (in order) for a later round.
  /// Returns an empty vector only when nothing is pending.
  std::vector<RoundGrant> nextRound();

  size_t pending() const { return Queue.size(); }
  const SchedulerStats &stats() const { return Stats; }

  /// Drops every pending request (error recovery).
  void clear() { Queue.clear(); }

private:
  /// Grants \p E a round of its own (K = 1).
  RoundGrant soloGrant(const QueuedRequest &E) const;

  ResourceCaps Caps;
  SolverOptions Opts;
  std::deque<QueuedRequest> Queue;
  SchedulerStats Stats;
  /// Solve input, output and working storage, reused across rounds.
  std::vector<KernelDemand> Demands;
  std::vector<uint64_t> Shares;
  SolverScratch Scratch;
};

/// Tuning of the ContinuousScheduler's incremental-solving machinery.
struct SchedulerOptions {
  /// Serve admission passes through the structural fast paths when they
  /// apply (see ContinuousScheduler). Grants are bit-identical either
  /// way; disabling forces a full solve at every event — the
  /// pre-optimization hot path, kept as the speedup baseline of
  /// bench/serve_scale and the reference side of differential tests.
  bool Incremental = true;
  /// Debug/test mode: every underload fast-path pass and every
  /// allocation-free solve is re-derived with the reference solve, and
  /// the shares are asserted equal (debug builds; compiles away under
  /// NDEBUG). The no-residual rule is not re-derived: it does not
  /// compute shares, only proves every grant clamps to zero.
  bool SelfCheck = false;
};

/// The in-flight ledger shared by the event-driven schedulers: every
/// admitted, not-yet-completed execution with the footprint it holds,
/// their aggregate, and the device capacity left over. complete() and
/// shrink() return capacity to the residual() the next admit() hands
/// out; the derived schedulers differ only in how admit() picks grants.
///
/// The ledger is two flat arrays sorted by request id: FlightIds, and
/// Flights with one solve input row per execution (its demand, with
/// RequestedWGs set to the work groups it holds). A full solve copies
/// Flights in one go, so the id order is the order in-flight rows enter
/// the solve — and that order is part of the schedule: the clamp's
/// victim ties go to the last index and saturation grows shares in
/// index order. Every flight holds at least one work-group slot, so a
/// device carries at most about WGSlots flights (208 on the K20m) and
/// an insert or erase moves a few KiB at most.
class ResidualScheduler : public AdmissionScheduler {
public:
  /// A pending request overtaken this many times blocks younger grants.
  static constexpr uint32_t MaxDeferrals = RoundScheduler::MaxDeferrals;

  /// Marks the in-flight execution \p Id complete, returning its
  /// capacity to the pool (a completion event; call admit() next).
  void complete(uint64_t Id) override;

  /// Narrows the reserved footprint of in-flight execution \p Id to
  /// the \p WGs actually launched. A quantum slice shorter than the
  /// grant runs fewer physical work groups; the difference is idle
  /// capacity the next admission pass may hand out.
  void shrink(uint64_t Id, uint64_t WGs) override;

  const SchedulerStats &stats() const override { return Stats; }
  size_t inFlight() const { return Flights.size(); }

protected:
  explicit ResidualScheduler(const ResourceCaps &Caps) : Caps(Caps) {}

  /// Device capacity minus every in-flight footprint (O(1): maintained
  /// as the FlightUse aggregate, not re-summed).
  ResourceCaps residual() const;

  /// Records a grant of \p WGs work groups of \p D to request \p Id as
  /// in flight.
  void addFlight(uint64_t Id, const KernelDemand &D, uint64_t WGs);

  /// Debug builds: asserts that FlightUse equals the ledger rows'
  /// footprints re-summed. Does nothing under NDEBUG.
  void checkFlightUse() const;

  ResourceCaps Caps;
  std::vector<uint64_t> FlightIds; ///< Ascending request ids.
  /// Flights[I] is request FlightIds[I]'s solve row: its demand with
  /// RequestedWGs set to the work groups it holds.
  std::vector<KernelDemand> Flights;
  /// Aggregate footprint of every in-flight grant; kept in sync by
  /// addFlight()/shrink()/complete().
  ResourceUse FlightUse;
  SchedulerStats Stats;
  std::vector<RoundGrant> Grants; ///< admit()'s result, reused.
};

/// Event-driven fair-share scheduler: the continuous-admission growth
/// of RoundScheduler. Instead of waiting for a whole round to complete,
/// the caller reports individual completions (complete()) and asks for
/// new admissions (admit()) at every arrival/completion event; pending
/// requests are granted out of the capacity left over by in-flight
/// executions, so a request arriving just after others started never
/// waits out their makespan when the device has room.
///
/// Fairness without preemption: in-flight executions keep their grants,
/// but they stay in the fair-share divisor, so a newly admitted request
/// only claims its fair fraction of the device. The quantum slicing
/// done by the serving loop bounds how long any grant occupies its
/// share, which is what lets the allocation converge to the fair point
/// without ever revoking work.
///
/// Anti-starvation: a pending request that is overtaken (a younger
/// request admitted past it) MaxDeferrals times blocks all younger
/// admissions until capacity drains enough to admit it — bounded
/// bypassing, in place of RoundScheduler's solo rounds.
///
/// Incremental solving: the serving hot path calls admit() at *every*
/// arrival/completion event, and most events do not change the solve's
/// structure. Two structural rules recognize those events in O(queue)
/// without invoking the solver, feeding the exact shares the solver
/// would have produced into the unchanged grant loop (so the grant
/// history is bit-identical by construction):
///
///  - underload: the aggregate footprint of every in-flight grant plus
///    every queued request at its full size fits the device, so
///    saturation would grow each share to its request anyway;
///  - no residual capacity: the device is occupied and not one work
///    group of any queued request fits the residual, so every grant
///    would be clamped to zero no matter what the solver said.
///
/// Everything else falls back to a full solveFairShares (the
/// allocation-free overload); stats().FullSolves / FastPasses count the
/// split, and SchedulerOptions::SelfCheck re-derives the underload fast
/// path and every allocation-free solve with the reference solve and
/// asserts equality (debug builds).
class ContinuousScheduler final : public ResidualScheduler {
public:
  explicit ContinuousScheduler(const ResourceCaps &Caps,
                               SolverOptions Opts = {},
                               SchedulerOptions SchedOpts = {})
      : ResidualScheduler(Caps), Opts(Opts), SchedOpts(SchedOpts) {}

  void submit(const RoundRequest &R) override;

  /// Plans admissions for the current event: re-solves fair shares over
  /// everything active (in-flight + pending) and grants each pending
  /// request the smaller of its fair share and what still fits the
  /// residual capacity. Equal-weight requests are served in FIFO order
  /// (the paper default, kept bit-identical); with non-equal weights
  /// the queue is served highest-weight first — under saturation FIFO
  /// would make every requeued slice of a heavy tenant wait out the
  /// lighter queue, defeating the weights — except that a starving
  /// request (MaxDeferrals overtakes) always goes first. Requests that
  /// get nothing stay queued. Zero-work requests are granted zero work
  /// groups and leave the queue immediately. An idle device never
  /// refuses its oldest request (work conservation), even when the
  /// clamp shed it.
  ///
  /// The returned reference is into a buffer reused by the next admit()
  /// call — consume (or copy) it before then.
  const std::vector<RoundGrant> &admit() override;

  size_t pending() const { return Queue.size(); }

  void clear() override {
    Queue.clear();
    QueueUse = ResourceUse{};
  }

private:
  /// Computes fair-share targets for the queue tail of the current
  /// admission pass into Shares (offset by QueueBase), via a structural
  /// fast path when one applies, else a full solve.
  void solveTargets(size_t QueueBase);

  /// Fills Demands with the solve's input: the ledger's rows (every
  /// in-flight grant at the work groups it holds, in id order) in one
  /// copy, then the queue (degenerate zero-thread demands as zero-work
  /// requests).
  void collectDemands();

  SolverOptions Opts;
  SchedulerOptions SchedOpts;
  std::deque<QueuedRequest> Queue;
  /// Aggregate footprint of every queued request at its full
  /// (zero-thread-normalized) size; kept in sync by submit()/admit().
  ResourceUse QueueUse;
  /// Scratch reused across admission passes (allocation-free steady
  /// state on the serving hot path).
  std::vector<KernelDemand> Demands;
  std::vector<uint64_t> Shares;
  std::vector<size_t> Order;
  std::deque<QueuedRequest> Kept;
  /// Working storage for the allocation-free solver overload, used on
  /// full solves when SchedOpts.Incremental is set.
  SolverScratch Scratch;
  /// Monotonic lower bound on the WGThreads of every work-carrying
  /// request ever submitted; lets hot paths prove "nothing can fit the
  /// residual" in O(1) (a fit needs at least one slot and at least
  /// MinWGThreads threads). Never reset — a lower bound stays valid.
  uint64_t MinWGThreads = UINT64_MAX;
};

/// Deterministic proportional-share admission without the solver:
/// stride scheduling (Waldspurger/Weihl; CS140 chap9) over the tenant
/// weight vector, as a cheap approximate alternative to the exact
/// fair-share solve. Each tenant holds tickets equal to its current
/// request weight and a stride inversely proportional to them; every
/// admission pass repeatedly picks the minimum-pass tenant from a
/// binary min-heap (O(log n) per pick), grants its oldest request as many
/// work groups as fit the residual capacity (capped at an equal split
/// of the pass's starting residual when several tenants are waiting, so
/// space is shared while the weights act through pick frequency), and
/// advances that tenant's pass by its stride. Weights therefore bind
/// over *time* — a weight-2 tenant is picked twice as often — rather
/// than through per-event share re-solving.
///
/// A ResidualScheduler like ContinuousScheduler, so the serving loops
/// drive both the same way. Fairness is approximate:
/// serve_scale gates its peak windowed unfairness within 2x of the
/// exact solver's while admission passes stay O(grants * log tenants).
///
/// Anti-starvation mirrors ContinuousScheduler: a tenant head bypassed
/// MaxDeferrals times blocks younger grants for the rest of the pass; a
/// lagging tenant's frozen pass value also sinks it to the front of the
/// pick order, so bypassing is doubly bounded. New or reactivated
/// tenants join at max(own pass, global pass) — the standard stride
/// re-entry rule — so sleeping never banks credit.
class StrideScheduler final : public ResidualScheduler {
public:
  /// Stride numerator (stride = Stride1 / tickets, in doubles — exact
  /// for every power-of-two-free weight ratio that matters here, and
  /// deterministic regardless).
  static constexpr double Stride1 = 1 << 20;

  explicit StrideScheduler(const ResourceCaps &Caps)
      : ResidualScheduler(Caps) {}

  /// Queues a request under R.Tenant's account (an arrival event). The
  /// tenant's tickets are refreshed from R.Demand.Weight, so adaptive
  /// weight changes take effect on the next submission.
  void submit(const RoundRequest &R) override;

  /// Plans admissions for the current event (see class comment). The
  /// returned reference is into a buffer reused by the next call.
  const std::vector<RoundGrant> &admit() override;

  size_t pending() const { return Pending; }

  /// Drops every pending request; in-flight executions keep their
  /// grants, tenants keep their pass values.
  void clear() override;

private:
  struct TenantState {
    double Tickets = 1.0;
    double Stride = Stride1;
    double Pass = 0;
    std::deque<QueuedRequest> Queue;
  };

  std::unordered_map<int, TenantState> Tenants;
  /// (Pass, tenant) of every tenant with queued work — the min-pass
  /// pick index. A tenant is in it at most once, so keys are unique and
  /// the heap pops in (Pass, tenant) order: ties go to the lower tenant.
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>, std::greater<>>
      Ready;
  /// High-water mark of granted passes; re-entry level for idle
  /// tenants.
  double GlobalPass = 0;
  size_t Pending = 0;
  std::vector<int> Skipped; ///< Pass-local scratch.
};

/// RoundScheduler behind a completion barrier, as an AdmissionScheduler:
/// admit() plans the next round only when none of the previous rounds'
/// grants is in flight, so an event-driven caller reproduces the
/// round-by-round nextRound() sequence of a loop that waits out each
/// round. Grants never shrink (a round grant runs its whole remaining
/// range), and a round of only zero-work grants is followed at once by
/// the next one.
class RoundSyncScheduler final : public AdmissionScheduler {
public:
  explicit RoundSyncScheduler(const ResourceCaps &Caps,
                              SolverOptions Opts = {})
      : Rounds(Caps, Opts) {}

  void submit(const RoundRequest &R) override { Rounds.submit(R); }
  const std::vector<RoundGrant> &admit() override;
  void complete(uint64_t Id) override;
  void shrink(uint64_t, uint64_t) override {}
  void clear() override { Rounds.clear(); }
  const SchedulerStats &stats() const override { return Rounds.stats(); }

private:
  RoundScheduler Rounds;
  size_t InFlight = 0; ///< Granted executions not yet complete.
  std::vector<RoundGrant> Grants;
};

/// \returns a scheduler running discipline \p Mode over \p Caps. \p
/// SchedOpts applies to Continuous only; Stride takes neither option.
std::unique_ptr<AdmissionScheduler>
makeAdmissionScheduler(AdmissionMode Mode, const ResourceCaps &Caps,
                       SolverOptions Opts = {},
                       SchedulerOptions SchedOpts = {});

/// Tuning of the SLO weight controller: the attainment band and sample
/// floor the serving drivers set. The control law's step sizes and cap
/// are SloWeightController constants.
struct SloControllerOptions {
  /// Attainment headroom: only decay when p95 is safely under target,
  /// leaving a hysteresis band [Headroom * target, target] where the
  /// boost holds steady instead of oscillating.
  double Headroom = 0.8;
  /// A control window with fewer samples than this is ignored — a lone
  /// outlier must not re-weight the whole system.
  size_t MinSamples = 3;
};

/// Feedback from observed latency into the fair-share weight policy:
/// the control loop that turns the Sec. 3 fairness *mechanism* into an
/// SLO-driven serving policy (THEMIS/Gavel-style). Tenants declare a
/// target on per-request queueing time; the serving loop reports every
/// completion's aggregate queueing time via observe(), and once per
/// control interval maybeUpdate() compares each tenant's windowed p95
/// against its target:
///
///  - miss  (p95 > target):            boost *= IncreaseFactor;
///  - attain (p95 <= Headroom*target): boost /= DecayFactor;
///
/// with the boost clamped to [1, MaxBoost]. The effective weight handed
/// to the solver is static base weight x boost, so adaptation is
/// bounded: it can *favour* a missing tenant but never starve the
/// others (any two tenants' effective weights stay within MaxBoost of
/// their configured ratio). Tenants without a target keep boost 1.
class SloWeightController {
public:
  /// Multiplicative increase applied to a tenant's boost when its
  /// windowed p95 queueing delay misses the SLO target, so one control
  /// interval never raises a boost by more than this factor.
  static constexpr double IncreaseFactor = 1.5;
  /// Divisor applied when the tenant comfortably attains (p95 under
  /// Headroom * target): the boost decays back toward neutral so a
  /// once-starved tenant does not hold extra share forever.
  static constexpr double DecayFactor = 1.2;
  /// Hard cap on the boost. This is the aggregate-fairness bound: a
  /// tenant's effective weight never exceeds MaxBoost times its static
  /// weight, so the solver's weighted shares stay within a bounded
  /// factor of the operator's configured ratios (property-tested).
  static constexpr double MaxBoost = 8.0;
  static_assert(IncreaseFactor > 1 && DecayFactor > 1 && MaxBoost >= 1,
                "degenerate controller tuning");

  /// Observable adaptation behaviour.
  struct ControllerStats {
    uint64_t Updates = 0;   ///< Control intervals evaluated.
    uint64_t Increases = 0; ///< Boost raises (missed SLOs).
    uint64_t Decays = 0;    ///< Boost decays (comfortable attainment).
  };

  /// \p Targets maps tenant -> p95 queueing-delay target; \p
  /// BaseWeights carries the operator's static weights (absent tenants
  /// weigh 1). \p Interval is the control period in simulation time.
  SloWeightController(const std::map<int, double> &Targets,
                      const std::map<int, double> &BaseWeights,
                      double Interval, SloControllerOptions Opts = {});

  /// Records one completed request's queueing delay for \p Tenant's
  /// current control window.
  void observe(int Tenant, double QueueDelay);

  /// Runs the control law when a full interval has elapsed since the
  /// last update. \returns true when any tenant's weight changed (the
  /// caller should re-read weights for subsequent submissions).
  bool maybeUpdate(double Now);

  /// The earliest time at which maybeUpdate() runs the control law.
  double nextUpdate() const { return NextUpdate; }

  /// The effective solver weight of \p Tenant: static base x boost.
  double weight(int Tenant) const;

  /// The current adaptation boost of \p Tenant, in [1, MaxBoost].
  double boost(int Tenant) const;

  /// Effective weights of every tenant known to the controller.
  std::map<int, double> weights() const;

  const ControllerStats &stats() const { return Stats; }

private:
  struct TenantState {
    double Target = 0; ///< 0 = no SLO; boost stays 1.
    double Base = 1.0;
    double Boost = 1.0;
    std::vector<double> Window; ///< Queue delays since last update.
  };

  TenantState &state(int Tenant);

  double Interval;
  double NextUpdate;
  SloControllerOptions Opts;
  std::map<int, TenantState> Tenants;
  ControllerStats Stats;
};

} // namespace accelos
} // namespace accel

#endif // ACCEL_ACCELOS_SCHEDULER_H
