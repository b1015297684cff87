//===- accelos/Runtime.h - The accelOS host runtime -------------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The accelOS core (level 1 of the paper's Fig. 5): the Application
/// Monitor finite state machine (Fig. 6), the JIT compilation pipeline
/// (Fig. 7b: front end -> accelOS kernel transformation -> scheduling
/// library linkage), the Kernel Scheduler, and the memory manager that
/// pauses applications when device memory is oversubscribed.
///
/// Concurrency model. The runtime embeds a persistent sim::EngineSession
/// and an event-driven scheduler, so every submit() is an *arrival
/// event*: the request is admitted into the residual device capacity at
/// the next pump step instead of waiting for a global flush. Execution
/// is split the way the serving harness splits it — the kernel runs
/// *functionally* once (at its first grant, through the Virtual NDRange
/// machinery), while its *timing* is simulated as quantum-bounded
/// slices admitted, shrunk, and completed against the engine session.
/// The pump is driven by the waiting side: wait(), drain(), and
/// flushRound() advance the session until the awaited work retires,
/// dispatching completion callbacks outside the runtime lock.
///
/// The runtime holds one AdmissionScheduler, picked by RuntimeOptions::
/// Mode, behind one pump step:
///
///  - Continuous (default): ContinuousScheduler — fair shares re-solved
///    at every arrival/completion event over the residual capacity,
///    with the incremental fast paths;
///  - Stride: StrideScheduler — approximate proportional share without
///    the solver;
///  - RoundSync: RoundSyncScheduler, the legacy RoundScheduler behind a
///    completion barrier. Rounds are planned only when no round grant
///    is in flight and each grant runs its whole remaining range, so
///    the nextRound() call sequence — and with it the grant history —
///    is bit-identical to the pre-refactor flushRound() loop, which is
///    regression-tested.
///
/// Thread safety: submit()/submitAt()/wait()/drain()/flushRound()/
/// status()/done()/now()/onCompletion() may be called from multiple
/// producer threads; one internal mutex serializes the scheduler,
/// session, and request tables, and any waiting thread drives the pump.
/// Setup calls (createProgram, kernel/buffer creation, setAppWeight)
/// are NOT thread-safe — do them before spinning up producers.
/// Callbacks run on whichever thread drives the pump, outside the lock,
/// so they may re-enter the runtime (e.g. submit follow-up work).
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_ACCELOS_RUNTIME_H
#define ACCEL_ACCELOS_RUNTIME_H

#include "accelos/AdaptivePolicy.h"
#include "accelos/ResourceSolver.h"
#include "accelos/Scheduler.h"
#include "ocl/Ocl.h"
#include "passes/AccelOSTransform.h"
#include "sim/Engine.h"
#include "support/Error.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace accel {
namespace accelos {

class Runtime;

/// Application Monitor FSM transition counters (paper Fig. 6).
struct MonitorStats {
  uint64_t ProgramsJitted = 0;   ///< (a) new clProgram -> JIT compiler.
  uint64_t KernelsScheduled = 0; ///< (b) new kernel exec -> scheduler.
  uint64_t Passthrough = 0;      ///< (c) any other request.
};

/// Pauses applications whose device-memory allocations cannot be served
/// (paper Sec. 5, Memory Management).
class MemoryManager {
public:
  explicit MemoryManager(ocl::Device &Dev) : Dev(&Dev) {}

  /// Attempts an allocation for \p AppId. On exhaustion the application
  /// is paused and an error describing the pause is returned.
  Expected<ocl::Buffer> allocate(int AppId, uint64_t Size);

  /// Records that an application released a buffer (the Buffer frees
  /// the storage itself); resumes every paused application, whose next
  /// allocation re-checks the device.
  void released() { Paused.clear(); }

  bool isPaused(int AppId) const { return Paused.count(AppId) != 0; }

private:
  ocl::Device *Dev;
  std::set<int> Paused;
};

/// Runtime admission configuration, fixed at construction.
struct RuntimeOptions {
  /// The admission discipline; RoundSync reproduces the pre-refactor
  /// flushRound() grant history.
  using Admission = AdmissionMode;
  Admission Mode = Admission::Continuous;
  /// Timing-slice quantum for continuous/stride admission: an in-flight
  /// grant occupies its share for at most ~this many cycles before the
  /// remainder is requeued and re-solved. <= 0 runs each grant's whole
  /// remaining range in one slice. Ignored by RoundSync.
  double SliceQuantum = 0;
  /// Records every (request, WGs) grant in order — the bit-identity
  /// regression hook; see Runtime::grantHistory().
  bool RecordGrantHistory = false;
};

/// Lifecycle of one submitted request.
enum class RequestStatus : uint8_t {
  Queued,    ///< Submitted, not yet granted device share.
  Running,   ///< First grant issued; slices in flight.
  Completed, ///< Retired successfully; result available (or consumed).
  Failed,    ///< Functional execution failed; error via wait()/drain().
};

/// Result of one scheduled kernel execution. The timestamps are
/// simulation event times from the embedded engine session.
struct ScheduledExecution {
  std::string KernelName;
  int AppId = 0;
  uint64_t RequestId = 0;
  double ArrivalTime = 0;   ///< submit()/submitAt() arrival event.
  double AdmitTime = 0;     ///< First scheduler grant.
  double StartTime = 0;     ///< First work-group dispatch.
  double EndTime = 0;       ///< Last work-group completion.
  uint64_t PhysicalWGs = 0; ///< Work groups of the first grant.
  uint64_t OriginalWGs = 0; ///< Requested (virtual) work groups.
  uint64_t Batch = 0;       ///< Adaptive dequeue batch (Sec. 6.4).
  uint64_t Slices = 0;      ///< Timing slices the execution ran as.
  kir::ExecStats Stats;     ///< Functional execution statistics.

  /// Time spent queued before the first dispatch.
  double queueDelay() const { return StartTime - ArrivalTime; }
  /// Arrival-to-retirement latency.
  double turnaround() const { return EndTime - ArrivalTime; }
};

/// Completion callbacks receive the retired execution. They run on the
/// pump-driving thread, outside the runtime lock.
using CompletionCallback = std::function<void(const ScheduledExecution &)>;

/// One grant as the scheduler issued it (RecordGrantHistory).
struct GrantRecord {
  uint64_t Id = 0;
  uint64_t WGs = 0;
  bool operator==(const GrantRecord &O) const {
    return Id == O.Id && WGs == O.WGs;
  }
};

/// The client-side handle of one submitted request (Arax-style async
/// API): poll status()/done(), or wait() for the result. Copyable;
/// wait() consumes the result exactly once across all copies.
class RequestHandle {
public:
  RequestHandle() = default;

  uint64_t id() const { return Id; }
  bool valid() const { return RT != nullptr; }

  /// Current lifecycle state (thread-safe).
  RequestStatus status() const;
  /// True once retired (Completed or Failed).
  bool done() const;
  /// Drives the runtime pump until this request retires and returns its
  /// execution record (or the functional-execution error). A second
  /// wait() on the same request fails: the result was consumed.
  Expected<ScheduledExecution> wait();

private:
  friend class Runtime;
  RequestHandle(Runtime *RT, uint64_t Id) : RT(RT), Id(Id) {}

  Runtime *RT = nullptr;
  uint64_t Id = 0;
};

/// Demand/cost terms the runtime derives for one (kernel, range) pair —
/// exposed so differential tests can drive a reference scheduler with
/// exactly the runtime's inputs.
struct KernelCostModel {
  KernelDemand Demand;           ///< Sec. 3 terms (unit weight).
  double WGCost = 0;             ///< Thread-cycles per virtual group.
  uint64_t ComputeInstCount = 0; ///< Transform's compute-path size.
};

/// The accelOS background runtime bound to one accelerator.
class Runtime {
public:
  /// \p Mode selects the naive or optimized scheduling variant
  /// (Sec. 8.5); \p Opts the admission discipline (continuous by
  /// default). Per-application weights default to equal sharing.
  explicit Runtime(ocl::Device &Dev,
                   SchedulingMode Mode = SchedulingMode::Optimized,
                   RuntimeOptions Opts = {})
      : Dev(&Dev), Mode(Mode), Opts(Opts), Memory(Dev),
        Sched(makeAdmissionScheduler(Opts.Mode,
                                     ResourceCaps::fromDevice(Dev.spec()))),
        Session(Dev.spec()) {}

  ocl::Device &device() { return *Dev; }
  MemoryManager &memory() { return Memory; }
  const MonitorStats &stats() const { return Stats; }
  SchedulingMode mode() const { return Mode; }
  const RuntimeOptions &options() const { return Opts; }

  /// FSM path (a): builds \p Source through the accelOS JIT pipeline
  /// (inline, fold, DCE, scheduling transform) and retains ownership of
  /// the program. Not thread-safe (setup path).
  Expected<ocl::Program *> createProgram(int AppId,
                                         const std::string &Source);

  /// \returns transform metadata for kernel \p Name of \p Prog, or null.
  const passes::TransformedKernelInfo *
  kernelInfo(const ocl::Program *Prog, const std::string &Name) const;

  /// FSM path (b): submits a kernel execution request as an arrival
  /// event at the current simulation time. The kernel's user-visible
  /// arguments must already be bound; the runtime fills the appended rt
  /// argument at launch. \p Cb (optional) fires when the request
  /// retires successfully. Thread-safe.
  Expected<RequestHandle> submit(int AppId, ocl::Kernel &K,
                                 const kir::NDRangeCfg &Range,
                                 CompletionCallback Cb = nullptr);

  /// submit() with an explicit arrival time (>= now()) — scripted
  /// arrival traces through the runtime's own admission. Thread-safe.
  Expected<RequestHandle> submitAt(int AppId, ocl::Kernel &K,
                                   const kir::NDRangeCfg &Range, double At,
                                   CompletionCallback Cb = nullptr);

  /// Legacy enqueue: submit() discarding the handle — the request's
  /// result is then reported by the next drain()/flushRound().
  Error enqueueKernel(int AppId, ocl::Kernel &K,
                      const kir::NDRangeCfg &Range);

  /// FSM path (c): any other intercepted request passes through.
  void otherRequest() { ++Stats.Passthrough; }

  /// Sets the sharing weight used for \p AppId's requests (paper
  /// Sec. 2.2: sharing ratios other than equal). Captured at submit
  /// time; continuous requeues of a sliced request re-read it. Not
  /// thread-safe (setup path).
  void setAppWeight(int AppId, double Weight) { Weights[AppId] = Weight; }

  /// Registers a callback fired for every successfully retired request
  /// (in addition to any per-submit callback). Thread-safe.
  void onCompletion(CompletionCallback Cb);

  /// Lifecycle state of request \p Id. Thread-safe.
  RequestStatus status(uint64_t Id) const;
  bool done(uint64_t Id) const {
    RequestStatus S = status(Id);
    return S == RequestStatus::Completed || S == RequestStatus::Failed;
  }

  /// Drives the pump until request \p Id retires; \returns its
  /// execution record, consuming it. Thread-safe; any waiting thread
  /// advances the shared session.
  Expected<ScheduledExecution> wait(uint64_t Id);

  /// Drives the pump until the runtime is idle and \returns every
  /// not-yet-consumed execution in first-grant order. If any request
  /// failed, the first failure's error is returned instead (the
  /// remaining results are dropped, as the legacy flush did).
  /// Thread-safe.
  Expected<std::vector<ScheduledExecution>> drain();

  /// Legacy name for drain(): under RuntimeOptions::Admission::RoundSync
  /// this reproduces the pre-refactor round-by-round flush — same grant
  /// history, same functional execution — with event-time timestamps in
  /// place of the old round indices.
  Expected<std::vector<ScheduledExecution>> flushRound() { return drain(); }

  /// Requests submitted and not yet retired. Thread-safe.
  size_t pendingRequests() const;

  /// Current simulation time of the embedded session. Thread-safe.
  double now() const;

  /// The scheduler's observable behaviour.
  const SchedulerStats &schedulerStats() const { return Sched->stats(); }

  /// Every grant issued, in admission order (RecordGrantHistory only) —
  /// the bit-identity regression hook. Read when quiescent.
  const std::vector<GrantRecord> &grantHistory() const { return GrantLog; }

  /// The demand/cost terms the runtime would derive for (\p K, \p
  /// Range) — reference-scheduler inputs for differential tests.
  Expected<KernelCostModel> costModel(ocl::Kernel &K,
                                      const kir::NDRangeCfg &Range);

private:
  struct JittedProgram {
    std::unique_ptr<ocl::Program> Prog;
    std::map<std::string, passes::TransformedKernelInfo> Info;
    int AppId = 0;
  };

  /// One live request: demand, per-virtual-group timing costs, the
  /// slice cursor, and the execution record under construction. Node
  /// stability of the owning map keeps WGCosts' storage valid for the
  /// session's non-owning cost views.
  struct RequestState {
    int AppId = 0;
    ocl::Kernel *Kernel = nullptr;
    kir::NDRangeCfg Range;
    const passes::TransformedKernelInfo *Info = nullptr;
    KernelDemand Demand;          ///< Full-range terms, captured weight.
    std::vector<double> WGCosts;  ///< Static-prior cost per virtual WG.
    size_t Cursor = 0;            ///< Next unsimulated virtual group.
    uint64_t InstCount = 0;
    bool Started = false;         ///< First grant processed.
    bool StartSeen = false;       ///< First slice completion recorded.
    uint64_t GrantSeq = 0;        ///< Position in first-grant order.
    CompletionCallback Cb;
    ScheduledExecution Exec;
  };

  struct FinishedRecord {
    ScheduledExecution Exec;
    std::string Error; ///< Non-empty: the request failed.
    /// drain()'s report order, matching the legacy flush's round-major
    /// grant order.
    uint64_t GrantSeq = 0;
  };

  /// Result of processing one grant: a timing-slice launch, or nothing
  /// (zero-work retirement / functional failure — Failed tells the
  /// caller whether an in-flight reservation must be released).
  struct GrantOutcome {
    std::optional<sim::KernelLaunchDesc> Launch;
    bool Failed = false;
  };

  Expected<uint64_t> validateLocked(int AppId, ocl::Kernel &K,
                                    const kir::NDRangeCfg &Range, double At,
                                    CompletionCallback Cb);
  /// The demand (unit weight) and timing cost of \p K, compiled as \p
  /// Info, over \p Range: what both submit and costModel derive.
  KernelCostModel costModelLocked(const passes::TransformedKernelInfo &Info,
                                  ocl::Kernel &K,
                                  const kir::NDRangeCfg &Range);
  double perItemCyclesLocked(const passes::TransformedKernelInfo *Info,
                             kir::Function *Comp);

  /// One pump step; \returns false when the runtime is idle.
  bool stepLocked();
  bool admissionPassLocked(double T);
  void resubmitLocked(uint64_t Id);

  /// Processes one grant: on the first grant runs the kernel
  /// functionally through the Virtual NDRange machinery, then builds
  /// the quantum-bounded timing slice.
  GrantOutcome buildGrantLocked(uint64_t Id, uint64_t WGs, double T);
  Error runFunctionalLocked(RequestState &R, uint64_t GrantWGs);

  /// Advances the session to the earlier of its next event and the next
  /// scripted arrival; \returns false when neither exists. Completions
  /// land in CompletionBuf.
  bool advanceLocked();
  /// Records one slice completion's event times; \returns true when
  /// the request still has unsimulated work (the caller requeues it).
  bool recordCompletionLocked(const sim::KernelExecResult &K);

  void finalizeLocked(uint64_t Id);
  void failLocked(uint64_t Id, std::string Msg);

  ocl::Device *Dev;
  SchedulingMode Mode;
  RuntimeOptions Opts;
  MemoryManager Memory;
  MonitorStats Stats;
  std::vector<JittedProgram> Programs;
  std::map<int, double> Weights;
  std::map<const passes::TransformedKernelInfo *, double> PerItemOf;

  mutable std::mutex Mu;
  std::unique_ptr<AdmissionScheduler> Sched;
  sim::EngineSession Session;

  std::map<uint64_t, RequestState> Requests; ///< Live, by request id.
  /// Retired, not yet consumed by wait() or drain().
  std::map<uint64_t, FinishedRecord> Finished;
  std::vector<uint8_t> StatusOf; ///< RequestStatus by request id.
  /// Scripted arrivals not yet fed to the scheduler: (time, id)
  /// min-heap, id-ordered within one instant.
  std::priority_queue<std::pair<double, uint64_t>,
                      std::vector<std::pair<double, uint64_t>>,
                      std::greater<std::pair<double, uint64_t>>>
      Arrivals;
  uint64_t NextRequestId = 0;
  uint64_t NextGrantSeq = 0;
  bool NeedAdmit = false;
  std::vector<sim::KernelLaunchDesc> LaunchBuf;   ///< Reused per pass.
  std::vector<sim::KernelExecResult> CompletionBuf;
  std::vector<GrantRecord> GrantLog;
  std::vector<CompletionCallback> GlobalCbs;
  /// Callbacks queued by the pump, fired by the driving thread after it
  /// releases the lock.
  std::vector<std::function<void()>> PendingCallbacks;
};

} // namespace accelos
} // namespace accel

#endif // ACCEL_ACCELOS_RUNTIME_H
