//===- sim/Engine.cpp - Discrete-event accelerator simulation ---------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "sim/Engine.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <tuple>

using namespace accel;
using namespace accel::sim;

double KernelLaunchDesc::totalWork() const {
  double Sum = 0;
  if (Mode == ModeKind::Static) {
    for (double C : StaticCosts)
      Sum += C;
  } else {
    for (uint64_t I = 0, N = numVirtualGroups(); I != N; ++I)
      Sum += virtualCost(I);
  }
  return Sum;
}

namespace {

constexpr double Eps = 1e-7;
constexpr double Inf = std::numeric_limits<double>::infinity();

} // namespace

namespace accel {
namespace sim {
namespace detail {

/// The persistent simulation state behind EngineSession and
/// Engine::run. Launches are admitted incrementally; advanceTo
/// processes arrival and completion events up to a time bound, so the
/// caller can interleave scheduling decisions with device progress.
///
/// Launch ids are slots in States. A session recycles a launch's slot
/// once the done prefix passes it; \p KeepRecords (Engine::run) keeps
/// every slot instead, for records() and for merge groups, which
/// resolve over the whole batch.
class SessionState {
public:
  explicit SessionState(const DeviceSpec &Spec, bool KeepRecords = false)
      : Spec(Spec), KeepRecords(KeepRecords), CUs(Spec.NumCUs),
        LegEnds(Spec.NumCUs) {}

  void admit(std::vector<KernelLaunchDesc> &Launches);
  double now() const { return Now; }
  double nextEventTime() const;
  std::vector<KernelExecResult> advanceTo(double T);
  void advanceTo(double T, std::vector<KernelExecResult> &Out);
  void advanceUntil(double T, double StopAt,
                    std::vector<KernelExecResult> &Out);
  /// Processes the events at times <= \p T in (time, CU index) order.
  /// \p Until (advanceUntil) also ends the run after the first instant
  /// that leaves a completion to return or lies at or after \p StopAt.
  template <bool Until> void advanceCore(double T, double StopAt = Inf);
  std::vector<KernelExecResult> drain();
  std::vector<KernelLaunchDesc> cancelAll();
  size_t inFlight() const { return InFlight; }
  /// Every launch's result in admission order (KeepRecords only).
  std::vector<KernelExecResult> records() const;

private:
  /// One work group resident on a compute unit.
  struct ResidentWG {
    size_t Launch = 0;
    double Remaining = 0; ///< Thread-cycles left in the current leg.
    double Weight = 0;    ///< Threads x issue efficiency: share weight.
  };

  /// A compute unit under processor sharing.
  struct CUState {
    double LastUpdate = 0;
    std::vector<ResidentWG> Residents;
    uint64_t UsedThreads = 0;
    uint64_t UsedLocal = 0;
    uint64_t UsedRegs = 0;
    double SumWeights = 0;
    bool Listed = false; ///< In Dirty: flushDirty recomputes its leg end.

    double rateScale(unsigned Lanes) const {
      if (SumWeights <= Lanes)
        return 1.0;
      return static_cast<double>(Lanes) / SumWeights;
    }

    /// Advances every resident's progress to time \p T.
    void advanceTo(double T, unsigned Lanes) {
      double Dt = T - LastUpdate;
      if (Dt > 0 && !Residents.empty()) {
        double Scale = rateScale(Lanes);
        for (ResidentWG &R : Residents)
          R.Remaining -= R.Weight * Scale * Dt;
      }
      LastUpdate = T;
    }

    /// \returns the absolute time of the next leg completion, or +inf
    /// when idle.
    double nextCompletion(unsigned Lanes) const {
      double Scale = rateScale(Lanes);
      double MinDt = Inf;
      for (const ResidentWG &R : Residents)
        MinDt = std::min(MinDt,
                         std::max(0.0, R.Remaining) / (R.Weight * Scale));
      return LastUpdate + MinDt;
    }
  };

  /// Every CU's next leg end, one leaf per CU (+inf when idle), in a
  /// winner tree: each internal node holds the smaller of its children
  /// by (time, CU index), so the root is the session's next leg end and
  /// equal-time leg ends are taken in CU index order. Ties go to the
  /// left child, which holds the lower indices. Allocated once; set()
  /// walks one leaf-to-root path.
  class LegEndTree {
  public:
    explicit LegEndTree(size_t NumCUs)
        : Width(std::bit_ceil(std::max<size_t>(NumCUs, 1))),
          Nodes(2 * Width) {
      reset();
    }

    /// Makes every CU idle.
    void reset() {
      for (size_t I = 0; I != Width; ++I)
        Nodes[Width + I] = {Inf, I};
      for (size_t N = Width - 1; N != 0; --N)
        Nodes[N] = Nodes[2 * N];
    }

    void set(size_t CU, double T) {
      size_t N = Width + CU;
      Nodes[N].Time = T;
      for (N >>= 1; N != 0; N >>= 1) {
        const Node &L = Nodes[2 * N], &R = Nodes[2 * N + 1];
        Nodes[N] = R.Time < L.Time ? R : L;
      }
    }

    double time() const { return Nodes[1].Time; }
    size_t cu() const { return Nodes[1].CU; }
    double at(size_t CU) const { return Nodes[Width + CU].Time; }

  private:
    struct Node {
      double Time;
      size_t CU;
    };
    size_t Width; ///< Leaves: a power of two, the padding ones idle.
    std::vector<Node> Nodes; ///< Root at 1, CU c's leaf at Width + c.
  };

  /// Book-keeping for one launch. The session owns the descriptor so
  /// callers need not keep their vectors alive between admits.
  struct LaunchState {
    KernelLaunchDesc Desc;
    uint64_t Seq = 0; ///< Admission order: breaks arrival-time ties.
    uint64_t NextWG = 0;
    uint64_t DoneWGs = 0;
    uint64_t LiveWGs = 0;
    uint64_t QueueCursor = 0;
    uint64_t Dequeues = 0;
    bool Started = false;
    bool Finished = false;
    double Start = 0;
    double End = 0;

    bool dispatchDone() const { return NextWG >= Desc.numPhysicalWGs(); }
  };

  KernelExecResult resultFor(const LaunchState &L) const {
    KernelExecResult R;
    R.AppId = L.Desc.AppId;
    R.ArrivalTime = L.Desc.ArrivalTime;
    R.StartTime = L.Start;
    R.EndTime = L.End;
    R.DispatchedWGs = L.NextWG;
    R.DequeueOps = L.Dequeues;
    return R;
  }

  /// Earlier/later relations below are in *queue positions*: indices
  /// into QueueOrder, i.e. arrival order. Only the arrived prefix
  /// [0, ArrivedCount) is visible to admission and dispatch — a launch
  /// that has not arrived yet neither blocks nor is blocked.
  /// [0, DonePrefix) is entirely finished and can be skipped, which
  /// keeps a long-lived session's per-event work proportional to the
  /// *active* launches, not everything ever admitted. A session has
  /// recycled the slots there, so only heldBegin() onwards may be read.
  size_t heldBegin() const { return KeepRecords ? 0 : DonePrefix; }

  bool sharesMergeGroupWithEarlier(size_t Pos) const {
    const LaunchState &L = States[QueueOrder[Pos]];
    if (L.Desc.MergeGroup < 0)
      return false;
    for (size_t P = heldBegin(); P != Pos; ++P)
      if (States[QueueOrder[P]].Desc.MergeGroup == L.Desc.MergeGroup)
        return true;
    return false;
  }

  /// Device-wide free capacity.
  void freeCapacity(uint64_t &Threads, uint64_t &Local, uint64_t &Regs,
                    uint64_t &Slots) const {
    Threads = Spec.totalThreads();
    Local = Spec.totalLocalMem();
    Regs = Spec.totalRegs();
    Slots = Spec.totalWGSlots();
    for (const CUState &CU : CUs) {
      Threads -= CU.UsedThreads;
      Local -= CU.UsedLocal;
      Regs -= CU.UsedRegs;
      Slots -= CU.Residents.size();
    }
  }

  /// May the launch at queue position \p Pos begin dispatching under
  /// the device's admission policy? dispatchAll only asks once every
  /// earlier launch is past dispatch (WG-granular FIFO), and carries
  /// \p EarlierFinished — is every earlier launch finished — along its
  /// scan.
  bool canStart(size_t Pos, bool EarlierFinished) const {
    if (EarlierFinished)
      return true;
    if (sharesMergeGroupWithEarlier(Pos))
      return true;
    if (Spec.Admission == KernelAdmissionKind::GreedyTail)
      return true;
    // ExclusiveUnlessFits: the whole remaining footprint must fit in
    // the currently free space.
    const KernelLaunchDesc &D = States[QueueOrder[Pos]].Desc;
    uint64_t FreeThreads, FreeLocal, FreeRegs, FreeSlots;
    freeCapacity(FreeThreads, FreeLocal, FreeRegs, FreeSlots);
    uint64_t WGs = D.numPhysicalWGs();
    return WGs * D.WGThreads <= FreeThreads &&
           WGs * D.LocalMemPerWG <= FreeLocal &&
           WGs * D.WGThreads * D.RegsPerThread <= FreeRegs &&
           WGs <= FreeSlots;
  }

  /// \returns a CU index that can host one WG of \p D, or -1.
  int findCU(const KernelLaunchDesc &D) {
    uint64_t Regs = D.WGThreads * D.RegsPerThread;
    for (unsigned Probe = 0; Probe != Spec.NumCUs; ++Probe) {
      unsigned Idx = (RoundRobin + Probe) % Spec.NumCUs;
      const CUState &CU = CUs[Idx];
      if (CU.UsedThreads + D.WGThreads <= Spec.MaxThreadsPerCU &&
          CU.UsedLocal + D.LocalMemPerWG <= Spec.LocalMemPerCU &&
          CU.UsedRegs + Regs <= Spec.RegsPerCU &&
          CU.Residents.size() < Spec.MaxWGsPerCU) {
        RoundRobin = (Idx + 1) % Spec.NumCUs;
        return static_cast<int>(Idx);
      }
    }
    return -1;
  }

  /// Builds the first (or next) leg of work for a WorkQueue WG.
  /// \returns the leg cost in thread-cycles, or a bare dequeue cost when
  /// the queue is empty (termination discovery).
  double takeBatch(LaunchState &L) {
    const KernelLaunchDesc &D = L.Desc;
    double Cost = Spec.DequeueCycles * static_cast<double>(D.WGThreads);
    ++L.Dequeues;
    uint64_t N = std::min<uint64_t>(
        D.Batch, D.numVirtualGroups() - L.QueueCursor);
    for (uint64_t I = 0; I != N; ++I)
      Cost += D.virtualCost(L.QueueCursor + I);
    L.QueueCursor += N;
    return Cost;
  }

  /// Places the next WG of launch \p Li. \returns false when no CU fits.
  bool placeWG(size_t Li, double Now) {
    LaunchState &L = States[Li];
    const KernelLaunchDesc &D = L.Desc;
    int CUIdx = findCU(D);
    if (CUIdx < 0)
      return false;
    CUState &CU = CUs[static_cast<size_t>(CUIdx)];
    CU.advanceTo(Now, Spec.LanesPerCU);

    ResidentWG R;
    R.Launch = Li;
    R.Weight = static_cast<double>(D.WGThreads) * D.IssueEfficiency;
    double Dispatch =
        Spec.WGDispatchCycles * static_cast<double>(D.WGThreads);
    if (D.Mode == KernelLaunchDesc::ModeKind::Static)
      R.Remaining = Dispatch + D.StaticCosts[L.NextWG];
    else
      R.Remaining = Dispatch + takeBatch(L);

    CU.Residents.push_back(R);
    CU.UsedThreads += D.WGThreads;
    CU.UsedLocal += D.LocalMemPerWG;
    CU.UsedRegs += D.WGThreads * D.RegsPerThread;
    CU.SumWeights += R.Weight;
    markDirty(static_cast<size_t>(CUIdx));

    if (!L.Started) {
      L.Started = true;
      L.Start = Now;
    }
    ++L.NextWG;
    ++L.LiveWGs;
    return true;
  }

  /// Dispatches one merged batch round-robin across its members (the
  /// Elastic Kernels co-dispatch), starting from a rotating cursor so
  /// no member monopolises freed slots.
  void dispatchMergeGroup(int Group, double Now) {
    std::vector<size_t> Members;
    for (size_t P = heldBegin(); P != ArrivedCount; ++P)
      if (States[QueueOrder[P]].Desc.MergeGroup == Group)
        Members.push_back(QueueOrder[P]);
    size_t &Cursor = GroupCursor[Group];
    for (bool Progress = true; Progress;) {
      Progress = false;
      for (size_t I = 0; I != Members.size(); ++I) {
        size_t Li = Members[(Cursor + I) % Members.size()];
        if (States[Li].dispatchDone())
          continue;
        if (placeWG(Li, Now)) {
          Progress = true;
          Cursor = (Cursor + I + 1) % Members.size();
          break;
        }
      }
    }
  }

  /// Moves the done prefix past finished launches. Their completions
  /// are already in Completed and no resident refers to them, so a
  /// session recycles their slots, and drops the prefix from QueueOrder
  /// once it is half the vector (amortized O(1) per launch). Leaves
  /// DonePrefix <= DispatchFrom <= ArrivedCount.
  void passFinished() {
    while (DonePrefix != ArrivedCount &&
           States[QueueOrder[DonePrefix]].Finished) {
      if (!KeepRecords)
        FreeSlots.push_back(QueueOrder[DonePrefix]);
      ++DonePrefix;
    }
    DispatchFrom = std::max(DispatchFrom, DonePrefix);
    if (KeepRecords || 2 * DonePrefix < QueueOrder.size())
      return;
    QueueOrder.erase(QueueOrder.begin(),
                     QueueOrder.begin() + static_cast<ptrdiff_t>(DonePrefix));
    ArrivedCount -= DonePrefix;
    DispatchFrom -= DonePrefix;
    DonePrefix = 0;
  }

  /// \returns the slot for a new launch, recycled when one is free.
  size_t takeSlot() {
    if (FreeSlots.empty()) {
      States.emplace_back();
      return States.size() - 1;
    }
    size_t Li = FreeSlots.back();
    FreeSlots.pop_back();
    States[Li] = LaunchState();
    return Li;
  }

  /// Dispatches as much pending work as policies and space allow,
  /// considering only launches that have arrived. The scan stops at the
  /// first launch that cannot dispatch all its work groups, so every
  /// launch before that point is past dispatch for good (NextWG only
  /// grows); the next scan resumes there, at DispatchFrom.
  void dispatchAll(double Now) {
    passFinished();
#ifndef NDEBUG
    for (size_t Pos = DonePrefix; Pos != DispatchFrom; ++Pos)
      assert(States[QueueOrder[Pos]].dispatchDone() &&
             "dispatch cursor skipped a launch with pending work groups");
#endif
    std::set<int> GroupsDone;
    // Is every launch before Pos finished? passFinished stopped at an
    // unfinished launch, so the skipped prefix is all finished exactly
    // when it is empty.
    bool EarlierFinished = DispatchFrom == DonePrefix;
    size_t Pos = DispatchFrom;
    for (; Pos != ArrivedCount; ++Pos) {
      size_t Li = QueueOrder[Pos];
      LaunchState &L = States[Li];
      if (L.dispatchDone()) {
        EarlierFinished &= L.Finished;
        continue;
      }
      // Admission check applies to merged batches through their first
      // pending member: later batches queue behind earlier ones.
      if (!L.Started && !canStart(Pos, EarlierFinished))
        break;
      if (L.Desc.MergeGroup >= 0) {
        if (GroupsDone.insert(L.Desc.MergeGroup).second)
          dispatchMergeGroup(L.Desc.MergeGroup, Now);
        if (!L.dispatchDone())
          break; // Batch still has pending work; later batches wait.
        EarlierFinished &= L.Finished;
        continue;
      }
      while (!L.dispatchDone())
        if (!placeWG(Li, Now))
          break;
      if (!L.dispatchDone())
        break; // This launch's head WG is stuck; strict FIFO behind it.
      EarlierFinished &= L.Finished;
    }
    DispatchFrom = Pos;
  }

  /// Releases resident \p R's share of \p CU; the caller drops it from
  /// CU.Residents.
  void retireWG(CUState &CU, const ResidentWG &R, double Now) {
    LaunchState &L = States[R.Launch];
    const KernelLaunchDesc &D = L.Desc;
    CU.UsedThreads -= D.WGThreads;
    CU.UsedLocal -= D.LocalMemPerWG;
    CU.UsedRegs -= D.WGThreads * D.RegsPerThread;
    CU.SumWeights -= R.Weight;
    --L.LiveWGs;
    ++L.DoneWGs;
    if (L.DoneWGs == D.numPhysicalWGs()) {
      L.Finished = true;
      L.End = Now;
      --InFlight;
      Completed.push_back(resultFor(L));
      // The record outlives the launch until the done prefix recycles
      // it (for good under Engine::run); the drained virtual queue is
      // the one part nothing reads again, and per-group cost vectors
      // dominate a large batch's footprint. (StaticCosts must stay:
      // numPhysicalWGs() is its size.)
      L.Desc.VirtualCosts.clear();
      L.Desc.VirtualCosts.shrink_to_fit();
      // View-mode launches drop their borrowed window too, so a
      // finished record never holds a pointer into caller memory.
      L.Desc.ViewCosts = nullptr;
      L.Desc.ViewBegin = L.Desc.ViewEnd = 0;
    }
  }

  /// Admits every launch whose arrival time has passed. QueueOrder is
  /// sorted by arrival, so the arrived set is always a prefix. A launch
  /// that is already Finished when it arrives is a zero-work launch:
  /// its completion is reported the moment the session crosses its
  /// arrival time.
  void admitArrivals(double Now) {
    while (ArrivedCount != QueueOrder.size() &&
           States[QueueOrder[ArrivedCount]].Desc.ArrivalTime <= Now) {
      const LaunchState &L = States[QueueOrder[ArrivedCount]];
      if (L.Finished) {
        --InFlight;
        Completed.push_back(resultFor(L));
      }
      ++ArrivedCount;
    }
  }

  /// Lists \p CUIdx in Dirty, once: its residency changed.
  void markDirty(size_t CUIdx) {
    if (!CUs[CUIdx].Listed) {
      CUs[CUIdx].Listed = true;
      Dirty.push_back(CUIdx);
    }
  }

  /// Recomputes the leg end of every listed CU, once each.
  void flushDirty() {
    for (size_t CUIdx : Dirty) {
      CUs[CUIdx].Listed = false;
      LegEnds.set(CUIdx, CUs[CUIdx].nextCompletion(Spec.LanesPerCU));
    }
    Dirty.clear();
  }

  /// Replaces \p Out with the completions recorded since the last
  /// hand-back (capacity of both buffers retained).
  void takeCompleted(std::vector<KernelExecResult> &Out) {
    Out.clear();
    for (KernelExecResult &K : Completed)
      Out.push_back(std::move(K));
    Completed.clear();
  }

  /// Debug builds, at every event: each leaf is its CU's next leg end,
  /// and the root is the (time, index) minimum over the leaves.
  void checkLegEnds() const {
#ifndef NDEBUG
    size_t Min = 0;
    for (size_t C = 0; C != CUs.size(); ++C) {
      assert(LegEnds.at(C) == CUs[C].nextCompletion(Spec.LanesPerCU) &&
             "a CU's leg-end leaf is out of date");
      if (LegEnds.at(C) < LegEnds.at(Min))
        Min = C;
    }
    assert(LegEnds.cu() == Min && LegEnds.time() == LegEnds.at(Min) &&
           "the leg-end tree's root is not the earliest leaf");
#endif
  }

  DeviceSpec Spec;
  bool KeepRecords;
  std::vector<CUState> CUs;
  std::vector<LaunchState> States; ///< Launch slots.
  std::vector<size_t> FreeSlots;   ///< Recycled slots of States.
  std::vector<size_t> QueueOrder;  ///< Launch slots in arrival order.
  size_t ArrivedCount = 0;         ///< Arrived prefix of QueueOrder.
  size_t DonePrefix = 0;           ///< Finished prefix of QueueOrder.
  /// Where dispatchAll's next scan starts: every arrived launch before
  /// it is past dispatch.
  size_t DispatchFrom = 0;
  size_t InFlight = 0;
  uint64_t NextSeq = 0;
  std::vector<size_t> Dirty; ///< CUs whose leg end needs recomputing.
  std::map<int, size_t> GroupCursor;
  unsigned RoundRobin = 0;
  LegEndTree LegEnds;
  double Now = 0;
  /// Livelock guard: a legitimate simulation performs a bounded amount
  /// of work per *instant*, so only events that fail to advance the
  /// clock by a resolvable step (the same Eps*(1+Now) threshold the
  /// retire logic uses) count toward the budget. A persistent session
  /// legitimately accumulates unbounded events over its lifetime and
  /// must not trip it; a runaway whose clock creeps by ULP-sized
  /// sub-threshold steps still does.
  double LastEventTime = -1.0;
  uint64_t SameTimeEvents = 0;
  /// Completion records since the last advanceTo/drain handed results
  /// back to the caller.
  std::vector<KernelExecResult> Completed;
};

// Moves the launches out of \p Launches and clears it, so both public
// admit flavours (by-value and buffer-reusing) share one body.
void SessionState::admit(std::vector<KernelLaunchDesc> &Launches) {
  if (Launches.empty())
    return;
  bool AnyDue = false;
  const size_t First = QueueOrder.size();
  for (KernelLaunchDesc &D : Launches) {
    assert(D.WGThreads <= Spec.MaxThreadsPerCU &&
           D.LocalMemPerWG <= Spec.LocalMemPerCU &&
           D.WGThreads * D.RegsPerThread <= Spec.RegsPerCU &&
           "work group can never fit a compute unit");
    size_t Li = takeSlot();
    LaunchState &S = States[Li];
    S.Desc = std::move(D);
    S.Seq = NextSeq++;
    // A launch admitted after its nominal arrival reached the device
    // late: it becomes visible now.
    if (S.Desc.ArrivalTime < Now)
      S.Desc.ArrivalTime = Now;
    // Degenerate launches complete immediately upon arrival. They stay
    // "in flight" until the session crosses their arrival time and
    // delivers the completion record (admitArrivals).
    if (S.Desc.numPhysicalWGs() == 0) {
      S.Finished = true;
      S.Start = S.End = S.Desc.ArrivalTime;
    }
    AnyDue |= S.Desc.ArrivalTime <= Now;
    ++InFlight;
    QueueOrder.push_back(Li);
  }
  // Merge into the un-arrived suffix, which stays ordered by (arrival,
  // admission). Launches admitted in arrival order, as serving loops
  // admit them, cost one comparison each; an unsorted batch is sorted
  // in place, without a buffer.
  auto Before = [&](size_t A, size_t B) {
    const LaunchState &X = States[A], &Y = States[B];
    return std::tie(X.Desc.ArrivalTime, X.Seq) <
           std::tie(Y.Desc.ArrivalTime, Y.Seq);
  };
  // The suffix before First was ordered already: check from the seam.
  size_t From = First == ArrivedCount ? First : First - 1;
  if (!std::is_sorted(QueueOrder.begin() + static_cast<ptrdiff_t>(From),
                      QueueOrder.end(), Before))
    std::sort(QueueOrder.begin() + static_cast<ptrdiff_t>(ArrivedCount),
              QueueOrder.end(), Before);
  Launches.clear();
  if (AnyDue) {
    admitArrivals(Now);
    dispatchAll(Now);
    flushDirty();
  }
}

double SessionState::nextEventTime() const {
  double T = -1.0;
  if (ArrivedCount != QueueOrder.size())
    T = States[QueueOrder[ArrivedCount]].Desc.ArrivalTime;
  double LegEnd = LegEnds.time();
  if (LegEnd != Inf && (T < 0 || LegEnd < T))
    T = LegEnd;
  return T;
}

template <bool Until>
void SessionState::advanceCore(double T, double StopAt) {
  for (bool Began = false;; Began = true) {
    // Once an instant that ends an advanceUntil run has begun, the bound
    // drops to it, so only the rest of its events are processed.
    if (Until && Began && (Now >= StopAt || !Completed.empty()))
      T = Now;
    checkLegEnds();
    bool HaveArrival = ArrivedCount != QueueOrder.size();
    double NextArrival =
        HaveArrival ? States[QueueOrder[ArrivedCount]].Desc.ArrivalTime
                    : 0;
    bool ArrivalDue = HaveArrival && NextArrival <= T;
    const double LegEnd = LegEnds.time();
    bool CompletionDue = LegEnd <= T && LegEnd != Inf;
    // Arrival events interleave with work-group completions; ties go to
    // the arrival so newly submitted work can co-dispatch into the
    // space freed at the same instant.
    if (ArrivalDue && (!CompletionDue || NextArrival <= LegEnd)) {
      Now = std::max(Now, NextArrival);
      admitArrivals(Now);
      dispatchAll(Now);
      flushDirty();
      continue;
    }
    if (!CompletionDue)
      break;
    const size_t CUIdx = LegEnds.cu();
    CUState &CU = CUs[CUIdx];
    if (LegEnd >
        LastEventTime + Eps * (1.0 + std::max(LastEventTime, 0.0))) {
      LastEventTime = LegEnd;
      SameTimeEvents = 0;
    }
    if (++SameTimeEvents > 200'000'000) {
      std::fprintf(stderr,
                   "engine livelock? now=%g cu=%zu residents=%zu\n",
                   LegEnd, CUIdx, CU.Residents.size());
      for (size_t Pos = DonePrefix; Pos != QueueOrder.size(); ++Pos) {
        const LaunchState &L = States[QueueOrder[Pos]];
        std::fprintf(stderr,
                     "  launch app=%d next=%llu done=%llu live=%llu "
                     "cursor=%llu fin=%d\n",
                     L.Desc.AppId, (unsigned long long)L.NextWG,
                     (unsigned long long)L.DoneWGs,
                     (unsigned long long)L.LiveWGs,
                     (unsigned long long)L.QueueCursor, L.Finished);
      }
      reportFatalError("simulation exceeded event budget");
    }
    Now = LegEnd;

    // One pass over the residents, in order: advance each to Now at
    // the rate the CU's pre-event share gives it, then re-arm or retire
    // it if it reached its leg end, and compact the survivors. The
    // threshold is in the *time* domain: once the remaining time is
    // below the representable resolution at the current simulation
    // time, the leg is done (a work-domain epsilon can livelock when
    // Now is large and the residual work converts to a time step
    // smaller than one ULP of Now).
    const double Dt = Now - CU.LastUpdate;
    const double Scale = CU.rateScale(Spec.LanesPerCU);
    CU.LastUpdate = Now;
    double MinDt = Inf; // Earliest survivor leg end, after Now.
    size_t Kept = 0;
    for (size_t RI = 0, N = CU.Residents.size(); RI != N; ++RI) {
      ResidentWG &R = CU.Residents[RI];
      const double Rate = R.Weight * Scale;
      if (Dt > 0)
        R.Remaining -= Rate * Dt;
      double TimeLeft = std::max(0.0, R.Remaining) / Rate;
      if (TimeLeft <= Eps * (1.0 + Now)) {
        LaunchState &L = States[R.Launch];
        if (L.Desc.Mode != KernelLaunchDesc::ModeKind::WorkQueue ||
            L.QueueCursor >= L.Desc.numVirtualGroups()) {
          retireWG(CU, R, Now);
          continue;
        }
        // Dequeue the next batch and keep running.
        R.Remaining = takeBatch(L);
        TimeLeft = std::max(0.0, R.Remaining) / Rate;
      }
      MinDt = std::min(MinDt, TimeLeft);
      if (Kept != RI)
        CU.Residents[Kept] = R;
      ++Kept;
    }
    if (Kept == CU.Residents.size()) {
      // Nothing retired, so the shares did not change: the pass's
      // minimum is what nextCompletion would compute. A re-arm frees
      // no capacity, so a dispatch would place nothing.
      assert(Kept > 0 && "a finite leg end names an empty CU");
      LegEnds.set(CUIdx, Now + MinDt);
      continue;
    }
    CU.Residents.resize(Kept);
    markDirty(CUIdx);
    dispatchAll(Now);
    flushDirty();
  }
  Now = std::max(Now, T);
}

std::vector<KernelExecResult> SessionState::advanceTo(double T) {
  advanceCore<false>(T);
  std::vector<KernelExecResult> Out;
  Out.swap(Completed);
  return Out;
}

void SessionState::advanceTo(double T, std::vector<KernelExecResult> &Out) {
  advanceCore<false>(T);
  takeCompleted(Out);
}

void SessionState::advanceUntil(double T, double StopAt,
                                std::vector<KernelExecResult> &Out) {
  advanceCore<true>(T, StopAt);
  takeCompleted(Out);
}

std::vector<KernelExecResult> SessionState::drain() {
  std::vector<KernelExecResult> Out;
  for (;;) {
    double T = nextEventTime();
    if (T < 0)
      break;
    std::vector<KernelExecResult> Batch = advanceTo(T);
    Out.insert(Out.end(), Batch.begin(), Batch.end());
  }
  // Completions recorded since the last advance (zero-work launches
  // admitted at the current time when nothing else is pending).
  Out.insert(Out.end(), Completed.begin(), Completed.end());
  Completed.clear();
  assert(InFlight == 0 && "session drained with unfinished launches");
  return Out;
}

// Fail-stop device loss: every launch that has not yet delivered its
// completion is torn out of the machine — resident work groups are
// evicted mid-leg (their partial progress is discarded with them),
// queued and not-yet-arrived launches are dropped — and the cancelled
// descriptors come back in queue order so the caller can rebuild the
// work elsewhere. Already-delivered completions, the pending Completed
// buffer and the clock are untouched, so the session stays usable if
// the device later rejoins the fleet.
std::vector<KernelLaunchDesc> SessionState::cancelAll() {
  std::vector<KernelLaunchDesc> Out;
  for (size_t Pos = DonePrefix; Pos != QueueOrder.size(); ++Pos) {
    LaunchState &L = States[QueueOrder[Pos]];
    // Finished launches in the arrived prefix have already pushed their
    // completion record. A Finished launch *past* the prefix is a
    // zero-work launch whose completion was never delivered: it is
    // cancelled like any pending launch.
    bool Delivered = L.Finished && Pos < ArrivedCount;
    if (Delivered)
      continue;
    Out.push_back(std::move(L.Desc));
    L.Finished = true; // Lets the done prefix pass (and recycle) it.
    --InFlight;
  }
  for (CUState &CU : CUs) {
    CU.Residents.clear();
    CU.UsedThreads = CU.UsedLocal = CU.UsedRegs = 0;
    CU.SumWeights = 0;
    CU.LastUpdate = Now;
  }
  ArrivedCount = QueueOrder.size();
  passFinished();
  LegEnds.reset();
  assert(inFlight() == 0 && "cancelAll left launches in flight");
  return Out;
}

std::vector<KernelExecResult> SessionState::records() const {
  assert(KeepRecords && "a session recycles finished launches' records");
  std::vector<KernelExecResult> Out;
  Out.reserve(States.size());
  for (const LaunchState &L : States)
    Out.push_back(resultFor(L));
  return Out;
}

} // namespace detail
} // namespace sim
} // namespace accel

EngineSession::EngineSession(const DeviceSpec &Spec)
    : State(std::make_unique<detail::SessionState>(Spec)) {}
EngineSession::~EngineSession() = default;
EngineSession::EngineSession(EngineSession &&) noexcept = default;
EngineSession &EngineSession::operator=(EngineSession &&) noexcept = default;

void EngineSession::admit(std::vector<KernelLaunchDesc> Launches) {
  State->admit(Launches);
}

void EngineSession::admitFrom(std::vector<KernelLaunchDesc> &Launches) {
  State->admit(Launches);
}

double EngineSession::now() const { return State->now(); }

double EngineSession::nextEventTime() const {
  return State->nextEventTime();
}

std::vector<KernelExecResult> EngineSession::advanceTo(double T) {
  return State->advanceTo(T);
}

void EngineSession::advanceTo(double T,
                              std::vector<KernelExecResult> &Out) {
  State->advanceTo(T, Out);
}

void EngineSession::advanceUntil(double T, double StopAt,
                                 std::vector<KernelExecResult> &Out) {
  State->advanceUntil(T, StopAt, Out);
}

bool EngineSession::advanceNextEvent(std::vector<KernelExecResult> &Out) {
  double T = State->nextEventTime();
  if (T < 0) {
    Out.clear();
    return false;
  }
  State->advanceTo(T, Out);
  return true;
}

std::vector<KernelExecResult> EngineSession::drain() {
  return State->drain();
}

std::vector<KernelLaunchDesc> EngineSession::cancelAll() {
  return State->cancelAll();
}

size_t EngineSession::inFlight() const { return State->inFlight(); }

SimResult Engine::run(std::vector<KernelLaunchDesc> Launches) {
  detail::SessionState S(Spec, /*KeepRecords=*/true);
  S.admit(Launches);
  S.drain();
  SimResult Result;
  Result.Kernels = S.records();
  for (const KernelExecResult &K : Result.Kernels)
    Result.Makespan = std::max(Result.Makespan, K.EndTime);
  return Result;
}
