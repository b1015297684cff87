//===- accelos/Runtime.cpp - The accelOS host runtime ------------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "accelos/Runtime.h"

#include "accelos/AdmissionLoop.h"
#include "accelos/VirtualNDRange.h"
#include "kir/Module.h"
#include "kir/RtLayout.h"
#include "kir/analysis/Cfg.h"
#include "kir/analysis/CostPrior.h"
#include "kir/analysis/Intervals.h"
#include "kir/analysis/Uniformity.h"
#include "passes/ConstantFold.h"
#include "passes/DCE.h"
#include "passes/Inliner.h"
#include "passes/Pass.h"
#include "passes/RegisterEstimator.h"

#include <algorithm>

using namespace accel;
using namespace accel::accelos;

//===----------------------------------------------------------------------===//
// MemoryManager
//===----------------------------------------------------------------------===//

Expected<ocl::Buffer> MemoryManager::allocate(int AppId, uint64_t Size) {
  Expected<ocl::Buffer> Buf = ocl::Buffer::create(*Dev, Size);
  if (!Buf) {
    // Paper Sec. 5: when accelerator memory cannot serve every
    // application, some are paused until space frees up.
    Paused.insert(AppId);
    return makeError("application " + std::to_string(AppId) +
                     " paused: " + Buf.message());
  }
  return Buf;
}

//===----------------------------------------------------------------------===//
// RequestHandle
//===----------------------------------------------------------------------===//

RequestStatus RequestHandle::status() const { return RT->status(Id); }
bool RequestHandle::done() const { return RT->done(Id); }
Expected<ScheduledExecution> RequestHandle::wait() { return RT->wait(Id); }

//===----------------------------------------------------------------------===//
// Runtime: JIT path (FSM (a))
//===----------------------------------------------------------------------===//

Expected<ocl::Program *> Runtime::createProgram(int AppId,
                                                const std::string &Source) {
  ++Stats.ProgramsJitted;
  auto Prog = std::make_unique<ocl::Program>(*Dev, Source);
  // Front end ("OpenCL C -> IR", Fig. 7b).
  if (Error E = Prog->build())
    return Expected<ocl::Program *>(std::move(E));

  // accelOS JIT pipeline: GPU-compiler-style cleanups, then the
  // scheduling transformation, linked against the runtime built-ins.
  passes::PassManager PM;
  PM.addPass(std::make_unique<passes::InlinerPass>());
  PM.addPass(std::make_unique<passes::ConstantFoldPass>());
  PM.addPass(std::make_unique<passes::DCEPass>());
  auto Transform = std::make_unique<passes::AccelOSTransform>();
  auto *TPtr = Transform.get();
  PM.addPass(std::move(Transform));
  if (Error E = PM.run(*Prog->module()))
    return Expected<ocl::Program *>(std::move(E));

  JittedProgram JP;
  JP.Prog = std::move(Prog);
  JP.Info = TPtr->info();
  JP.AppId = AppId;
  Programs.push_back(std::move(JP));
  return Programs.back().Prog.get();
}

const passes::TransformedKernelInfo *
Runtime::kernelInfo(const ocl::Program *Prog,
                    const std::string &Name) const {
  for (const JittedProgram &JP : Programs) {
    if (JP.Prog.get() != Prog)
      continue;
    auto It = JP.Info.find(Name);
    return It == JP.Info.end() ? nullptr : &It->second;
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Runtime: request submission (FSM (b))
//===----------------------------------------------------------------------===//

double Runtime::perItemCyclesLocked(const passes::TransformedKernelInfo *Info,
                                    kir::Function *Comp) {
  auto It = PerItemOf.find(Info);
  if (It != PerItemOf.end())
    return It->second;
  // Static cost prior (kir/analysis): the per-work-item cycle estimate
  // that prices this kernel's virtual groups in the timing simulation —
  // the same prior the cold-start scheduler uses.
  kir::analysis::Cfg G(*Comp);
  kir::analysis::UniformityAnalysis UA(G);
  kir::analysis::IntervalAnalysis IA(G);
  kir::analysis::CostEstimate Est = kir::analysis::estimateCost(G, UA, IA);
  PerItemOf[Info] = Est.PerItemCycles;
  return Est.PerItemCycles;
}

Expected<uint64_t> Runtime::validateLocked(int AppId, ocl::Kernel &K,
                                           const kir::NDRangeCfg &Range,
                                           double At, CompletionCallback Cb) {
  ++Stats.KernelsScheduled;
  if (Memory.isPaused(AppId))
    return Expected<uint64_t>(
        makeError("application " + std::to_string(AppId) +
                  " is paused for memory pressure"));
  const passes::TransformedKernelInfo *Info =
      kernelInfo(&K.program(), K.name());
  if (Info == nullptr)
    return Expected<uint64_t>(makeError(
        "kernel '" + K.name() + "' was not compiled through accelOS"));
  for (unsigned D = 0; D != 3; ++D) {
    if (Range.LocalSize[D] == 0)
      return Expected<uint64_t>(makeError("zero local size"));
    if (Range.GlobalSize[D] % Range.LocalSize[D] != 0)
      return Expected<uint64_t>(
          makeError("global size not divisible by local size"));
  }

  // The Sec. 3 demand terms and timing costs, captured at the arrival
  // boundary.
  KernelCostModel M = costModelLocked(*Info, K, Range);
  uint64_t Id = NextRequestId++;
  RequestState R;
  R.AppId = AppId;
  R.Kernel = &K;
  R.Range = Range;
  R.Info = Info;
  R.InstCount = M.ComputeInstCount;
  R.Demand = M.Demand;
  auto WIt = Weights.find(AppId);
  R.Demand.Weight = WIt == Weights.end() ? 1.0 : WIt->second;
  R.WGCosts.assign(Range.totalGroups(), M.WGCost);
  R.Cb = std::move(Cb);
  R.Exec.KernelName = K.name();
  R.Exec.AppId = AppId;
  R.Exec.RequestId = Id;
  R.Exec.ArrivalTime = At;
  R.Exec.OriginalWGs = Range.totalGroups();
  Requests.emplace(Id, std::move(R));
  StatusOf.push_back(static_cast<uint8_t>(RequestStatus::Queued));
  Arrivals.push({At, Id});
  return Expected<uint64_t>(std::move(Id));
}

Expected<RequestHandle> Runtime::submit(int AppId, ocl::Kernel &K,
                                        const kir::NDRangeCfg &Range,
                                        CompletionCallback Cb) {
  std::lock_guard<std::mutex> L(Mu);
  Expected<uint64_t> Id =
      validateLocked(AppId, K, Range, Session.now(), std::move(Cb));
  if (!Id)
    return Expected<RequestHandle>(Id.takeError());
  return Expected<RequestHandle>(RequestHandle(this, *Id));
}

Expected<RequestHandle> Runtime::submitAt(int AppId, ocl::Kernel &K,
                                          const kir::NDRangeCfg &Range,
                                          double At, CompletionCallback Cb) {
  std::lock_guard<std::mutex> L(Mu);
  double Now = Session.now();
  Expected<uint64_t> Id =
      validateLocked(AppId, K, Range, At < Now ? Now : At, std::move(Cb));
  if (!Id)
    return Expected<RequestHandle>(Id.takeError());
  return Expected<RequestHandle>(RequestHandle(this, *Id));
}

Error Runtime::enqueueKernel(int AppId, ocl::Kernel &K,
                             const kir::NDRangeCfg &Range) {
  Expected<RequestHandle> H = submit(AppId, K, Range);
  if (!H)
    return H.takeError();
  return Error::success();
}

void Runtime::onCompletion(CompletionCallback Cb) {
  std::lock_guard<std::mutex> L(Mu);
  GlobalCbs.push_back(std::move(Cb));
}

Expected<KernelCostModel> Runtime::costModel(ocl::Kernel &K,
                                             const kir::NDRangeCfg &Range) {
  std::lock_guard<std::mutex> L(Mu);
  const passes::TransformedKernelInfo *Info =
      kernelInfo(&K.program(), K.name());
  if (Info == nullptr)
    return Expected<KernelCostModel>(makeError(
        "kernel '" + K.name() + "' was not compiled through accelOS"));
  return Expected<KernelCostModel>(costModelLocked(*Info, K, Range));
}

KernelCostModel
Runtime::costModelLocked(const passes::TransformedKernelInfo &Info,
                         ocl::Kernel &K, const kir::NDRangeCfg &Range) {
  kir::Function *Comp = K.program().module()->getFunction(Info.ComputeFnName);
  KernelCostModel M;
  M.Demand.WGThreads = Range.workGroupSize();
  M.Demand.LocalMemPerWG =
      Info.LocalMemBytes + kir::rtlayout::schedDescBytes();
  M.Demand.RegsPerThread = passes::estimateRegisters(*Comp);
  M.Demand.RequestedWGs = Range.totalGroups();
  M.WGCost = perItemCyclesLocked(&Info, Comp) *
             static_cast<double>(M.Demand.WGThreads);
  M.ComputeInstCount = Info.ComputeInstCount;
  return M;
}

//===----------------------------------------------------------------------===//
// Runtime: observability
//===----------------------------------------------------------------------===//

RequestStatus Runtime::status(uint64_t Id) const {
  std::lock_guard<std::mutex> L(Mu);
  if (Id >= StatusOf.size())
    return RequestStatus::Queued;
  return static_cast<RequestStatus>(StatusOf[Id]);
}

size_t Runtime::pendingRequests() const {
  std::lock_guard<std::mutex> L(Mu);
  return Requests.size();
}

double Runtime::now() const {
  std::lock_guard<std::mutex> L(Mu);
  return Session.now();
}

//===----------------------------------------------------------------------===//
// Runtime: the pump
//===----------------------------------------------------------------------===//

Error Runtime::runFunctionalLocked(RequestState &R, uint64_t GrantWGs) {
  uint64_t Batch =
      cappedBatchFor(Mode, R.InstCount, R.Range.totalGroups(), GrantWGs);
  R.Exec.Batch = Batch;
  Expected<uint64_t> Rt = writeVirtualNDRange(Dev->memory(), R.Range, Batch);
  if (!Rt)
    return Rt.takeError();

  // Alter the global size to the reduced number of work groups; the
  // work-group size and dimensionality are preserved (Sec. 5). The
  // reduced physical groups are laid out along dimension 0.
  kir::NDRangeCfg Reduced;
  Reduced.WorkDim = R.Range.WorkDim;
  for (unsigned D = 0; D != 3; ++D) {
    Reduced.LocalSize[D] = R.Range.LocalSize[D];
    Reduced.GlobalSize[D] = R.Range.LocalSize[D];
  }
  Reduced.GlobalSize[0] = GrantWGs * R.Range.LocalSize[0];

  // The scheduling kernel takes the original arguments plus rt.
  unsigned RtArgIndex = R.Kernel->function()->numArguments() - 1;
  if (Error E = R.Kernel->setArg(
          RtArgIndex,
          ocl::KernelArg::scalarI64(static_cast<int64_t>(*Rt)))) {
    releaseVirtualNDRange(Dev->memory(), *Rt);
    return E;
  }
  Expected<std::vector<uint64_t>> Args = R.Kernel->packedArgs();
  if (!Args) {
    releaseVirtualNDRange(Dev->memory(), *Rt);
    return Args.takeError();
  }
  Expected<kir::ExecStats> ES =
      Dev->interpreter().run(*R.Kernel->function(), *Args, Reduced);
  releaseVirtualNDRange(Dev->memory(), *Rt);
  if (!ES)
    return ES.takeError();
  R.Exec.Stats = ES.take();
  return Error::success();
}

Runtime::GrantOutcome Runtime::buildGrantLocked(uint64_t Id, uint64_t WGs,
                                                double T) {
  GrantOutcome O;
  if (Opts.RecordGrantHistory)
    GrantLog.push_back({Id, WGs});
  RequestState &R = Requests.at(Id);
  if (!R.Started) {
    R.Started = true;
    StatusOf[Id] = static_cast<uint8_t>(RequestStatus::Running);
    R.GrantSeq = NextGrantSeq++;
    R.Exec.AdmitTime = T;
    R.Exec.PhysicalWGs = WGs;
    if (R.WGCosts.empty()) {
      // Zero-work request: retires at the admission boundary.
      R.Exec.StartTime = T;
      R.Exec.EndTime = T;
      finalizeLocked(Id);
      return O;
    }
    // Functional execution happens once, at the first grant, over the
    // whole virtual range — exactly the legacy flush's execution; the
    // later slices only refine the timing dimension.
    if (Error E = runFunctionalLocked(R, WGs)) {
      std::string Msg = E.message();
      O.Failed = true;
      failLocked(Id, std::move(Msg));
      return O;
    }
  }

  // Timing slice over [Cursor, End) of the virtual range. A round
  // grant runs the whole remaining range.
  sim::KernelLaunchDesc L;
  L.AppId = static_cast<int>(Id); // request-id channel through the sim
  L.ArrivalTime = T;
  L.WGThreads = R.Demand.WGThreads;
  L.LocalMemPerWG = R.Demand.LocalMemPerWG;
  L.RegsPerThread = R.Demand.RegsPerThread;
  L.IssueEfficiency = 1.0;
  L.Mode = sim::KernelLaunchDesc::ModeKind::WorkQueue;
  narrowToSlice(L, R.WGCosts, R.Cursor, WGs, Mode, R.InstCount,
                Opts.Mode == AdmissionMode::RoundSync ? 0
                                                      : Opts.SliceQuantum);
  ++R.Exec.Slices;
  O.Launch.emplace(std::move(L));
  return O;
}

void Runtime::resubmitLocked(uint64_t Id) {
  RequestState &R = Requests.at(Id);
  RoundRequest RR;
  RR.Id = Id;
  RR.Tenant = R.AppId;
  RR.Demand = R.Demand;
  RR.Demand.RequestedWGs = R.WGCosts.size() - R.Cursor;
  // A sliced remainder re-reads the application weight, so adaptive
  // weight changes act on in-progress work; the initial submission
  // keeps the weight captured at the arrival boundary.
  if (R.Started) {
    auto WIt = Weights.find(R.AppId);
    RR.Demand.Weight = WIt == Weights.end() ? 1.0 : WIt->second;
  }
  Sched->submit(RR);
}

bool Runtime::admissionPassLocked(double T) {
  bool Freed = false;
  bool Repass = runAdmissionPass(
      *Sched, Session, LaunchBuf,
      [&](uint64_t Id,
          uint64_t WGs) -> std::optional<sim::KernelLaunchDesc> {
        GrantOutcome O = buildGrantLocked(Id, WGs, T);
        if (O.Failed) {
          // The failed grant holds an in-flight reservation in the
          // scheduler's books; release it so waiters (or, under
          // RoundSync, the next round) can take it at this instant.
          Sched->complete(Id);
          Freed = true;
        }
        return std::move(O.Launch);
      },
      [&](uint64_t) {});
  return Repass || Freed;
}

bool Runtime::advanceLocked() {
  double T = Session.now();
  if (Arrivals.empty())
    return Session.advanceNextEvent(CompletionBuf);
  double NextArr = Arrivals.top().first;
  double NextEvt = Session.nextEventTime();
  double Target = NextEvt < 0 ? NextArr : std::min(NextEvt, NextArr);
  Session.advanceTo(std::max(Target, T), CompletionBuf);
  return true;
}

bool Runtime::recordCompletionLocked(const sim::KernelExecResult &K) {
  uint64_t Id = static_cast<uint64_t>(K.AppId);
  RequestState &R = Requests.at(Id);
  if (!R.StartSeen) {
    R.StartSeen = true;
    R.Exec.StartTime = K.StartTime;
  }
  R.Exec.EndTime = K.EndTime;
  return R.Cursor < R.WGCosts.size();
}

bool Runtime::stepLocked() {
  double T = Session.now();
  // Arrival events due now join the queue before admission runs, so
  // same-instant arrivals are solved together (harness semantics).
  while (!Arrivals.empty() && Arrivals.top().first <= T) {
    uint64_t Id = Arrivals.top().second;
    Arrivals.pop();
    resubmitLocked(Id);
    NeedAdmit = true;
  }
  while (NeedAdmit)
    NeedAdmit = admissionPassLocked(T);
  if (!advanceLocked())
    return false;
  for (const sim::KernelExecResult &K : CompletionBuf) {
    uint64_t Id = static_cast<uint64_t>(K.AppId);
    Sched->complete(Id);
    NeedAdmit = true;
    if (recordCompletionLocked(K))
      resubmitLocked(Id); // remaining slices re-enter the queue
    else
      finalizeLocked(Id);
  }
  return true;
}

void Runtime::finalizeLocked(uint64_t Id) {
  auto It = Requests.find(Id);
  FinishedRecord Rec;
  Rec.Exec = std::move(It->second.Exec);
  Rec.GrantSeq = It->second.GrantSeq;
  CompletionCallback Cb = std::move(It->second.Cb);
  Requests.erase(It);
  StatusOf[Id] = static_cast<uint8_t>(RequestStatus::Completed);
  if (Cb || !GlobalCbs.empty()) {
    // Callback dispatch is deferred to the pump-driving thread, which
    // fires it after releasing the runtime lock (re-entrancy safe).
    std::vector<CompletionCallback> Gl = GlobalCbs;
    PendingCallbacks.push_back(
        [Cb = std::move(Cb), Gl = std::move(Gl), E = Rec.Exec]() {
          if (Cb)
            Cb(E);
          for (const CompletionCallback &G : Gl)
            G(E);
        });
  }
  Finished.emplace(Id, std::move(Rec));
}

void Runtime::failLocked(uint64_t Id, std::string Msg) {
  auto It = Requests.find(Id);
  FinishedRecord Rec;
  Rec.Exec = std::move(It->second.Exec);
  Rec.Error = std::move(Msg);
  Rec.GrantSeq = It->second.GrantSeq;
  Requests.erase(It);
  StatusOf[Id] = static_cast<uint8_t>(RequestStatus::Failed);
  Finished.emplace(Id, std::move(Rec));
}

//===----------------------------------------------------------------------===//
// Runtime: waiting side
//===----------------------------------------------------------------------===//

Expected<ScheduledExecution> Runtime::wait(uint64_t Id) {
  for (;;) {
    std::vector<std::function<void()>> Cbs;
    {
      std::lock_guard<std::mutex> L(Mu);
      auto It = Finished.find(Id);
      if (It != Finished.end()) {
        FinishedRecord Rec = std::move(It->second);
        Finished.erase(It);
        if (!Rec.Error.empty())
          return Expected<ScheduledExecution>(makeError(Rec.Error));
        return Expected<ScheduledExecution>(std::move(Rec.Exec));
      }
      if (Id >= NextRequestId)
        return Expected<ScheduledExecution>(
            makeError("unknown request " + std::to_string(Id)));
      RequestStatus S = static_cast<RequestStatus>(StatusOf[Id]);
      if (S == RequestStatus::Completed || S == RequestStatus::Failed)
        return Expected<ScheduledExecution>(
            makeError("request " + std::to_string(Id) +
                      ": result already consumed"));
      bool Progress = stepLocked();
      Cbs.swap(PendingCallbacks);
      if (!Progress && Cbs.empty() && Finished.count(Id) == 0)
        return Expected<ScheduledExecution>(
            makeError("request " + std::to_string(Id) +
                      " cannot complete: runtime is idle"));
    }
    for (std::function<void()> &F : Cbs)
      F();
  }
}

Expected<std::vector<ScheduledExecution>> Runtime::drain() {
  for (;;) {
    std::vector<std::function<void()>> Cbs;
    bool Progress;
    {
      std::lock_guard<std::mutex> L(Mu);
      Progress = stepLocked();
      Cbs.swap(PendingCallbacks);
    }
    for (std::function<void()> &F : Cbs)
      F();
    // Break only when the pump is idle AND no callbacks fired — a
    // callback may have submitted follow-up work.
    if (!Progress && Cbs.empty())
      break;
  }

  std::lock_guard<std::mutex> L(Mu);
  std::vector<FinishedRecord *> Order;
  Order.reserve(Finished.size());
  for (auto &Entry : Finished)
    Order.push_back(&Entry.second);
  std::sort(Order.begin(), Order.end(),
            [](const FinishedRecord *A, const FinishedRecord *B) {
              return A->GrantSeq < B->GrantSeq;
            });
  std::vector<ScheduledExecution> Out;
  std::string FirstError;
  for (FinishedRecord *Rec : Order) {
    if (!Rec->Error.empty()) {
      if (FirstError.empty())
        FirstError = Rec->Error;
    } else {
      Out.push_back(std::move(Rec->Exec));
    }
  }
  Finished.clear();
  if (!FirstError.empty())
    return Expected<std::vector<ScheduledExecution>>(
        makeError(FirstError));
  return Expected<std::vector<ScheduledExecution>>(std::move(Out));
}
