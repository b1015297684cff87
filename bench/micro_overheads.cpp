//===- bench/micro_overheads.cpp - Infrastructure micro-benchmarks -------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark micro-benchmarks of the accelOS infrastructure
/// itself: MiniCL JIT compilation (front end + cleanup + scheduling
/// transform), the Sec. 3 resource solver, one timing-engine
/// simulation — the host-side costs the paper folds into "negligible
/// communication overhead" — and the per-event cost of the serving
/// admission hot paths (full solve vs incremental vs stride).
///
//===----------------------------------------------------------------------===//

#include "accelos/ProxyCL.h"
#include "accelos/ResourceSolver.h"
#include "accelos/Scheduler.h"
#include "harness/Streaming.h"
#include "kir/Module.h"
#include "minicl/Frontend.h"
#include "passes/AccelOSTransform.h"
#include "passes/ConstantFold.h"
#include "passes/DCE.h"
#include "passes/Inliner.h"
#include "passes/Pass.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

using namespace accel;

static void BM_FrontendCompile(benchmark::State &State) {
  const workloads::KernelSpec &Spec = workloads::findKernel("sgemm");
  for (auto _ : State) {
    auto M = minicl::compileSource(Spec.Id, Spec.Source);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_FrontendCompile);

static void BM_FullJitPipeline(benchmark::State &State) {
  const workloads::KernelSpec &Spec = workloads::findKernel("sgemm");
  for (auto _ : State) {
    auto M = cantFail(minicl::compileSource(Spec.Id, Spec.Source));
    passes::PassManager PM(/*VerifyEach=*/false);
    PM.addPass(std::make_unique<passes::InlinerPass>());
    PM.addPass(std::make_unique<passes::ConstantFoldPass>());
    PM.addPass(std::make_unique<passes::DCEPass>());
    PM.addPass(std::make_unique<passes::AccelOSTransform>());
    cantFail(PM.run(*M));
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_FullJitPipeline);

static void BM_ResourceSolver(benchmark::State &State) {
  accelos::ResourceCaps Caps =
      accelos::ResourceCaps::fromDevice(sim::DeviceSpec::nvidiaK20m());
  std::vector<accelos::KernelDemand> Ds;
  for (int I = 0; I < 8; ++I) {
    accelos::KernelDemand D;
    D.WGThreads = 64 << (I % 3);
    D.LocalMemPerWG = 1024 * (I % 4);
    D.RegsPerThread = 16 + I;
    D.RequestedWGs = 256;
    Ds.push_back(D);
  }
  // The allocation-free overload the schedulers run, with its working
  // storage reused across solves as theirs is.
  accelos::SolverScratch Scratch;
  std::vector<uint64_t> Shares;
  for (auto _ : State) {
    accelos::solveFairShares(Caps, Ds, {}, Scratch, Shares);
    benchmark::DoNotOptimize(Shares.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ResourceSolver);

// The solve a serve_scale-deep queue makes: ~126 demands on the K20m
// drawn from three shapes, where the one-WG floors oversubscribe the
// device and the clamp iterates (BM_ResourceSolver's 8 demands never
// clamp). \p Weighted alternates the weights 1 and 2 along the queue,
// so every shape recurs under both weights in each solve and the
// solver's shape table, which caches one base division per shape,
// recomputes it at every demand.
static void solveDeepQueue(benchmark::State &State, bool Weighted) {
  accelos::ResourceCaps Caps =
      accelos::ResourceCaps::fromDevice(sim::DeviceSpec::nvidiaK20m());
  const accelos::KernelDemand Shapes[3] = {{128, 0, 16, 0},
                                           {256, 2048, 24, 0},
                                           {512, 4096, 32, 0}};
  std::vector<accelos::KernelDemand> Ds;
  for (int I = 0; I < 126; ++I) {
    accelos::KernelDemand D = Shapes[I % 3];
    D.RequestedWGs = 1 + (I * 7) % 32;
    if (Weighted)
      D.Weight = 1 + I % 2;
    Ds.push_back(D);
  }
  std::vector<uint64_t> Ref = accelos::solveFairShares(Caps, Ds, {false});
  if (std::find(Ref.begin(), Ref.end(), 0) == Ref.end()) {
    State.SkipWithError("the deep queue no longer clamps");
    return;
  }
  accelos::SolverScratch Scratch;
  std::vector<uint64_t> Shares;
  for (auto _ : State) {
    accelos::solveFairShares(Caps, Ds, {}, Scratch, Shares);
    benchmark::DoNotOptimize(Shares.data());
    benchmark::ClobberMemory();
  }
}

static void BM_ResourceSolverDeepQueue(benchmark::State &State) {
  solveDeepQueue(State, false);
}
BENCHMARK(BM_ResourceSolverDeepQueue);

static void BM_ResourceSolverDeepQueueWeighted(benchmark::State &State) {
  solveDeepQueue(State, true);
}
BENCHMARK(BM_ResourceSolverDeepQueueWeighted);

static void BM_EnginePairSimulation(benchmark::State &State) {
  static harness::ExperimentDriver Driver(sim::DeviceSpec::nvidiaK20m());
  workloads::Workload W = {21, 24}; // sgemm + tpacf
  for (auto _ : State) {
    auto R = harness::runWorkload(
        Driver, harness::SchedulerKind::AccelOSOptimized, W);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_EnginePairSimulation);

// The engine events of the fleet replay: one EngineSession per device
// spec kept full by a closed loop of WorkQueue slice launches (each
// completion relaunches at once), stepped one event instant per
// iteration. The launch shape is perfbench's fleet_faults, counted
// per device over one 8,000-request replica (seed 1): the K20m ran
// 13.5k slices of 67 physical work groups over 176 virtual groups, the
// AMD device 9.4k slices of 292 over 386; batch 1 (the cap is 8);
// 0.84M and 2.6M thread-cycles per virtual group; ~170 threads per
// work group; ~4 and ~3 slices in flight; 10.8 and 10.7 residents per
// compute unit at an event. A work group retires at its last leg end,
// so an instant that retires none only re-arms: the rearm_only counter
// estimates that share as 1 - retired groups / instants (a retiring
// instant retires 1.04 groups in fleet_faults, where it is 61% on the
// K20m and 25% on the AMD device).
static void BM_EngineLegEvents(benchmark::State &State) {
  const bool K20m = State.range(0) == 0;
  const uint64_t PhysicalWGs = K20m ? 67 : 292;
  const uint64_t VirtualGroups = K20m ? 176 : 386;
  const int Clients = K20m ? 4 : 3;
  // Costs spread over [0.5, 1.5] of the mean, so leg ends rarely tie.
  std::vector<double> Costs(VirtualGroups);
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (double &C : Costs) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    C = (K20m ? 0.84e6 : 2.6e6) *
        (0.5 + static_cast<double>(X >> 11) * 0x1p-53);
  }
  sim::EngineSession Session(K20m ? sim::DeviceSpec::nvidiaK20m()
                                  : sim::DeviceSpec::amdR9295X2());
  std::vector<sim::KernelLaunchDesc> LaunchBuf;
  std::vector<sim::KernelExecResult> Done;
  auto Launch = [&](int Client) {
    sim::KernelLaunchDesc L;
    L.AppId = Client;
    L.ArrivalTime = Session.now();
    L.WGThreads = K20m ? 160 : 176;
    L.RegsPerThread = 16;
    L.IssueEfficiency = 0.8;
    L.Mode = sim::KernelLaunchDesc::ModeKind::WorkQueue;
    L.ViewCosts = Costs.data();
    L.ViewBegin = 0;
    L.ViewEnd = VirtualGroups;
    L.PhysicalWGs = PhysicalWGs;
    L.Batch = 1;
    LaunchBuf.push_back(L);
  };
  for (int C = 0; C != Clients; ++C)
    Launch(C);
  Session.admitFrom(LaunchBuf);
  uint64_t Instants = 0, Retired = 0;
  for (auto _ : State) {
    Session.advanceNextEvent(Done);
    benchmark::DoNotOptimize(Done.data());
    for (const sim::KernelExecResult &K : Done) {
      Retired += K.DispatchedWGs;
      Launch(K.AppId);
    }
    Session.admitFrom(LaunchBuf);
    ++Instants;
  }
  State.SetLabel(K20m ? "K20m" : "AMD R9 295X2");
  State.counters["rearm_only"] =
      1.0 - static_cast<double>(Retired) / static_cast<double>(Instants);
}
BENCHMARK(BM_EngineLegEvents)->Arg(0)->Arg(1);

// Steady-state cost of one serving admission event under each of the
// three hot paths bench/serve_scale replays end to end: preload a
// saturated revolving population, then measure one
// complete-oldest -> submit-new -> admit() cycle. The shape pool
// repeats a handful of kernel shapes across many tenants, matching the
// serving regime the incremental fast paths and the solver's
// shape-class machinery are built for.
namespace {

template <typename Scheduler>
void runAdmitEvent(benchmark::State &State, Scheduler &S) {
  uint64_t NextId = 1;
  std::deque<uint64_t> Landed; // Granted ids, admission order.
  auto Submit = [&] {
    uint64_t Id = NextId++;
    accelos::RoundRequest R;
    R.Id = Id;
    R.Demand.WGThreads = 64 << (Id % 3);
    R.Demand.LocalMemPerWG = 512 * (Id % 4);
    R.Demand.RegsPerThread = 16 + Id % 5;
    R.Demand.RequestedWGs = 16;
    R.Tenant = static_cast<int>(Id % 16);
    S.submit(R);
  };
  auto Admit = [&] {
    for (const accelos::RoundGrant &G : S.admit())
      if (G.WGs > 0)
        Landed.push_back(G.Id);
  };
  for (int I = 0; I != 64; ++I)
    Submit();
  Admit();
  for (auto _ : State) {
    if (!Landed.empty()) {
      S.complete(Landed.front());
      Landed.pop_front();
    }
    Submit();
    Admit();
  }
  benchmark::DoNotOptimize(NextId);
}

} // namespace

static void BM_AdmitEventFullSolve(benchmark::State &State) {
  accelos::ResourceCaps Caps =
      accelos::ResourceCaps::fromDevice(sim::DeviceSpec::nvidiaK20m());
  accelos::SchedulerOptions SchedOpts;
  SchedOpts.Incremental = false; // The pre-optimization reference solve.
  accelos::ContinuousScheduler S(Caps, {}, SchedOpts);
  runAdmitEvent(State, S);
}
BENCHMARK(BM_AdmitEventFullSolve);

static void BM_AdmitEventIncremental(benchmark::State &State) {
  accelos::ResourceCaps Caps =
      accelos::ResourceCaps::fromDevice(sim::DeviceSpec::nvidiaK20m());
  accelos::ContinuousScheduler S(Caps);
  runAdmitEvent(State, S);
}
BENCHMARK(BM_AdmitEventIncremental);

static void BM_AdmitEventStride(benchmark::State &State) {
  accelos::ResourceCaps Caps =
      accelos::ResourceCaps::fromDevice(sim::DeviceSpec::nvidiaK20m());
  accelos::StrideScheduler S(Caps);
  runAdmitEvent(State, S);
}
BENCHMARK(BM_AdmitEventStride);

// End-to-end client cost of the async Runtime API: one
// submit() -> wait() cycle through ProxyCL, covering arrival
// validation, continuous admission, the functional execution and the
// timing-slice pump. The MT variant drives the same shared runtime
// from 4 producer threads (each with its own app/kernel/buffer),
// measuring the mutex-serialized submission path under contention.
namespace {

struct SubmitFixture {
  std::unique_ptr<ocl::Device> Dev;
  accelos::Runtime RT;
  struct App {
    std::unique_ptr<accelos::ProxyCL> Proxy;
    std::unique_ptr<ocl::Kernel> K;
    std::unique_ptr<ocl::Buffer> B;
  };
  std::vector<App> Apps;

  explicit SubmitFixture(int NumApps)
      : Dev(ocl::Platform::createNvidiaK20m()), RT(*Dev) {
    const char *Source = R"(
      kernel void axpy(global float* d, float a) {
        long gid = get_global_id(0);
        d[gid] = d[gid] * a + 1.0f;
      }
    )";
    constexpr int N = 256;
    for (int I = 0; I != NumApps; ++I) {
      App A;
      A.Proxy = std::make_unique<accelos::ProxyCL>(RT, I + 1);
      ocl::Program *P = cantFail(A.Proxy->createProgram(Source));
      A.K = std::make_unique<ocl::Kernel>(
          cantFail(A.Proxy->createKernel(*P, "axpy")));
      A.B = std::make_unique<ocl::Buffer>(
          cantFail(A.Proxy->createBuffer(N * 4)));
      cantFail(
          A.Proxy->setKernelArg(*A.K, 0, ocl::KernelArg::buffer(*A.B)));
      cantFail(A.Proxy->setKernelArg(*A.K, 1,
                                     ocl::KernelArg::scalarF32(2.0f)));
      Apps.push_back(std::move(A));
    }
  }
};

kir::NDRangeCfg submitRange() {
  kir::NDRangeCfg R;
  R.GlobalSize[0] = 256;
  R.LocalSize[0] = 64;
  return R;
}

} // namespace

static void BM_SubmitToCompletion(benchmark::State &State) {
  static SubmitFixture F(1);
  kir::NDRangeCfg Range = submitRange();
  for (auto _ : State) {
    auto H = cantFail(F.Apps[0].Proxy->submitNDRange(*F.Apps[0].K, Range));
    auto E = cantFail(H.wait());
    benchmark::DoNotOptimize(E);
  }
}
BENCHMARK(BM_SubmitToCompletion);

static void BM_SubmitToCompletionMT(benchmark::State &State) {
  static SubmitFixture F(4);
  kir::NDRangeCfg Range = submitRange();
  auto &A = F.Apps[State.thread_index() % F.Apps.size()];
  for (auto _ : State) {
    auto H = cantFail(A.Proxy->submitNDRange(*A.K, Range));
    auto E = cantFail(H.wait());
    benchmark::DoNotOptimize(E);
  }
}
BENCHMARK(BM_SubmitToCompletionMT)->Threads(4);

BENCHMARK_MAIN();
