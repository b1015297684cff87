//===- examples/multi_tenant_server.cpp - Fair sharing across tenants --------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's motivating scenario (Sec. 1): a data-center node where
/// several tenants submit kernels to one accelerator concurrently. Three
/// tenants run different MiniCL kernels in one scheduling round; the
/// Kernel Scheduler sizes them against each other so each gets an equal
/// share of threads, local memory and registers, and the timing model
/// shows the fairness gap against the standard serializing stack.
///
//===----------------------------------------------------------------------===//

#include "accelos/ProxyCL.h"
#include "harness/Streaming.h"
#include "harness/Table.h"
#include "support/RawOstream.h"

using namespace accel;

int main() {
  raw_ostream &OS = outs();
  OS << "=== Multi-tenant accelerator sharing ===\n\n";

  // --- Functional view: three tenants share one round. ---------------------
  auto Device = ocl::Platform::createNvidiaK20m();
  accelos::Runtime AccelOS(*Device);

  struct Tenant {
    accelos::ProxyCL App;
    const char *Kernel;
    const char *Name;
  };
  accelos::ProxyCL A1(AccelOS, 1), A2(AccelOS, 2), A3(AccelOS, 3);

  const char *Scale = R"(
    kernel void scale(global float* d, float f) {
      d[get_global_id(0)] = d[get_global_id(0)] * f;
    }
  )";
  const char *Offset = R"(
    kernel void offset(global float* d, float b) {
      d[get_global_id(0)] = d[get_global_id(0)] + b;
    }
  )";
  const char *Square = R"(
    kernel void square(global float* d) {
      float v = d[get_global_id(0)];
      d[get_global_id(0)] = v * v;
    }
  )";

  constexpr int N = 2048;
  std::vector<float> Init(N, 3.0f);
  struct Bound {
    ocl::Program *P;
    ocl::Kernel K;
    ocl::Buffer B;
  };
  std::vector<Bound> Bounds;
  accelos::ProxyCL *Apps[] = {&A1, &A2, &A3};
  const char *Sources[] = {Scale, Offset, Square};
  const char *Names[] = {"scale", "offset", "square"};
  for (int I = 0; I < 3; ++I) {
    ocl::Program *P = cantFail(Apps[I]->createProgram(Sources[I]));
    ocl::Kernel K = cantFail(Apps[I]->createKernel(*P, Names[I]));
    ocl::Buffer B = cantFail(Apps[I]->createBuffer(N * 4));
    cantFail(B.write(Init.data(), N * 4));
    cantFail(Apps[I]->setKernelArg(K, 0, ocl::KernelArg::buffer(B)));
    if (I == 0)
      cantFail(Apps[I]->setKernelArg(K, 1, ocl::KernelArg::scalarF32(2.0f)));
    if (I == 1)
      cantFail(Apps[I]->setKernelArg(K, 1, ocl::KernelArg::scalarF32(7.0f)));
    Bounds.push_back({P, std::move(K), std::move(B)});
  }
  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = N;
  Range.LocalSize[0] = 256;
  // The three tenants submit asynchronously; all three arrive at the
  // same instant, so continuous admission sizes them against each other
  // exactly as one scheduling round would.
  for (int I = 0; I < 3; ++I)
    cantFail(Apps[I]->submitNDRange(Bounds[I].K, Range));

  auto Execs = cantFail(AccelOS.drain());
  OS << "Concurrent admission of " << Execs.size() << " tenants:\n";
  for (const auto &E : Execs)
    OS << "  app " << E.AppId << " kernel '" << E.KernelName << "': "
       << E.PhysicalWGs << "/" << E.OriginalWGs
       << " work groups, batch " << E.Batch << ", queued "
       << static_cast<uint64_t>(E.queueDelay()) << " cycles\n";

  std::vector<float> Out(N);
  cantFail(Bounds[0].B.read(Out.data(), N * 4));
  OS << "tenant 1 result (3*2): " << Out[0] << "\n";
  cantFail(Bounds[1].B.read(Out.data(), N * 4));
  OS << "tenant 2 result (3+7): " << Out[0] << "\n";
  cantFail(Bounds[2].B.read(Out.data(), N * 4));
  OS << "tenant 3 result (3^2): " << Out[0] << "\n";

  // --- Timing view: fairness of the same idea at data-center scale. --------
  OS << "\nFairness on a 4-tenant Parboil-like mix (timing model):\n";
  harness::ExperimentDriver Driver(sim::DeviceSpec::nvidiaK20m());
  workloads::Workload W;
  for (const char *Id : {"bfs", "cutcp", "stencil", "tpacf"})
    for (size_t I = 0; I != Driver.numKernels(); ++I)
      if (Driver.kernel(I).Spec->Id == Id)
        W.push_back(I);
  auto Base =
      harness::runWorkload(Driver, harness::SchedulerKind::Baseline, W);
  auto AOS = harness::runWorkload(
      Driver, harness::SchedulerKind::AccelOSOptimized, W);
  OS << "  standard OpenCL: unfairness ";
  OS.printFixed(Base.Unfairness, 2);
  OS << ", overlap ";
  OS.printFixed(100 * Base.Overlap, 0);
  OS << "%\n  accelOS:         unfairness ";
  OS.printFixed(AOS.Unfairness, 2);
  OS << ", overlap ";
  OS.printFixed(100 * AOS.Overlap, 0);
  OS << "%\n";
  return 0;
}
