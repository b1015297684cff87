//===- bench/sec85_small_kernels.cpp - Paper Sec. 8.5 small kernels ------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the Sec. 8.5 small-kernel experiment: modified bfs, spmv
/// and tpacf with only 2, 4 and 8 work groups, comparing standard vs
/// accelOS execution times. Paper reference: differences below 3%.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "accelos/AdaptivePolicy.h"
#include "accelos/AdaptivePolicy.h"
#include "accelos/ResourceSolver.h"

using namespace accel;
using namespace accel::bench;

int main() {
  raw_ostream &OS = outs();
  OS << "=== Sec. 8.5: tiny kernel executions (2/4/8 work groups) "
        "===\n\n";

  for (PlatformRun &P : makePlatforms()) {
    OS << "--- " << P.Label << " ---\n";
    harness::TextTable T(
        {"Kernel", "WGs", "Standard", "accelOS", "Delta"});
    for (const char *Id : {"bfs", "spmv", "tpacf"}) {
      size_t Idx = 0;
      const auto &Suite = workloads::parboilSuite();
      for (size_t I = 0; I != Suite.size(); ++I)
        if (Suite[I].Id == Id)
          Idx = I;
      const harness::CompiledKernel &CK = P.Driver.kernel(Idx);

      for (uint64_t WGs : {2ull, 4ull, 8ull}) {
        // Artificial small dataset: truncate the cost vector.
        std::vector<double> Costs(CK.WGCosts.begin(),
                                  CK.WGCosts.begin() + WGs);
        sim::KernelLaunchDesc Base;
        Base.WGThreads = CK.Spec->WGSize;
        Base.LocalMemPerWG = CK.LocalMemBytes;
        Base.RegsPerThread = CK.RegsPerThread;
        Base.IssueEfficiency = CK.Spec->IssueEfficiency;
        Base.Mode = sim::KernelLaunchDesc::ModeKind::Static;
        Base.StaticCosts = Costs;

        sim::KernelLaunchDesc AOS = Base;
        AOS.Mode = sim::KernelLaunchDesc::ModeKind::WorkQueue;
        AOS.VirtualCosts = Costs;
        AOS.StaticCosts.clear();
        AOS.PhysicalWGs = WGs; // the solver cannot shrink tiny launches
        AOS.Batch = accelos::batchSizeFor(
            accelos::SchedulingMode::Optimized, CK.InstCount);

        sim::Engine E(P.Driver.device());
        double TBase = E.run({Base}).Makespan;
        double TAOS = E.run({AOS}).Makespan;
        double Delta = (TAOS - TBase) / TBase;
        T.addRow({Id, std::to_string(WGs), fmt(TBase), fmt(TAOS),
                  formatDouble(100.0 * Delta, 1) + "%"});
      }
    }
    T.print(OS);
    OS << "\n";
  }
  OS << "Paper reference: execution times differ by less than 3%.\n";
  return 0;
}
