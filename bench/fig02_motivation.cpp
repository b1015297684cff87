//===- bench/fig02_motivation.cpp - Paper Figure 2 ----------------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 2: the motivating parallel execution of bfs, cutcp,
/// stencil and tpacf on the NVIDIA-like platform — (a) individual
/// slowdowns per scheme, (b) system unfairness, (c) system throughput
/// speedup. Paper reference points: accelOS 5.79x fairer than standard
/// OpenCL and 1.31x faster; EK 5.51 unfairness and 1.14x.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace accel;
using namespace accel::bench;

int main() {
  ExperimentDriver Driver(sim::DeviceSpec::nvidiaK20m());
  const char *Names[] = {"bfs", "cutcp", "stencil", "tpacf"};

  workloads::Workload W;
  const auto &Suite = workloads::parboilSuite();
  for (const char *Name : Names)
    for (size_t I = 0; I != Suite.size(); ++I)
      if (Suite[I].Id == Name)
        W.push_back(I);

  raw_ostream &OS = outs();
  OS << "=== Figure 2: parallel execution of bfs, cutcp, stencil, tpacf "
        "(NVIDIA K20m model) ===\n\n";

  struct SchemeRow {
    SchedulerKind Kind;
    const char *Label;
  };
  const SchemeRow Schemes[] = {
      {SchedulerKind::Baseline, "Standard"},
      {SchedulerKind::ElasticKernels, "EK"},
      {SchedulerKind::AccelOSOptimized, "accelOS"}};

  // (a) individual slowdowns.
  harness::TextTable SlowTable(
      {"Scheme", "bfs", "cutcp", "stencil", "tpacf"});
  double BaseU = 0, BaseMakespan = 0;
  harness::TextTable Summary(
      {"Scheme", "Unfairness", "FairnessImp", "ThroughputSpeedup"});
  for (const SchemeRow &S : Schemes) {
    harness::WorkloadOutcome R = harness::runWorkload(Driver, S.Kind, W);
    SlowTable.addRow({S.Label, fmt(R.Slowdowns[0]), fmt(R.Slowdowns[1]),
                      fmt(R.Slowdowns[2]), fmt(R.Slowdowns[3])});
    if (S.Kind == SchedulerKind::Baseline) {
      BaseU = R.Unfairness;
      BaseMakespan = R.Makespan;
    }
    Summary.addRow({S.Label, fmt(R.Unfairness),
                    fmt(metrics::fairnessImprovement(BaseU, R.Unfairness)),
                    fmt(metrics::throughputSpeedup(BaseMakespan,
                                                   R.Makespan))});
  }

  OS << "(a) Individual slowdowns (vs. isolated standard execution)\n";
  SlowTable.print(OS);
  OS << "\n(b)+(c) System unfairness and throughput speedup\n";
  Summary.print(OS);
  OS << "\nPaper reference: accelOS fairness improvement 5.79x, "
        "throughput 1.31x; EK 1.53x / 1.14x.\n";
  return 0;
}
