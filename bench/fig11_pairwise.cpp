//===- bench/fig11_pairwise.cpp - Paper Figure 11 ------------------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 11: unfairness of the 13 alphabetic 2-kernel pairs
/// under standard OpenCL, EK and accelOS on both platforms. The pairing
/// is the paper's anti-cherry-picking device: each benchmark is paired
/// with its alphabetic neighbour.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace accel;
using namespace accel::bench;

int main() {
  auto Pairs = workloads::alphabeticPairs();
  raw_ostream &OS = outs();
  OS << "=== Figure 11: unfairness for the 13 alphabetic pairs (lower "
        "is better) ===\n\n";

  for (PlatformRun &P : makePlatforms()) {
    OS << "--- " << P.Label << " ---\n";
    harness::TextTable T({"Pair", "Standard", "EK", "accelOS"});
    for (const workloads::Workload &W : Pairs) {
      const auto &Suite = workloads::parboilSuite();
      std::string Label = Suite[W[0]].Id + " + " + Suite[W[1]].Id;
      auto Base = harness::runWorkload(P.Driver, SchedulerKind::Baseline, W);
      auto EK =
          harness::runWorkload(P.Driver, SchedulerKind::ElasticKernels, W);
      auto AOS =
          harness::runWorkload(P.Driver, SchedulerKind::AccelOSOptimized, W);
      T.addRow({Label, fmt(Base.Unfairness), fmt(EK.Unfairness),
                fmt(AOS.Unfairness)});
    }
    T.print(OS);
    OS << "\n";
  }
  OS << "Paper reference: accelOS steadily lowest on both platforms.\n";
  return 0;
}
