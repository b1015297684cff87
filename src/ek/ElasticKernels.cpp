//===- ek/ElasticKernels.cpp - Elastic Kernels baseline ---------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "ek/ElasticKernels.h"

#include <algorithm>
#include <cassert>

using namespace accel;
using namespace accel::ek;

std::vector<sim::KernelLaunchDesc>
ek::planMergedLaunch(const sim::DeviceSpec &Spec,
                     const std::vector<EKKernelDesc> &Kernels) {
  assert(!Kernels.empty() && "EK merge of an empty batch");

  // Elastic Kernels was designed around co-executing *pairs* of
  // kernels: requests are merged two at a time in arrival order and the
  // merged pairs run one after another. This is why the paper finds EK
  // "fails to manage large numbers of requests" (Sec. 8.3.1) — a
  // request in the third pair waits for two whole batches.
  std::vector<sim::KernelLaunchDesc> Launches;
  for (size_t I = 0; I != Kernels.size(); ++I) {
    const EKKernelDesc &D = Kernels[I];
    assert(D.WGThreads > 0 && "zero-thread work group");
    size_t BatchPeers = std::min<size_t>(2, Kernels.size() - (I & ~1ull));

    // EK's static heuristic: the kernel's full-device residency by the
    // thread limit alone, split across the merged pair. Local memory
    // and registers are not considered — occupancy is clipped by the
    // hardware at dispatch time instead (a fairness loss accelOS's
    // three-resource solver avoids).
    uint64_t FullResidency =
        std::max<uint64_t>(1, Spec.totalThreads() / D.WGThreads);
    uint64_t Slice = std::max<uint64_t>(1, FullResidency / BatchPeers);
    uint64_t Orig = D.WGCosts.size();
    uint64_t Phys = std::min<uint64_t>(Slice, Orig);

    // Each elastic work group serially executes a statically assigned
    // contiguous chunk of the original grid.
    sim::KernelLaunchDesc L;
    L.AppId = D.AppId;
    L.WGThreads = D.WGThreads;
    L.LocalMemPerWG = D.LocalMemPerWG;
    L.RegsPerThread = D.RegsPerThread;
    L.IssueEfficiency = D.IssueEfficiency;
    L.Mode = sim::KernelLaunchDesc::ModeKind::Static;
    L.MergeGroup = static_cast<int>(I / 2);
    L.StaticCosts.assign(Phys, 0.0);
    for (uint64_t J = 0; J != Orig; ++J)
      L.StaticCosts[J * Phys / Orig] += D.WGCosts[J];
    Launches.push_back(std::move(L));
  }
  return Launches;
}
