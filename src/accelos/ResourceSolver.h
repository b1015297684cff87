//===- accelos/ResourceSolver.h - Fair resource sharing ---------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's resource-sharing algorithm (Sec. 3): determine a number
/// of work groups per concurrent kernel execution so that all kernels
/// get approximately equal shares of the three constrained resources —
/// hardware threads (T), local memory (L) and registers (R):
///
///   x_i = T / (K * w_i),  y_i = L / (K * m_i),  z_i = R / (K * r_i)
///
/// with the final share min(x_i, y_i, z_i). Because the Diophantine
/// solutions are conservative, a greedy pass grows shares until
/// resource saturation: round-robin under equal weights (the paper
/// default, kept bit-identical), weighted max-min filling under
/// non-equal sharing ratios (Sec. 2.2) so the weights survive
/// saturation instead of being washed out by it.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_ACCELOS_RESOURCESOLVER_H
#define ACCEL_ACCELOS_RESOURCESOLVER_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace accel {

namespace sim {
struct DeviceSpec;
}

namespace accelos {

/// Per-kernel demand terms of the Sec. 3 constraint system.
struct KernelDemand {
  uint64_t WGThreads = 0;     ///< w_i: work-group size in threads.
  uint64_t LocalMemPerWG = 0; ///< m_i: local memory per work group.
  uint64_t RegsPerThread = 0; ///< r_i / w_i: registers per thread.
  uint64_t RequestedWGs = 0;  ///< Original NDRange group count (cap).
  /// Relative share weight (paper Sec. 2.2: non-equal sharing ratios).
  double Weight = 1.0;
};

/// Device capacity terms.
struct ResourceCaps {
  uint64_t Threads = 0;  ///< T.
  uint64_t LocalMem = 0; ///< L.
  uint64_t Regs = 0;     ///< R.
  uint64_t WGSlots = 0;  ///< Device-wide resident work-group limit.

  static ResourceCaps fromDevice(const sim::DeviceSpec &Spec);
};

/// The aggregate footprint of \p WGs work groups of demand \p D, in
/// the same dimensions as ResourceCaps — the single definition of the
/// demand model shared by the solver's feasibility check and the
/// schedulers' residual-capacity accounting.
struct ResourceUse {
  uint64_t Threads = 0;
  uint64_t LocalMem = 0;
  uint64_t Regs = 0;
  uint64_t WGSlots = 0;
};

inline ResourceUse footprintOf(const KernelDemand &D, uint64_t WGs) {
  return {WGs * D.WGThreads, WGs * D.LocalMemPerWG,
          WGs * D.WGThreads * D.RegsPerThread, WGs};
}

/// Options controlling the solver (the greedy phase can be disabled for
/// the ablation study).
struct SolverOptions {
  bool GreedySaturation = true;
};

/// Computes the number of physical work groups per kernel. Shares never
/// exceed RequestedWGs, and the returned allocation always fits within
/// \p Caps in aggregate. Kernels requesting zero work groups receive
/// zero and are excluded from the fairness divisor. Every other kernel
/// receives at least one work group whenever capacity permits; when
/// even single work groups cannot co-exist, minimum-share floors are
/// reverted rather than oversubscribing the device — preferring a
/// floored kernel whose reversion alone restores feasibility; when no
/// single reversion suffices, a bounded bin-covering search over
/// revert subsets of size two and three picks the set minimizing shed
/// work groups (ties to the largest demand in the most-oversubscribed
/// resource); only past those bounds does the iterative
/// largest-contributor heuristic fire.
///
/// This allocating overload is the reference solve: it re-sums the whole
/// allocation at every feasibility check and runs the bin-covering
/// search over candidate subsets, not shape classes. The schedulers run
/// the allocation-free overload below; this one serves the tests,
/// bench/abl_resource_solver, and ContinuousScheduler with
/// SchedulerOptions::Incremental off (the full-solve scheme of
/// bench/serve_scale) and its SelfCheck re-solves.
std::vector<uint64_t> solveFairShares(const ResourceCaps &Caps,
                                      const std::vector<KernelDemand> &Ks,
                                      const SolverOptions &Opts = {});

/// Reusable working storage for the allocation-free solver overload:
/// one long-lived instance per scheduler amortizes every per-solve
/// heap allocation to the high-water mark of the queue.
struct SolverScratch {
  std::vector<uint8_t> Floored;
  std::vector<uint8_t> Saturated;
  std::vector<uint32_t> Active; ///< Unsaturated sweep list, index order.
  /// Per-call memo of the Sec. 3 base divisions. Queues at scale repeat
  /// a few kernel shapes hundreds of times, and the divisions are a
  /// pure function of (shape, weight fraction) for fixed caps — so
  /// identical inputs reproduce identical doubles and the cached result
  /// *is* the computed result. N is the post-floor, pre-request-cap
  /// share. Bounded small; pathological all-distinct queues fall back
  /// to computing.
  struct BaseDiv {
    uint64_t WGThreads = 0;
    uint64_t LocalMemPerWG = 0;
    uint64_t RegsPerThread = 0;
    double Frac = 0;
    uint64_t N = 0;
    bool Floored = false;
  };
  std::vector<BaseDiv> BaseCache;
  /// Clamp-pass shape classes. Every clamp candidate is a floored
  /// one-work-group share, so its freed footprint and its demand in the
  /// tie-break dimension are functions of its kernel shape alone; the
  /// bounded bin-covering search then runs over shape *combinations*
  /// (S^2 / S^3 for S distinct shapes) instead of candidate subsets
  /// (C^2 / C^3), with the winning combination re-materialized as its
  /// lexicographically first concrete candidate set — exactly the set
  /// the reference scan lands on.
  struct ShapeClass {
    uint64_t Freed[4] = {0, 0, 0, 0}; ///< One floored WG's footprint.
    uint32_t Count = 0;               ///< Candidates of this shape.
    /// Three smallest candidate indices; the first names the shape.
    uint32_t Idx[3] = {0, 0, 0};
  };
  std::vector<ShapeClass> Shapes;
};

/// Allocation-free solve: the one every scheduler runs. Produces the
/// same share vector as the reference overload for the same inputs —
/// every integer comparison is against the same exactly-maintained
/// aggregate sums the reference recomputes, so the decision sequence is
/// bit-identical (asserted by the schedulers' SelfCheck mode and the
/// solver differential tests). Working storage lives in \p Scratch and
/// the result is written into \p Shares, both reused across calls.
void solveFairShares(const ResourceCaps &Caps,
                     const std::vector<KernelDemand> &Ks,
                     const SolverOptions &Opts, SolverScratch &Scratch,
                     std::vector<uint64_t> &Shares);

/// Launch-time floor for a solved share. Historically every zero share
/// was floored to one work group at launch; clamp-shed requests are now
/// *deferred* to a later scheduling round instead (see
/// accelos::RoundScheduler), so the only remaining caller is soloShare,
/// where a request whose single work group exceeds even the empty device
/// must still execute (serialized by the execution layer) rather than
/// silently losing its work.
inline uint64_t launchWGs(uint64_t Share) { return Share ? Share : 1; }

/// \returns how many work groups of \p D fit into \p Free.
inline uint64_t fittingWGs(const ResourceCaps &Free, const KernelDemand &D) {
  ResourceUse PerWG = footprintOf(D, 1);
  assert(PerWG.Threads > 0 && "zero-thread work group");
  uint64_t Fit = Free.Threads / PerWG.Threads;
  if (PerWG.LocalMem)
    Fit = std::min(Fit, Free.LocalMem / PerWG.LocalMem);
  if (PerWG.Regs)
    Fit = std::min(Fit, Free.Regs / PerWG.Regs);
  return std::min(Fit, Free.WGSlots);
}

/// The share a request receives with the device \p Caps to itself:
/// every requested work group that fits, floored by launchWGs. For any
/// positive weight this is launchWGs(solveFairShares(Caps, {D}, Opts)[0])
/// under either saturation setting, without the solve: a lone request's
/// weight fraction is exactly 1, so its base division is
/// fittingWGs(Caps, D) and saturation has nothing left to grow. Serves
/// every solo grant (the schedulers' anti-starvation and idle-device
/// rescues) and the harness's isolated-duration launches.
inline uint64_t soloShare(const ResourceCaps &Caps, const KernelDemand &D) {
  return launchWGs(std::min(D.RequestedWGs, fittingWGs(Caps, D)));
}

} // namespace accelos
} // namespace accel

#endif // ACCEL_ACCELOS_RESOURCESOLVER_H
