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
/// search over candidate subsets, not shapes. The schedulers run
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
  /// Unsaturated kernels: the equal-weight sweep list in index order,
  /// or the weighted saturation's min-heap over (Norm, index).
  std::vector<uint32_t> Active;
  std::vector<double> Norm; ///< Weighted saturation: Shares / Weight.
  /// The solve's shape table, one entry per distinct kernel shape,
  /// rebuilt per solve: every work-carrying kernel is filed once under
  /// its one-work-group footprint (threads, local memory, registers),
  /// and the entry serves both the base division and the clamp.
  ///
  /// Base division. The Sec. 3 division is a pure function of the
  /// footprint and the weight fraction, and within one solve the
  /// fraction is Weight / (the solve's total weight), so the entry
  /// keeps the division of the last Weight it served and recomputes it
  /// only when a kernel of its shape brings a different Weight. Under
  /// equal weights that is one division per shape; a queue whose
  /// tenants of different weights share a shape pays one division each
  /// time the weight changes along the queue (at worst one per kernel,
  /// as bench/micro_overheads' BM_ResourceSolverDeepQueueWeighted
  /// measures). N is the post-floor, pre-request-cap share.
  ///
  /// Clamp. Only floored kernels (clamp candidates, each holding
  /// exactly one work group) join the entry's candidate chain, so no
  /// clamp iteration rescans the queue; an entry whose kernels all
  /// clear the floor stays empty and the clamp skips it. Both parts of
  /// the reference's victim key — whether reverting a candidate alone
  /// restores feasibility, and its demand in the most-oversubscribed
  /// dimension — are functions of its footprint. The reference takes
  /// the *last* index with the largest key, so its victim is the
  /// largest remaining index of the entry with the largest (restores,
  /// demand, largest remaining index): a pick over S shapes instead of
  /// K kernels, which table order cannot sway. Victims leave from the
  /// top of their chain (Last, then Link), so the three smallest
  /// indices stay valid for as long as the entry holds them. The
  /// bounded bin-covering search runs over shape *combinations* (S^2 /
  /// S^3) instead of candidate subsets (C^2 / C^3), with the winning
  /// combination re-materialized as its lexicographically first
  /// concrete candidate set — exactly the set the reference scan lands
  /// on.
  struct Shape {
    uint64_t Freed[4] = {0, 0, 0, 0}; ///< One WG's footprint (the key).
    double Weight = 0; ///< Weight the cached division was made for.
    uint64_t N = 0;    ///< That division's share.
    bool Floored = false; ///< Whether the one-WG floor fired for it.
    uint32_t Count = 0;          ///< Candidates still floored.
    uint32_t Idx[3] = {0, 0, 0}; ///< Three smallest candidates.
    uint32_t Last = 0; ///< Largest remaining candidate (Count > 0).
  };
  std::vector<Shape> Shapes;
  /// Per kernel: the next-smaller candidate of its shape, so a victim
  /// leaves its chain in O(1).
  std::vector<uint32_t> Link;
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
