//===- accelos/ResourceSolver.cpp - Fair resource sharing -------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "accelos/ResourceSolver.h"

#include "sim/DeviceSpec.h"

#include <algorithm>
#include <cassert>

using namespace accel;
using namespace accel::accelos;

ResourceCaps ResourceCaps::fromDevice(const sim::DeviceSpec &Spec) {
  ResourceCaps Caps;
  Caps.Threads = Spec.totalThreads();
  Caps.LocalMem = Spec.totalLocalMem();
  Caps.Regs = Spec.totalRegs();
  Caps.WGSlots = Spec.totalWGSlots();
  return Caps;
}

namespace {

/// \returns true when assigning \p Shares stays within \p Caps.
bool fits(const ResourceCaps &Caps, const std::vector<KernelDemand> &Ks,
          const std::vector<uint64_t> &Shares) {
  uint64_t Threads = 0, Local = 0, Regs = 0, Slots = 0;
  for (size_t I = 0; I != Ks.size(); ++I) {
    ResourceUse Use = footprintOf(Ks[I], Shares[I]);
    Threads += Use.Threads;
    Local += Use.LocalMem;
    Regs += Use.Regs;
    Slots += Use.WGSlots;
  }
  return Threads <= Caps.Threads && Local <= Caps.LocalMem &&
         Regs <= Caps.Regs && Slots <= Caps.WGSlots;
}

/// The Sec. 3 base division of kernel \p D holding fraction \p Frac of
/// every resource: the tightest of x_i, y_i, z_i and its share of the
/// work-group slots, floored to one work group (\p Floored reports
/// whether the floor fired). The pure divisions always fit in aggregate
/// (each is a floor of the kernel's exact fractional entitlement), so
/// only the floor can oversubscribe. The request cap is the caller's.
uint64_t baseDivision(const ResourceCaps &Caps, const KernelDemand &D,
                      double Frac, bool &Floored) {
  assert(D.WGThreads > 0 && "zero-thread work group");
  uint64_t X = static_cast<uint64_t>(static_cast<double>(Caps.Threads) *
                                     Frac /
                                     static_cast<double>(D.WGThreads));
  uint64_t Y =
      D.LocalMemPerWG
          ? static_cast<uint64_t>(static_cast<double>(Caps.LocalMem) *
                                  Frac /
                                  static_cast<double>(D.LocalMemPerWG))
          : UINT64_MAX;
  uint64_t RegsPerWG = D.WGThreads * D.RegsPerThread;
  uint64_t Z = RegsPerWG
                   ? static_cast<uint64_t>(
                         static_cast<double>(Caps.Regs) * Frac /
                         static_cast<double>(RegsPerWG))
                   : UINT64_MAX;
  uint64_t SlotShare =
      static_cast<uint64_t>(static_cast<double>(Caps.WGSlots) * Frac);
  uint64_t N = std::min(std::min(X, Y), std::min(Z, SlotShare));
  Floored = N == 0;
  return Floored ? 1 : N;
}

/// \returns the dimension (threads, local memory, registers, slots)
/// with the largest use-to-capacity ratio.
unsigned mostOversubscribed(const uint64_t (&Use)[4],
                            const uint64_t (&Cap)[4]) {
  unsigned Dim = 0;
  double WorstRatio = 0;
  for (unsigned D = 0; D != 4; ++D) {
    double Ratio = static_cast<double>(Use[D]) /
                   static_cast<double>(std::max<uint64_t>(Cap[D], 1));
    if (Ratio > WorstRatio) {
      WorstRatio = Ratio;
      Dim = D;
    }
  }
  return Dim;
}

/// \returns one work group of \p D's demand in dimension \p Dim (the
/// clamp's tie-break toward the largest contributor).
uint64_t demandIn(const KernelDemand &D, unsigned Dim) {
  switch (Dim) {
  case 0:
    return D.WGThreads;
  case 1:
    return D.LocalMemPerWG;
  case 2:
    return D.WGThreads * D.RegsPerThread;
  default:
    return 1;
  }
}

/// \returns true when every work-carrying kernel has the same weight.
/// A zero-work request neither takes a share nor may its (arbitrary)
/// weight flip the solve onto the weighted saturation path.
bool equalWeights(const std::vector<KernelDemand> &Ks) {
  const KernelDemand *Ref = nullptr;
  for (const KernelDemand &D : Ks) {
    if (D.RequestedWGs == 0)
      continue;
    if (!Ref)
      Ref = &D;
    else if (D.Weight != Ref->Weight)
      return false;
  }
  return true;
}

} // namespace

std::vector<uint64_t>
accelos::solveFairShares(const ResourceCaps &Caps,
                         const std::vector<KernelDemand> &Ks,
                         const SolverOptions &Opts) {
  assert(!Ks.empty() && "solver needs at least one kernel");
  size_t K = Ks.size();

  // Kernels that request no work groups take no share and are excluded
  // from the fairness divisor: an idle tenant must not dilute the
  // shares of the active ones.
  double TotalWeight = 0;
  for (const KernelDemand &D : Ks)
    if (D.RequestedWGs > 0)
      TotalWeight += D.Weight;

  std::vector<uint64_t> Shares(K, 0);
  if (TotalWeight <= 0)
    return Shares;

  // Each kernel's fraction of every resource; equal sharing (paper
  // default) corresponds to Weight == 1 for all kernels, giving the
  // exact Sec. 3 divisors of K. Remember who was floored so the clamp
  // pass can revert exactly those.
  std::vector<bool> Floored(K, false);
  for (size_t I = 0; I != K; ++I) {
    const KernelDemand &D = Ks[I];
    if (D.RequestedWGs == 0)
      continue;
    bool Fl = false;
    Shares[I] = std::min(baseDivision(Caps, D, D.Weight / TotalWeight, Fl),
                         D.RequestedWGs);
    Floored[I] = Fl;
  }

  // Clamp pass: the minimum-share floor can push the base allocation
  // past the caps (e.g. more kernels than can physically co-exist).
  // Revert floors until the allocation fits again, each time targeting
  // the most-oversubscribed resource and the floored kernel that
  // contributes most to it, so kernels that are not part of the
  // violation keep their work group.
  const uint64_t Cap[4] = {Caps.Threads, Caps.LocalMem, Caps.Regs,
                           Caps.WGSlots};
  while (!fits(Caps, Ks, Shares)) {
    uint64_t Use[4] = {0, 0, 0, 0};
    for (size_t I = 0; I != K; ++I) {
      ResourceUse U = footprintOf(Ks[I], Shares[I]);
      Use[0] += U.Threads;
      Use[1] += U.LocalMem;
      Use[2] += U.Regs;
      Use[3] += U.WGSlots;
    }
    const unsigned Dim = mostOversubscribed(Use, Cap);
    // Victim selection: prefer a floored kernel whose reversion
    // *alone* restores feasibility — the fewest-reverts choice — and
    // break ties toward the largest contributor to the
    // most-oversubscribed resource (the previous heuristic, which
    // remains optimal when the largest contributor is also a
    // single-revert fix). When no single reversion suffices, the
    // bounded multi-revert search below takes over before this
    // fallback fires.
    size_t Victim = K;
    bool VictimRestores = false;
    for (size_t I = 0; I != K; ++I) {
      if (!Floored[I] || Shares[I] == 0)
        continue;
      uint64_t Saved = Shares[I];
      Shares[I] = 0;
      bool Restores = fits(Caps, Ks, Shares);
      Shares[I] = Saved;
      if (Victim == K || (Restores && !VictimRestores) ||
          (Restores == VictimRestores &&
           demandIn(Ks[I], Dim) >= demandIn(Ks[Victim], Dim))) {
        Victim = I;
        VictimRestores = Restores;
      }
    }
    if (Victim == K) {
      // No floor left to revert; cannot happen for well-formed demands
      // (the floorless allocation fits by construction), but stay
      // defensive: shed proportionally in ONE pass instead of one work
      // group at a time (which is O(total shares)). Scaling every
      // share by the tightest cap/use ratio fits all four dimensions
      // at once: sum(floor(S_i*F)*d_i) <= F*Use_D <= Cap_D for the
      // binding dimension, and non-binding dimensions only improve.
      double F = 1.0;
      for (unsigned D = 0; D != 4; ++D)
        if (Use[D] > Cap[D])
          F = std::min(F, static_cast<double>(Cap[D]) /
                              static_cast<double>(Use[D]));
      bool Any = false;
      for (size_t I = 0; I != K; ++I) {
        uint64_t S = static_cast<uint64_t>(
            static_cast<double>(Shares[I]) * F);
        if (S != Shares[I]) {
          Shares[I] = S;
          Any = true;
        }
      }
      if (!Any)
        break; // Nothing left to shed; give up rather than loop.
      continue;
    }
    if (!VictimRestores) {
      // Bounded bin-covering search (the ROADMAP follow-up to the
      // single-revert preference): no single floor reversion restores
      // feasibility, so search the floored kernels for the smallest
      // revert set — pairs, then triples — whose joint reversion does.
      // Every floored share is exactly one work group, so the smallest
      // set is the revert choice minimizing shed WGs; the iterative
      // largest-contributor fallback can overshoot by one when the
      // violated dimensions alternate (shed the thread hog, then the
      // local-memory hog, then a third kernel, where one balanced pair
      // would have covered both dimensions). Ties between same-size
      // sets go to the largest total demand in the most-oversubscribed
      // dimension (the existing heuristic's preference), then to the
      // earliest candidates — deterministic either way. The search is
      // bounded twice over: subsets of size <= 3 only, and skipped
      // entirely past a candidate-count cap so clamp time cannot blow
      // up cubically on a pathological queue.
      std::vector<size_t> Cands;
      for (size_t I = 0; I != K; ++I)
        if (Floored[I] && Shares[I] != 0)
          Cands.push_back(I);
      auto Restores = [&](std::initializer_list<size_t> Set) {
        uint64_t Freed[4] = {0, 0, 0, 0};
        for (size_t I : Set) {
          ResourceUse U = footprintOf(Ks[I], Shares[I]);
          Freed[0] += U.Threads;
          Freed[1] += U.LocalMem;
          Freed[2] += U.Regs;
          Freed[3] += U.WGSlots;
        }
        for (unsigned D = 0; D != 4; ++D)
          if (Use[D] - Freed[D] > Cap[D])
            return false;
        return true;
      };
      auto DemandSum = [&](std::initializer_list<size_t> Set) {
        uint64_t Sum = 0;
        for (size_t I : Set)
          Sum += demandIn(Ks[I], Dim);
        return Sum;
      };
      constexpr size_t PairCap = 256, TripleCap = 48;
      std::vector<size_t> Best;
      uint64_t BestDemand = 0;
      if (Cands.size() <= PairCap) {
        for (size_t X = 0; X != Cands.size(); ++X)
          for (size_t Y = X + 1; Y != Cands.size(); ++Y) {
            size_t A = Cands[X], B = Cands[Y];
            if (!Restores({A, B}))
              continue;
            uint64_t D = DemandSum({A, B});
            if (Best.empty() || D > BestDemand) {
              Best = {A, B};
              BestDemand = D;
            }
          }
      }
      if (Best.empty() && Cands.size() <= TripleCap) {
        for (size_t X = 0; X != Cands.size(); ++X)
          for (size_t Y = X + 1; Y != Cands.size(); ++Y)
            for (size_t Z = Y + 1; Z != Cands.size(); ++Z) {
              size_t A = Cands[X], B = Cands[Y], C = Cands[Z];
              if (!Restores({A, B, C}))
                continue;
              uint64_t D = DemandSum({A, B, C});
              if (Best.empty() || D > BestDemand) {
                Best = {A, B, C};
                BestDemand = D;
              }
            }
      }
      if (!Best.empty()) {
        for (size_t I : Best)
          Shares[I] = 0;
        continue; // fits() holds now; the loop exits.
      }
    }
    Shares[Victim] = 0;
  }

  if (!Opts.GreedySaturation)
    return Shares;

  if (equalWeights(Ks)) {
    // Greedy saturation (Sec. 3): grow shares round-robin until no
    // kernel can take another work group.
    for (bool Progress = true; Progress;) {
      Progress = false;
      for (size_t I = 0; I != K; ++I) {
        if (Shares[I] >= Ks[I].RequestedWGs)
          continue;
        ++Shares[I];
        if (fits(Caps, Ks, Shares))
          Progress = true;
        else
          --Shares[I];
      }
    }
    return Shares;
  }

  // Weighted saturation (Sec. 2.2 non-equal sharing ratios): plain
  // round-robin would hand every kernel the same number of extra work
  // groups and wash the weights out of the final allocation exactly
  // when they matter most — under contention, where the base divisions
  // are a small fraction of what saturation hands out. Instead run
  // weighted max-min filling: always grow the unsaturated kernel with
  // the smallest weight-normalized share (ties to the lower index, so
  // the result is deterministic), until nothing fits. Equal weights
  // reduce to the round-robin above, which is kept verbatim so the
  // paper-default allocations stay bit-identical.
  std::vector<bool> Saturated(K, false);
  for (;;) {
    size_t Next = K;
    double NextNorm = 0;
    for (size_t I = 0; I != K; ++I) {
      if (Saturated[I] || Shares[I] >= Ks[I].RequestedWGs)
        continue;
      double Norm = static_cast<double>(Shares[I]) / Ks[I].Weight;
      if (Next == K || Norm < NextNorm) {
        Next = I;
        NextNorm = Norm;
      }
    }
    if (Next == K)
      break;
    ++Shares[Next];
    if (!fits(Caps, Ks, Shares)) {
      --Shares[Next];
      Saturated[Next] = true;
    }
  }
  return Shares;
}

//===----------------------------------------------------------------------===//
// Allocation-free overload (the admission hot path)
//===----------------------------------------------------------------------===//
//
// Mirrors the allocating solve above decision for decision. Wherever
// the reference recomputes an O(K) footprint sum (the clamp's fits()
// checks, the saturation probes), this body compares against the same
// sums maintained incrementally — exact integer adds and subtracts of
// the same footprints, so every branch sees the same values. The
// differential tests and the schedulers' SelfCheck mode assert the
// share vectors match the reference bit for bit.

void accelos::solveFairShares(const ResourceCaps &Caps,
                              const std::vector<KernelDemand> &Ks,
                              const SolverOptions &Opts,
                              SolverScratch &S,
                              std::vector<uint64_t> &Shares) {
  assert(!Ks.empty() && "solver needs at least one kernel");
  size_t K = Ks.size();

  double TotalWeight = 0;
  for (const KernelDemand &D : Ks)
    if (D.RequestedWGs > 0)
      TotalWeight += D.Weight;

  Shares.assign(K, 0);
  if (TotalWeight <= 0)
    return;

  const uint64_t Cap[4] = {Caps.Threads, Caps.LocalMem, Caps.Regs,
                           Caps.WGSlots};
  // Aggregate footprint of the current assignment, maintained through
  // every phase below.
  uint64_t Use[4] = {0, 0, 0, 0};
  auto AddShare = [&](size_t I, uint64_t WGs) {
    const KernelDemand &D = Ks[I];
    Use[0] += WGs * D.WGThreads;
    Use[1] += WGs * D.LocalMemPerWG;
    Use[2] += WGs * D.WGThreads * D.RegsPerThread;
    Use[3] += WGs;
  };
  auto DropShare = [&](size_t I) {
    const KernelDemand &D = Ks[I];
    uint64_t WGs = Shares[I];
    Use[0] -= WGs * D.WGThreads;
    Use[1] -= WGs * D.LocalMemPerWG;
    Use[2] -= WGs * D.WGThreads * D.RegsPerThread;
    Use[3] -= WGs;
    Shares[I] = 0;
  };
  auto FitsAgg = [&]() {
    return Use[0] <= Cap[0] && Use[1] <= Cap[1] && Use[2] <= Cap[2] &&
           Use[3] <= Cap[3];
  };

  S.Floored.assign(K, 0);
  S.BaseCache.clear();
  for (size_t I = 0; I != K; ++I) {
    const KernelDemand &D = Ks[I];
    if (D.RequestedWGs == 0)
      continue;
    double Frac = D.Weight / TotalWeight;

    uint64_t N = 0;
    bool Fl = false;
    bool Hit = false;
    for (const SolverScratch::BaseDiv &C : S.BaseCache)
      if (C.WGThreads == D.WGThreads &&
          C.LocalMemPerWG == D.LocalMemPerWG &&
          C.RegsPerThread == D.RegsPerThread && C.Frac == Frac) {
        N = C.N;
        Fl = C.Floored;
        Hit = true;
        break;
      }
    if (!Hit) {
      N = baseDivision(Caps, D, Frac, Fl);
      if (S.BaseCache.size() < 16)
        S.BaseCache.push_back(
            {D.WGThreads, D.LocalMemPerWG, D.RegsPerThread, Frac, N, Fl});
    }
    S.Floored[I] = Fl;
    Shares[I] = std::min(N, D.RequestedWGs);
    AddShare(I, Shares[I]);
  }

  // Clamp pass, against the maintained aggregate. Per-candidate "does
  // reverting this floor alone restore feasibility" is four subtract-
  // and-compare operations instead of the reference's O(K) fits().
  while (!FitsAgg()) {
    const unsigned Dim = mostOversubscribed(Use, Cap);
    auto RestoresSet = [&](std::initializer_list<size_t> Set) {
      uint64_t Freed[4] = {0, 0, 0, 0};
      for (size_t I : Set) {
        ResourceUse U = footprintOf(Ks[I], Shares[I]);
        Freed[0] += U.Threads;
        Freed[1] += U.LocalMem;
        Freed[2] += U.Regs;
        Freed[3] += U.WGSlots;
      }
      for (unsigned D = 0; D != 4; ++D)
        if (Use[D] - Freed[D] > Cap[D])
          return false;
      return true;
    };
    size_t Victim = K;
    bool VictimRestores = false;
    for (size_t I = 0; I != K; ++I) {
      if (!S.Floored[I] || Shares[I] == 0)
        continue;
      bool Restores = RestoresSet({I});
      if (Victim == K || (Restores && !VictimRestores) ||
          (Restores == VictimRestores &&
           demandIn(Ks[I], Dim) >= demandIn(Ks[Victim], Dim))) {
        Victim = I;
        VictimRestores = Restores;
      }
    }
    if (Victim == K) {
      double F = 1.0;
      for (unsigned D = 0; D != 4; ++D)
        if (Use[D] > Cap[D])
          F = std::min(F, static_cast<double>(Cap[D]) /
                              static_cast<double>(Use[D]));
      bool Any = false;
      for (size_t I = 0; I != K; ++I) {
        uint64_t Sh = static_cast<uint64_t>(
            static_cast<double>(Shares[I]) * F);
        if (Sh != Shares[I]) {
          DropShare(I);
          Shares[I] = Sh;
          AddShare(I, Sh);
          Any = true;
        }
      }
      if (!Any)
        break;
      continue;
    }
    if (!VictimRestores) {
      // The reference's bounded bin-covering search, collapsed onto
      // shape classes (see SolverScratch::ShapeClass). The reference
      // replaces its running best only on strictly larger demand, so
      // its winner is the lexicographically first max-demand restoring
      // set in scan order; every member of a shape combination shares
      // one demand and one restores-verdict, so picking the max-demand
      // restoring combination and re-materializing its lex-first
      // realization (the required number of smallest candidate indices
      // per shape, sorted — elementwise minimal) reproduces that
      // winner exactly.
      S.Shapes.clear();
      size_t NumCands = 0;
      for (size_t I = 0; I != K; ++I) {
        if (!S.Floored[I] || Shares[I] == 0)
          continue;
        assert(Shares[I] == 1 && "floored clamp candidate above one WG");
        ++NumCands;
        const KernelDemand &D = Ks[I];
        SolverScratch::ShapeClass *C = nullptr;
        for (auto &Sh : S.Shapes) {
          const KernelDemand &First = Ks[Sh.Idx[0]];
          if (First.WGThreads == D.WGThreads &&
              First.LocalMemPerWG == D.LocalMemPerWG &&
              First.RegsPerThread == D.RegsPerThread) {
            C = &Sh;
            break;
          }
        }
        if (!C) {
          S.Shapes.push_back({});
          C = &S.Shapes.back();
          C->Freed[0] = D.WGThreads;
          C->Freed[1] = D.LocalMemPerWG;
          C->Freed[2] = D.WGThreads * D.RegsPerThread;
          C->Freed[3] = 1;
        }
        if (C->Count < 3)
          C->Idx[C->Count] = static_cast<uint32_t>(I);
        ++C->Count;
      }
      auto ShapeDemand = [&](const SolverScratch::ShapeClass &Sh) {
        return demandIn(Ks[Sh.Idx[0]], Dim);
      };
      auto ComboRestores = [&](const SolverScratch::ShapeClass *const *Set,
                               size_t N) {
        uint64_t Freed[4] = {0, 0, 0, 0};
        for (size_t I = 0; I != N; ++I)
          for (unsigned D = 0; D != 4; ++D)
            Freed[D] += Set[I]->Freed[D];
        for (unsigned D = 0; D != 4; ++D)
          if (Use[D] - Freed[D] > Cap[D])
            return false;
        return true;
      };
      auto Materialize = [&](const SolverScratch::ShapeClass *const *Set,
                             size_t N, uint32_t *Out) {
        for (size_t A = 0; A != N; ++A) {
          size_t Taken = 0;
          for (size_t B = 0; B != A; ++B)
            if (Set[B] == Set[A])
              ++Taken;
          Out[A] = Set[A]->Idx[Taken];
        }
        std::sort(Out, Out + N);
      };
      auto LexBefore = [](const uint32_t *A, const uint32_t *B, size_t N) {
        for (size_t I = 0; I != N; ++I)
          if (A[I] != B[I])
            return A[I] < B[I];
        return false;
      };
      constexpr size_t PairCap = 256, TripleCap = 48;
      size_t BestN = 0;
      uint32_t BestIdx[3] = {0, 0, 0};
      uint64_t BestDemand = 0;
      const size_t NumShapes = S.Shapes.size();
      if (NumCands <= PairCap) {
        for (size_t X = 0; X != NumShapes; ++X)
          for (size_t Y = X; Y != NumShapes; ++Y) {
            const SolverScratch::ShapeClass *Set[2] = {&S.Shapes[X],
                                                       &S.Shapes[Y]};
            if (X == Y && Set[0]->Count < 2)
              continue;
            if (!ComboRestores(Set, 2))
              continue;
            uint64_t D = ShapeDemand(*Set[0]) + ShapeDemand(*Set[1]);
            if (BestN && D < BestDemand)
              continue;
            uint32_t Idx[3];
            Materialize(Set, 2, Idx);
            if (!BestN || D > BestDemand || LexBefore(Idx, BestIdx, 2)) {
              BestN = 2;
              BestIdx[0] = Idx[0];
              BestIdx[1] = Idx[1];
              BestDemand = D;
            }
          }
      }
      if (!BestN && NumCands <= TripleCap) {
        for (size_t X = 0; X != NumShapes; ++X)
          for (size_t Y = X; Y != NumShapes; ++Y)
            for (size_t Z = Y; Z != NumShapes; ++Z) {
              const SolverScratch::ShapeClass *Set[3] = {
                  &S.Shapes[X], &S.Shapes[Y], &S.Shapes[Z]};
              // Multiplicity check per distinct shape in the combo.
              bool Realizable = true;
              for (size_t A = 0; A != 3 && Realizable; ++A) {
                uint32_t Mult = 0;
                for (size_t B = 0; B != 3; ++B)
                  if (Set[B] == Set[A])
                    ++Mult;
                Realizable = Set[A]->Count >= Mult;
              }
              if (!Realizable)
                continue;
              if (!ComboRestores(Set, 3))
                continue;
              uint64_t D = ShapeDemand(*Set[0]) + ShapeDemand(*Set[1]) +
                           ShapeDemand(*Set[2]);
              if (BestN && D < BestDemand)
                continue;
              uint32_t Idx[3];
              Materialize(Set, 3, Idx);
              if (!BestN || D > BestDemand ||
                  LexBefore(Idx, BestIdx, 3)) {
                BestN = 3;
                BestIdx[0] = Idx[0];
                BestIdx[1] = Idx[1];
                BestIdx[2] = Idx[2];
                BestDemand = D;
              }
            }
      }
      if (BestN) {
        for (size_t I = 0; I != BestN; ++I)
          DropShare(BestIdx[I]);
        continue;
      }
    }
    DropShare(Victim);
  }

  if (!Opts.GreedySaturation)
    return;

  // Saturation against the maintained aggregate: each +1 probe is a
  // four-compare O(1) check instead of the reference loop's O(K)
  // fits() re-sum. Capacity only shrinks while shares grow, so a kernel
  // whose probe fails once is saturated for good and drops out of the
  // sweep — the reference probes it again each sweep only to fail
  // again, so the decision sequence is the same.
  auto ProbeGrow = [&](size_t I) {
    const KernelDemand &D = Ks[I];
    const uint64_t PerWG[4] = {D.WGThreads, D.LocalMemPerWG,
                               D.WGThreads * D.RegsPerThread, 1};
    for (unsigned Dim = 0; Dim != 4; ++Dim)
      if (Use[Dim] + PerWG[Dim] > Cap[Dim])
        return false;
    for (unsigned Dim = 0; Dim != 4; ++Dim)
      Use[Dim] += PerWG[Dim];
    ++Shares[I];
    return true;
  };

  if (equalWeights(Ks)) {
    // Round-robin growth with the unsaturated set compacted in place:
    // each sweep touches only still-active kernels, in index order —
    // the probe sequence the reference loop produces by scanning and
    // skipping.
    S.Active.clear();
    for (size_t I = 0; I != K; ++I)
      if (Shares[I] < Ks[I].RequestedWGs)
        S.Active.push_back(static_cast<uint32_t>(I));
    while (!S.Active.empty()) {
      size_t Out = 0;
      for (uint32_t I : S.Active)
        if (ProbeGrow(I) && Shares[I] < Ks[I].RequestedWGs)
          S.Active[Out++] = I;
      S.Active.resize(Out);
    }
    return;
  }

  S.Saturated.assign(K, 0);
  for (;;) {
    size_t Next = K;
    double NextNorm = 0;
    for (size_t I = 0; I != K; ++I) {
      if (S.Saturated[I] || Shares[I] >= Ks[I].RequestedWGs)
        continue;
      double Norm = static_cast<double>(Shares[I]) / Ks[I].Weight;
      if (Next == K || Norm < NextNorm) {
        Next = I;
        NextNorm = Norm;
      }
    }
    if (Next == K)
      break;
    if (!ProbeGrow(Next))
      S.Saturated[Next] = 1;
  }
}
