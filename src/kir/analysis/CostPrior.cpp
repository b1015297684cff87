//===- kir/analysis/CostPrior.cpp - Static work estimation ------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "kir/analysis/CostPrior.h"

#include "kir/Module.h"
#include "kir/analysis/Cfg.h"
#include "kir/analysis/Intervals.h"
#include "kir/analysis/Uniformity.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

using namespace accel;
using namespace accel::kir;
using namespace accel::kir::analysis;

namespace {

/// The prior's weights, in the synthetic thread-cycle unit the workload
/// suite's cost profiles use. Calibrated against the Parboil-like suite
/// (tests/AnalysisTests.cpp keeps every kernel within 3x).
namespace Weight {
constexpr double Alu = 1.0;
/// sin/cos/exp/log (polynomial expansion).
constexpr double MathTrans = 2000.0;
constexpr double MathDiv = 40.0;    ///< div/rem/sqrt by a non-constant.
constexpr double PrivateMem = 1.0;  ///< Alloca traffic (register-like).
constexpr double LocalMem = 4.0;    ///< Work-group scratchpad access.
/// Latency-bound load of a shared table: every lane waits on the same
/// DRAM line, so nothing amortises the round trip.
constexpr double GlobalUniform = 400.0;
/// Id-affine streaming access: one line serves the whole work group,
/// so latency amortises across the lanes.
constexpr double GlobalCoalesced = 300.0;
constexpr double GlobalGather = 850.0; ///< Data-dependent scatter/gather.
/// Access whose index is wrapped by a small constant modulus/mask:
/// the working set fits in cache, so reuse makes it nearly free.
constexpr double CacheResident = 40.0;
/// Global stores cost this fraction of the matching load class
/// (write-combining hides the latency half).
constexpr double StoreFactor = 0.5;
constexpr double AtomicGlobal = 900.0;
constexpr double AtomicLocal = 700.0; ///< Scratchpad atomics still serialise.
constexpr double BarrierCost = 40.0;
constexpr double CallOverhead = 20.0; ///< Added on top of the callee's body.
/// Default trip counts by loop-bound provenance when no numeric bound
/// is derivable. Deliberately small: under-estimating an unknown loop
/// biases the cold-start scheduler toward trying the kernel early,
/// and the prior self-corrects after the first measurement.
constexpr double TripArgument = 8.0; ///< Bound chases to a kernel argument.
constexpr double TripWorkItem = 8.0; ///< Bound derived from work-item ids.
constexpr double TripData = 3.0;     ///< Bound loaded from memory.
constexpr double TripFallback = 16.0; ///< Structure unrecognised (diagnosed).
/// Assumed work-group size for get_local_size()-strided loops.
constexpr double StrideWGSize = 128.0;
/// Floor per work item: launch, drain and fixed-issue overhead that
/// even a two-instruction kernel pays.
constexpr double MinPerItem = 1100.0;
constexpr double MaxTripCount = 1u << 20; ///< Clamp for derived trip counts.
/// Largest modulus/mask constant still considered cache-resident.
constexpr double CacheWindow = 65536.0;
} // namespace Weight

//===----------------------------------------------------------------------===//
// Expression provenance
//===----------------------------------------------------------------------===//

/// What flows into an integer expression; drives both the coalescing
/// classification of divergent addresses and the loop-bound classes.
struct Provenance {
  bool SeesData = false;      ///< Loaded from global/local memory.
  bool SeesId = false;        ///< Work-item id builtins.
  bool SeesArgument = false;  ///< Kernel arguments.
  bool SeesLocalSize = false; ///< get_local_size/get_num_groups class.
  bool NonAffine = false;     ///< Divergence passed through mul/div/rem/...

  void merge(const Provenance &O) {
    SeesData |= O.SeesData;
    SeesId |= O.SeesId;
    SeesArgument |= O.SeesArgument;
    SeesLocalSize |= O.SeesLocalSize;
    NonAffine |= O.NonAffine;
  }
};

const AllocaInst *asDirectAlloca(const Value *Ptr) {
  return dyn_cast<AllocaInst>(Ptr);
}

const Value *stripCasts(const Value *V) {
  while (const auto *C = dyn_cast<CastInst>(V))
    V = C->src();
  return V;
}

/// Walks the expression DAG behind \p V, chasing loads of private
/// allocas into every value stored to them. Cycles (induction updates)
/// resolve optimistically.
class ProvenanceScanner {
public:
  ProvenanceScanner(const Function &F, const UniformityAnalysis &UA)
      : UA(UA) {
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        if (const auto *St = dyn_cast<StoreInst>(I.get()))
          if (const AllocaInst *A = asDirectAlloca(St->pointer()))
            StoredValues[A].push_back(St->value());
  }

  Provenance scan(const Value *V) {
    std::set<const Value *> Visiting;
    return scanImpl(V, Visiting, 0);
  }

  /// True when every divergent contribution to \p V is an id plus
  /// uniform terms — neighbouring work items touch neighbouring
  /// addresses (a coalesced access).
  bool isIdAffine(const Value *V) {
    Provenance P = scan(V);
    return !P.NonAffine;
  }

private:
  Provenance scanImpl(const Value *V, std::set<const Value *> &Visiting,
                      unsigned Depth) {
    if (Depth > 48 || !Visiting.insert(V).second)
      return {};
    auto Done = [&](Provenance P) {
      Visiting.erase(V);
      return P;
    };

    if (isa<Constant>(V))
      return Done({});
    if (isa<Argument>(V)) {
      Provenance P;
      P.SeesArgument = true;
      return Done(P);
    }
    const auto *I = dyn_cast<Instruction>(V);
    if (!I)
      return Done({});

    switch (I->instKind()) {
    case InstKind::Cast:
      return Done(scanImpl(cast<CastInst>(*I).src(), Visiting, Depth + 1));
    case InstKind::Binary: {
      const auto &B = cast<BinaryInst>(*I);
      Provenance L = scanImpl(B.lhs(), Visiting, Depth + 1);
      Provenance R = scanImpl(B.rhs(), Visiting, Depth + 1);
      Provenance P = L;
      P.merge(R);
      switch (B.op()) {
      case BinOpKind::Add:
      case BinOpKind::Sub:
        break; // Affine-preserving.
      default:
        // Scaling/dividing/wrapping a divergent index by a *uniform*
        // amount keeps neighbouring lanes clustered (a stride change, a
        // collapse, or a window wrap). Combining two divergent values
        // through anything but +/- scatters them.
        if (UA.isDivergent(B.lhs()) && UA.isDivergent(B.rhs()))
          P.NonAffine = true;
        break;
      }
      return Done(P);
    }
    case InstKind::Select: {
      const auto &S = cast<SelectInst>(*I);
      Provenance P = scanImpl(S.trueValue(), Visiting, Depth + 1);
      P.merge(scanImpl(S.falseValue(), Visiting, Depth + 1));
      if (UA.isDivergent(S.cond()))
        P.NonAffine = true;
      return Done(P);
    }
    case InstKind::Gep: {
      // Address arithmetic: base plus an element index. The constant
      // element scaling preserves lane clustering, so affinity is just
      // the merge of what flows into the base and the index.
      const auto &G = cast<GepInst>(*I);
      Provenance P = scanImpl(G.pointer(), Visiting, Depth + 1);
      P.merge(scanImpl(G.index(), Visiting, Depth + 1));
      return Done(P);
    }
    case InstKind::Load: {
      const auto &L = cast<LoadInst>(*I);
      const Value *Ptr = L.pointer();
      if (const AllocaInst *A = asDirectAlloca(Ptr)) {
        Provenance P;
        auto It = StoredValues.find(A);
        if (It != StoredValues.end())
          for (const Value *SV : It->second)
            P.merge(scanImpl(SV, Visiting, Depth + 1));
        return Done(P);
      }
      // Any other load is data; if the loaded value diverges it
      // scatters whatever consumes it.
      Provenance P;
      P.SeesData = true;
      if (UA.isDivergent(I))
        P.NonAffine = true;
      return Done(P);
    }
    case InstKind::Builtin: {
      const auto &B = cast<BuiltinInst>(*I);
      Provenance P;
      switch (B.builtinKind()) {
      case BuiltinKind::GetGlobalId:
      case BuiltinKind::GetLocalId:
      case BuiltinKind::RtGlobalId:
        P.SeesId = true;
        break;
      case BuiltinKind::GetGroupId:
      case BuiltinKind::RtGroupId:
        break;
      case BuiltinKind::GetLocalSize:
      case BuiltinKind::GetGlobalSize:
      case BuiltinKind::GetNumGroups:
      case BuiltinKind::RtGlobalSize:
      case BuiltinKind::RtNumGroups:
        P.SeesLocalSize = true;
        break;
      case BuiltinKind::IMin:
      case BuiltinKind::IMax:
      case BuiltinKind::IAbs:
        for (const Value *Op : I->operands())
          P.merge(scanImpl(Op, Visiting, Depth + 1));
        break;
      default:
        if (UA.isDivergent(I))
          P.NonAffine = true;
        break;
      }
      return Done(P);
    }
    default:
      if (UA.isDivergent(I)) {
        Provenance P;
        P.NonAffine = true;
        return Done(P);
      }
      return Done({});
    }
  }

  const UniformityAnalysis &UA;
  std::map<const AllocaInst *, std::vector<const Value *>> StoredValues;
};

//===----------------------------------------------------------------------===//
// Trip-count derivation
//===----------------------------------------------------------------------===//

const AllocaInst *loadedAlloca(const Value *V) {
  const auto *L = dyn_cast<LoadInst>(stripCasts(V));
  if (!L)
    return nullptr;
  const auto *A = asDirectAlloca(L->pointer());
  if (!A || A->count() != 1)
    return nullptr;
  if (A->elemKind() != Type::Kind::I32 && A->elemKind() != Type::Kind::I64)
    return nullptr;
  return A;
}

/// The recognised induction-update shapes.
struct UpdatePattern {
  enum class Kind { None, AddConst, SubConst, AddVar, MulConst } K =
      Kind::None;
  int64_t Step = 0;           ///< For AddConst/SubConst/MulConst.
  const Value *StepExpr = nullptr; ///< For AddVar.
};

UpdatePattern matchUpdate(const AllocaInst *A, const Value *Stored) {
  const auto *B = dyn_cast<BinaryInst>(stripCasts(Stored));
  if (!B)
    return {};
  const Value *L = B->lhs();
  const Value *R = B->rhs();
  bool LhsIsInd = loadedAlloca(L) == A;
  bool RhsIsInd = loadedAlloca(R) == A;
  if (!LhsIsInd && !RhsIsInd)
    return {};
  const Value *Other = LhsIsInd ? R : L;
  const auto *C = dyn_cast<Constant>(stripCasts(Other));

  UpdatePattern P;
  switch (B->op()) {
  case BinOpKind::Add:
    if (C) {
      P.K = UpdatePattern::Kind::AddConst;
      P.Step = C->intValue();
    } else {
      P.K = UpdatePattern::Kind::AddVar;
      P.StepExpr = Other;
    }
    return P;
  case BinOpKind::Sub:
    if (LhsIsInd && C) {
      P.K = UpdatePattern::Kind::SubConst;
      P.Step = C->intValue();
      return P;
    }
    return {};
  case BinOpKind::Mul:
    if (C && C->intValue() >= 2) {
      P.K = UpdatePattern::Kind::MulConst;
      P.Step = C->intValue();
      return P;
    }
    return {};
  case BinOpKind::Shl:
    if (RhsIsInd)
      return {};
    if (C && C->intValue() >= 1 && C->intValue() < 62) {
      P.K = UpdatePattern::Kind::MulConst;
      P.Step = int64_t(1) << C->intValue();
      return P;
    }
    return {};
  default:
    return {};
  }
}

CmpPred swapPred(CmpPred P) {
  switch (P) {
  case CmpPred::SLT:
    return CmpPred::SGT;
  case CmpPred::SLE:
    return CmpPred::SGE;
  case CmpPred::SGT:
    return CmpPred::SLT;
  case CmpPred::SGE:
    return CmpPred::SLE;
  default:
    return P;
  }
}

unsigned firstLine(const BasicBlock *BB) {
  for (const auto &I : BB->instructions())
    if (I->line())
      return I->line();
  return 0;
}

struct LoopAnalyzer {
  const Cfg &G;
  const UniformityAnalysis &UA;
  const IntervalAnalysis &IA;
  ProvenanceScanner &Prov;

  LoopTripInfo analyze(const CfgLoop &L, std::string *FallbackWhy) {
    LoopTripInfo Info;
    Info.Line = firstLine(G.block(L.Header));
    Info.Trips = Weight::TripFallback;

    const auto *Br =
        dyn_cast_or_null<BrInst>(G.block(L.Header)->terminator());
    if (!Br || !Br->isConditional()) {
      *FallbackWhy = "loop header has no conditional exit";
      return Info;
    }
    const auto *Cmp = dyn_cast<CmpInst>(stripCasts(Br->cond()));
    if (!Cmp) {
      *FallbackWhy = "loop condition is not a comparison";
      return Info;
    }

    // Pick the comparison side that is a loop-updated scalar alloca.
    const AllocaInst *Ind = nullptr;
    const Value *Bound = nullptr;
    CmpPred Pred = Cmp->pred();
    for (int Side = 0; Side != 2 && !Ind; ++Side) {
      const Value *Cand = Side == 0 ? Cmp->lhs() : Cmp->rhs();
      const AllocaInst *A = loadedAlloca(Cand);
      if (A && hasStoreInLoop(A, L)) {
        Ind = A;
        Bound = Side == 0 ? Cmp->rhs() : Cmp->lhs();
        if (Side == 1)
          Pred = swapPred(Pred);
      }
    }
    if (!Ind) {
      *FallbackWhy = "no loop-updated induction variable in the condition";
      return Info;
    }
    if (Cmp->line())
      Info.Line = Cmp->line();

    // Every in-loop store to the induction variable must be a
    // recognised update; the first one fixes the step.
    UpdatePattern Update;
    for (unsigned B : L.Blocks) {
      for (const auto &IPtr : G.block(B)->instructions()) {
        const auto *St = dyn_cast<StoreInst>(IPtr.get());
        if (!St || asDirectAlloca(St->pointer()) != Ind)
          continue;
        UpdatePattern P = matchUpdate(Ind, St->value());
        if (P.K == UpdatePattern::Kind::None) {
          *FallbackWhy = "unrecognised update of the loop variable '" +
                         (Ind->name().empty() ? std::string("<tmp>")
                                              : Ind->name()) +
                         "'";
          return Info;
        }
        if (Update.K == UpdatePattern::Kind::None)
          Update = P;
      }
    }
    if (Update.K == UpdatePattern::Kind::None) {
      *FallbackWhy = "loop variable is never updated inside the loop";
      return Info;
    }

    // Initial value and bound, evaluated at the loop preheader.
    AllocaState PreState;
    if (const BasicBlock *Pre = preheader(L))
      PreState = IA.stateBefore(Pre->terminator());
    Interval Init = Interval::full();
    if (auto It = PreState.find(Ind); It != PreState.end())
      Init = It->second;
    Interval BoundIv = evalValue(Bound, PreState);

    double Trips = -1;
    switch (Update.K) {
    case UpdatePattern::Kind::AddConst:
    case UpdatePattern::Kind::SubConst: {
      int64_t Step = Update.K == UpdatePattern::Kind::AddConst
                         ? Update.Step
                         : -Update.Step;
      if (Step > 0 &&
          (Pred == CmpPred::SLT || Pred == CmpPred::SLE ||
           Pred == CmpPred::NE || Pred == CmpPred::ULT) &&
          Init.hasLowerBound() && BoundIv.hasUpperBound()) {
        double Span = double(BoundIv.Hi) - double(Init.Lo) +
                      (Pred == CmpPred::SLE ? 1 : 0);
        Trips = std::ceil(Span / double(Step));
      } else if (Step < 0 &&
                 (Pred == CmpPred::SGT || Pred == CmpPred::SGE) &&
                 Init.hasUpperBound() && BoundIv.hasLowerBound()) {
        double Span = double(Init.Hi) - double(BoundIv.Lo) +
                      (Pred == CmpPred::SGE ? 1 : 0);
        Trips = std::ceil(Span / double(-Step));
      }
      break;
    }
    case UpdatePattern::Kind::MulConst:
      if ((Pred == CmpPred::SLT || Pred == CmpPred::SLE) &&
          Init.hasLowerBound() && Init.Lo >= 1 && BoundIv.hasUpperBound() &&
          BoundIv.Hi >= 1) {
        Trips = std::ceil(std::log(double(BoundIv.Hi) / double(Init.Lo)) /
                          std::log(double(Update.Step))) +
                (Pred == CmpPred::SLE ? 1 : 0);
      }
      break;
    case UpdatePattern::Kind::AddVar: {
      // The classic strided work-group loop "i += get_local_size(0)"
      // covers Span elements with one work group: divide by the
      // assumed group size.
      Provenance SP = Prov.scan(Update.StepExpr);
      if (SP.SeesLocalSize && Init.hasLowerBound() &&
          BoundIv.hasUpperBound()) {
        double Span = double(BoundIv.Hi) - std::max(0.0, double(Init.Lo));
        Trips = std::ceil(Span / Weight::StrideWGSize);
      }
      break;
    }
    case UpdatePattern::Kind::None:
      break;
    }

    if (Trips >= 0) {
      Info.BoundKind = TripBoundKind::Exact;
      Info.Trips = std::clamp(Trips, 1.0, Weight::MaxTripCount);
      return Info;
    }

    // No numeric bound: classify by what the bound expression reads.
    Provenance BP = Prov.scan(Bound);
    if (BP.SeesData) {
      Info.BoundKind = TripBoundKind::Data;
      Info.Trips = Weight::TripData;
    } else if (BP.SeesId) {
      Info.BoundKind = TripBoundKind::WorkItem;
      Info.Trips = Weight::TripWorkItem;
    } else if (BP.SeesArgument) {
      Info.BoundKind = TripBoundKind::Argument;
      Info.Trips = Weight::TripArgument;
    } else {
      *FallbackWhy = "loop bound has no derivable range or provenance";
    }
    return Info;
  }

  bool hasStoreInLoop(const AllocaInst *A, const CfgLoop &L) const {
    for (unsigned B : L.Blocks)
      for (const auto &IPtr : G.block(B)->instructions())
        if (const auto *St = dyn_cast<StoreInst>(IPtr.get()))
          if (asDirectAlloca(St->pointer()) == A)
            return true;
    return false;
  }

  const BasicBlock *preheader(const CfgLoop &L) const {
    const BasicBlock *Pre = nullptr;
    for (unsigned P : G.predecessors(L.Header)) {
      if (L.contains(P))
        continue;
      if (Pre)
        return nullptr; // Multiple entries: no unique preheader.
      Pre = G.block(P);
    }
    return Pre;
  }
};

//===----------------------------------------------------------------------===//
// Instruction weights
//===----------------------------------------------------------------------===//

/// Memoized per-function body costs so call sites can charge the
/// callee's actual work instead of a flat overhead.
struct CalleeCosts {
  std::map<const Function *, double> Memo;
  std::set<const Function *> Visiting;
};

double calleeBodyCost(const Function &F, CalleeCosts &Callees);

/// True when the gep index wraps through a small constant modulus or
/// mask: successive accesses revisit a window of at most Weight::CacheWindow
/// elements, so the data stays cache-resident.
bool isCacheWindowIndex(const Value *Index) {
  const auto *B = dyn_cast<BinaryInst>(stripCasts(Index));
  if (!B)
    return false;
  if (B->op() != BinOpKind::SRem && B->op() != BinOpKind::And)
    return false;
  const auto *C = dyn_cast<Constant>(stripCasts(B->rhs()));
  if (!C)
    return false;
  int64_t Window = C->intValue() + (B->op() == BinOpKind::And ? 1 : 0);
  return Window > 0 && double(Window) <= Weight::CacheWindow;
}

double memoryWeight(const Value *Ptr, bool IsStore,
                    const UniformityAnalysis &UA, ProvenanceScanner &Prov) {
  if (!Ptr->type().isPtr())
    return Weight::Alu;
  switch (Ptr->type().addrSpace()) {
  case AddrSpaceKind::Private:
    return Weight::PrivateMem;
  case AddrSpaceKind::Local:
    return Weight::LocalMem;
  case AddrSpaceKind::Global:
    break;
  }
  double Load;
  if (const auto *G = dyn_cast<GepInst>(Ptr);
      G && isCacheWindowIndex(G->index()))
    Load = Weight::CacheResident;
  else if (!UA.isDivergent(Ptr))
    Load = Weight::GlobalUniform;
  else
    Load = Prov.isIdAffine(Ptr) ? Weight::GlobalCoalesced
                                : Weight::GlobalGather;
  return IsStore ? Load * Weight::StoreFactor : Load;
}

double instructionWeight(const Instruction *I, const UniformityAnalysis &UA,
                         ProvenanceScanner &Prov,
                         CalleeCosts &Callees) {
  switch (I->instKind()) {
  case InstKind::Load:
    return memoryWeight(cast<LoadInst>(*I).pointer(), /*IsStore=*/false, UA,
                        Prov);
  case InstKind::Store:
    return memoryWeight(cast<StoreInst>(*I).pointer(), /*IsStore=*/true, UA,
                        Prov);
  case InstKind::Binary: {
    const auto &B = cast<BinaryInst>(*I);
    switch (B.op()) {
    case BinOpKind::SDiv:
    case BinOpKind::SRem:
      // A constant divisor lowers to shifts/multiply tricks.
      return isa<Constant>(stripCasts(B.rhs())) ? Weight::Alu : Weight::MathDiv;
    case BinOpKind::FDiv:
      return Weight::MathDiv;
    default:
      return Weight::Alu;
    }
  }
  case InstKind::Builtin: {
    const auto &B = cast<BuiltinInst>(*I);
    switch (B.builtinKind()) {
    case BuiltinKind::Barrier:
      return Weight::BarrierCost;
    case BuiltinKind::Sqrt:
    case BuiltinKind::Rsqrt:
      return Weight::MathDiv;
    case BuiltinKind::Sin:
    case BuiltinKind::Cos:
    case BuiltinKind::Exp:
    case BuiltinKind::Log:
      return Weight::MathTrans;
    case BuiltinKind::AtomicAdd:
    case BuiltinKind::AtomicSub:
    case BuiltinKind::AtomicMin:
    case BuiltinKind::AtomicMax:
    case BuiltinKind::AtomicXchg: {
      const Value *Ptr = B.operand(0);
      bool Local = Ptr->type().isPtr() &&
                   Ptr->type().addrSpace() == AddrSpaceKind::Local;
      return Local ? Weight::AtomicLocal : Weight::AtomicGlobal;
    }
    case BuiltinKind::RtIsMaster:
    case BuiltinKind::RtEnvInit:
    case BuiltinKind::RtSchedWGroup:
    case BuiltinKind::RtGlobalId:
    case BuiltinKind::RtGroupId:
    case BuiltinKind::RtGlobalSize:
    case BuiltinKind::RtNumGroups:
      return 2 * Weight::Alu;
    default:
      return Weight::Alu;
    }
  }
  case InstKind::Call: {
    const Function *Callee = cast<CallInst>(*I).callee();
    double Body = Callee ? calleeBodyCost(*Callee, Callees) : 0;
    return Weight::CallOverhead + Body;
  }
  case InstKind::Alloca:
  case InstKind::LocalAddr:
    return 0;
  default:
    return Weight::Alu;
  }
}

/// The trip-scaled weighted instruction sum for one function, shared by
/// the public entry point and call-site charging. Fills \p Est and
/// emits fallback diagnostics only for the outermost function.
double rawBodyCost(const Cfg &G, const UniformityAnalysis &UA,
                   const IntervalAnalysis &IA,
                   CalleeCosts &Callees, CostEstimate *Est,
                   std::vector<Diagnostic> *Diags) {
  const Function &F = G.function();
  ProvenanceScanner Prov(F, UA);
  LoopAnalyzer LA{G, UA, IA, Prov};

  std::vector<LoopTripInfo> LoopInfo;
  LoopInfo.reserve(G.loops().size());
  for (const CfgLoop &L : G.loops()) {
    std::string Why;
    LoopTripInfo Info = LA.analyze(L, &Why);
    if (!Why.empty()) {
      Info.BoundKind = TripBoundKind::Fallback;
      if (Est)
        Est->UsedFallback = true;
      if (Diags) {
        Diagnostic D;
        D.DiagKind = Diagnostic::Kind::CostFallback;
        D.FunctionName = F.name();
        D.BlockName = G.block(L.Header)->name();
        D.Line = Info.Line;
        D.Message = "cannot derive a trip count (" + Why + "); assuming " +
                    std::to_string(static_cast<long>(Weight::TripFallback)) +
                    " iterations";
        Diags->push_back(std::move(D));
      }
    }
    LoopInfo.push_back(Info);
  }

  double Total = 0;
  for (unsigned B : G.reversePostOrder()) {
    double Mult = 1.0;
    for (unsigned LI = 0; LI != G.loops().size(); ++LI)
      if (G.loops()[LI].contains(B))
        Mult *= LoopInfo[LI].Trips;
    Mult = std::min(Mult, Weight::MaxTripCount);
    double BlockCost = 0;
    for (const auto &IPtr : G.block(B)->instructions())
      BlockCost += instructionWeight(IPtr.get(), UA, Prov, Callees);
    Total += Mult * BlockCost;
  }
  if (Est)
    Est->LoopInfo = std::move(LoopInfo);
  return Total;
}

double calleeBodyCost(const Function &F, CalleeCosts &Callees) {
  if (F.isDeclaration())
    return 0;
  auto It = Callees.Memo.find(&F);
  if (It != Callees.Memo.end())
    return It->second;
  if (!Callees.Visiting.insert(&F).second)
    return 0; // Recursive cycle: charge the overhead only.
  Cfg G(F);
  UniformityAnalysis UA(G);
  IntervalAnalysis IA(G);
  double C = rawBodyCost(G, UA, IA, Callees, nullptr, nullptr);
  Callees.Visiting.erase(&F);
  Callees.Memo[&F] = C;
  return C;
}

} // namespace

const char *analysis::tripBoundKindName(TripBoundKind K) {
  switch (K) {
  case TripBoundKind::Exact:
    return "exact";
  case TripBoundKind::Argument:
    return "argument";
  case TripBoundKind::WorkItem:
    return "work-item";
  case TripBoundKind::Data:
    return "data";
  case TripBoundKind::Fallback:
    return "fallback";
  }
  return "unknown";
}

CostEstimate analysis::estimateCost(const Cfg &G, const UniformityAnalysis &UA,
                                    const IntervalAnalysis &IA,
                                    std::vector<Diagnostic> *Diags) {
  CostEstimate Est;
  CalleeCosts Callees;
  double Total = rawBodyCost(G, UA, IA, Callees, &Est, Diags);
  Est.PerItemCycles = std::max(Weight::MinPerItem, Total);
  return Est;
}
