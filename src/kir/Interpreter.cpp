//===- kir/Interpreter.cpp - Functional kernel execution -------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "kir/Interpreter.h"

#include "kir/RtLayout.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

using namespace accel;
using namespace accel::kir;

namespace {

/// Call depth at which a call traps.
constexpr size_t MaxCallDepth = 64;

unsigned dim(uint64_t Bits) { return static_cast<unsigned>(Bits); }

/// One invocation record on a work item's call stack: a window of the
/// work item's register file.
struct Frame {
  const FlatFunction *FF = nullptr;
  uint32_t PC = 0;
  /// First register of the window.
  uint32_t Base = 0;
  /// Caller register that receives the return value.
  uint32_t RetDst = 0;
  size_t PrivateWatermark = 0;
};

/// A single work item: call stack, registers, private memory, fixed ids.
struct WorkItem {
  std::vector<Frame> Stack;
  std::vector<uint64_t> Regs;
  std::vector<uint8_t> PrivateMem;
  uint64_t LocalId[3] = {0, 0, 0};
  uint64_t GlobalIdBase[3] = {0, 0, 0};
  uint64_t LocalLinear = 0;
  bool Done = false;
  uint64_t Steps = 0;
};

enum class SuspendKind : uint8_t { Done, Barrier, Trap };

} // namespace

/// A resident work group: its work items plus local memory. Reuse keeps
/// every vector's capacity, so a recycled group allocates nothing.
struct Interpreter::Group {
  uint64_t GroupId[3] = {0, 0, 0};
  uint64_t Linear = 0;
  std::vector<uint8_t> LocalMem;
  /// The first NumWIs entries are the current launch's work items; the
  /// rest are kept for launches with larger work groups.
  std::vector<WorkItem> WIs;
  uint64_t NumWIs = 0;
  uint64_t DynInsts = 0;
  bool Finished = false;
};

namespace {

using Group = Interpreter::Group;
using GroupPool = std::vector<std::unique_ptr<Group>>;

/// Executes one kernel launch to completion.
class Machine {
public:
  Machine(DeviceMemory &GlobalMem, GroupPool &Pool, const FlatFunction &Kernel,
          const std::vector<uint64_t> &Args, const NDRangeCfg &Range,
          uint64_t MaxSteps, uint64_t MaxGroups)
      : GlobalMem(GlobalMem), Pool(Pool), KernelFF(Kernel), Args(Args),
        Range(Range), MaxSteps(MaxSteps), MaxGroups(MaxGroups) {}

  Expected<ExecStats> run();

private:
  Error runGroups(GroupPool &Active);
  SuspendKind runWorkItem(Group &G, WorkItem &WI);

  std::unique_ptr<Group> acquire(uint64_t Linear);
  void retire(std::unique_ptr<Group> G);
  static uint64_t *enterFrame(WorkItem &WI, const FlatFunction &FF,
                              uint32_t Base);

  // Typed memory access; false on a bounds violation (see memoryTrap).
  template <typename T>
  bool load(Group &G, WorkItem &WI, uint64_t Addr, T &Out);
  template <typename T>
  bool store(Group &G, WorkItem &WI, uint64_t Addr, T Value);
  static uint8_t *scratch(Group &G, WorkItem &WI, uint64_t Addr,
                          unsigned Size);
  bool writeSchedDesc(Group &G, WorkItem &WI, uint64_t Sd, int64_t Status,
                      int64_t Base, int64_t End);

  SuspendKind trap(std::string Why) {
    TrapMessage = std::move(Why);
    return SuspendKind::Trap;
  }
  SuspendKind trapIn(const char *Why, const FlatFunction &FF) {
    return trap(std::string(Why) + " in '" + FF.F->name() + "'");
  }
  SuspendKind fellOff(const FlatFunction &FF) {
    return trap("fell off the end of function '" + FF.F->name() + "'");
  }
  SuspendKind memoryTrap(uint64_t Addr, bool IsStore);

  DeviceMemory &GlobalMem;
  GroupPool &Pool;
  const FlatFunction &KernelFF;
  const std::vector<uint64_t> &Args;
  const NDRangeCfg &Range;
  uint64_t MaxSteps;
  uint64_t MaxGroups;
  ExecStats Stats;
  std::string TrapMessage;
};

std::unique_ptr<Group> Machine::acquire(uint64_t Linear) {
  std::unique_ptr<Group> G;
  if (Pool.empty()) {
    G = std::make_unique<Group>();
  } else {
    G = std::move(Pool.back());
    Pool.pop_back();
  }
  G->Linear = Linear;
  uint64_t NG0 = Range.numGroups(0);
  uint64_t NG1 = Range.numGroups(1);
  G->GroupId[0] = Linear % NG0;
  G->GroupId[1] = (Linear / NG0) % NG1;
  G->GroupId[2] = Linear / (NG0 * NG1);
  G->LocalMem.assign(KernelFF.LocalBytes, 0);
  G->DynInsts = 0;
  G->Finished = false;

  uint64_t WGSize = Range.workGroupSize();
  if (G->WIs.size() < WGSize)
    G->WIs.resize(WGSize);
  G->NumWIs = WGSize;
  for (uint64_t L = 0; L != WGSize; ++L) {
    WorkItem &WI = G->WIs[L];
    WI.LocalLinear = L;
    WI.LocalId[0] = L % Range.LocalSize[0];
    WI.LocalId[1] = (L / Range.LocalSize[0]) % Range.LocalSize[1];
    WI.LocalId[2] = L / (Range.LocalSize[0] * Range.LocalSize[1]);
    for (unsigned D = 0; D != 3; ++D)
      WI.GlobalIdBase[D] = G->GroupId[D] * Range.LocalSize[D];
    WI.Done = false;
    WI.Steps = 0;
    // Clearing suffices for allocas to read zero: each alloca zero-fills
    // the bytes it adds.
    WI.PrivateMem.clear();
    WI.Stack.clear();
    std::copy(Args.begin(), Args.end(), enterFrame(WI, KernelFF, 0));
    WI.Stack.push_back({&KernelFF, 0, 0, 0, 0});
  }
  return G;
}

void Machine::retire(std::unique_ptr<Group> G) {
  if (Pool.size() < MaxGroups)
    Pool.push_back(std::move(G));
}

/// Prepares the register window of a frame of \p FF at \p Base: zeroes
/// its value registers and presets its constants. The caller writes the
/// arguments. \returns the window.
uint64_t *Machine::enterFrame(WorkItem &WI, const FlatFunction &FF,
                              uint32_t Base) {
  if (WI.Regs.size() < Base + FF.NumRegs)
    WI.Regs.resize(Base + FF.NumRegs);
  uint64_t *R = WI.Regs.data() + Base;
  std::fill(R + FF.NumArgs, R + FF.ConstBase, 0);
  std::copy(FF.Consts.begin(), FF.Consts.end(), R + FF.ConstBase);
  return R;
}

uint8_t *Machine::scratch(Group &G, WorkItem &WI, uint64_t Addr,
                          unsigned Size) {
  uint64_t Off = Addr & AddrOffsetMask;
  switch (static_cast<AddrTag>(Addr >> AddrTagShift)) {
  case AddrTag::Private:
    return Off + Size <= WI.PrivateMem.size() ? WI.PrivateMem.data() + Off
                                              : nullptr;
  case AddrTag::Local:
    return Off + Size <= G.LocalMem.size() ? G.LocalMem.data() + Off
                                           : nullptr;
  case AddrTag::Global:
    break;
  }
  return nullptr;
}

template <typename T>
bool Machine::load(Group &G, WorkItem &WI, uint64_t Addr, T &Out) {
  if (static_cast<AddrTag>(Addr >> AddrTagShift) == AddrTag::Global) {
    if (!GlobalMem.inBounds(Addr, sizeof(T)))
      return false;
    if constexpr (sizeof(T) == 8)
      Out = GlobalMem.readU64(Addr);
    else
      Out = GlobalMem.readU32(Addr);
    return true;
  }
  const uint8_t *P = scratch(G, WI, Addr, sizeof(T));
  if (!P)
    return false;
  std::memcpy(&Out, P, sizeof(T));
  return true;
}

template <typename T>
bool Machine::store(Group &G, WorkItem &WI, uint64_t Addr, T Value) {
  if (static_cast<AddrTag>(Addr >> AddrTagShift) == AddrTag::Global) {
    if (!GlobalMem.inBounds(Addr, sizeof(T)))
      return false;
    if constexpr (sizeof(T) == 8)
      GlobalMem.writeU64(Addr, Value);
    else
      GlobalMem.writeU32(Addr, Value);
    return true;
  }
  uint8_t *P = scratch(G, WI, Addr, sizeof(T));
  if (!P)
    return false;
  std::memcpy(P, &Value, sizeof(T));
  return true;
}

SuspendKind Machine::memoryTrap(uint64_t Addr, bool IsStore) {
  switch (static_cast<AddrTag>(Addr >> AddrTagShift)) {
  case AddrTag::Global:
    return trap(std::string("global memory ") + (IsStore ? "store" : "load") +
                " out of bounds (addr " +
                std::to_string(Addr & AddrOffsetMask) + ")");
  case AddrTag::Local:
    return trap("local memory access out of bounds");
  case AddrTag::Private:
    return trap("private memory access out of bounds");
  }
  return trap("access through invalid pointer tag");
}

bool Machine::writeSchedDesc(Group &G, WorkItem &WI, uint64_t Sd,
                             int64_t Status, int64_t Base, int64_t End) {
  using namespace rtlayout;
  for (auto [Word, V] : {std::pair<unsigned, int64_t>{SDW_Status, Status},
                         {SDW_Base, Base},
                         {SDW_End, End}})
    if (!store(G, WI, Sd + 8 * Word, static_cast<uint64_t>(V))) {
      memoryTrap(Sd + 8 * Word, /*IsStore=*/true);
      return false;
    }
  return true;
}

SuspendKind Machine::runWorkItem(Group &G, WorkItem &WI) {
  using namespace rtlayout;
  Frame *Fr = &WI.Stack.back();
  const FlatFunction *FF = Fr->FF;
  const FlatInst *Code = FF->Code.data();
  uint32_t PC = Fr->PC;
  uint64_t *R = WI.Regs.data() + Fr->Base;
  // Steps of this run; flushed into the counters at every suspension.
  uint64_t Steps = 0;
  const uint64_t Budget = MaxSteps - WI.Steps;
  SuspendKind S = SuspendKind::Trap;

  for (;;) {
    const FlatInst &I = Code[PC++];
    ++Steps;
    if (Steps > Budget) {
      // Falling off the end is no step, so it wins over the budget.
      S = I.Opcode == Op::FellOff
              ? fellOff(*FF)
              : trapIn("work item exceeded step budget", *FF);
      goto Suspend;
    }
    switch (I.Opcode) {
#define PURE_OP(Name, Expr)                                                    \
  case Op::Name: {                                                             \
    [[maybe_unused]] uint64_t A = R[I.A], B = R[I.B], C = R[I.C];              \
    R[I.Dst] = Expr;                                                           \
    continue;                                                                  \
  }
#include "kir/PureOps.def"
    case Op::SDiv32:
    case Op::SDivW:
    case Op::SRem32:
    case Op::SRemW:
      if (R[I.B] == 0) {
        S = trapIn("integer division by zero", *FF);
        goto Suspend;
      }
      R[I.Dst] = sdivrem(I.Opcode, R[I.A], R[I.B]);
      continue;

    case Op::Alloca: {
      size_t Offset = (WI.PrivateMem.size() + 7) & ~static_cast<size_t>(7);
      WI.PrivateMem.resize(Offset + R[I.A], 0);
      R[I.Dst] = tagAddr(AddrTag::Private, Offset);
      continue;
    }
    case Op::Load4S:
    case Op::Load4: {
      uint32_t V = 0;
      ++Stats.MemoryOps;
      if (!load(G, WI, R[I.A], V)) {
        S = memoryTrap(R[I.A], /*IsStore=*/false);
        goto Suspend;
      }
      R[I.Dst] = I.Opcode == Op::Load4S ? canonicalizeI32(V) : V;
      continue;
    }
    case Op::Load8: {
      ++Stats.MemoryOps;
      if (!load(G, WI, R[I.A], R[I.Dst])) {
        S = memoryTrap(R[I.A], /*IsStore=*/false);
        goto Suspend;
      }
      continue;
    }
    case Op::Store4:
      ++Stats.MemoryOps;
      if (!store(G, WI, R[I.A], static_cast<uint32_t>(R[I.B]))) {
        S = memoryTrap(R[I.A], /*IsStore=*/true);
        goto Suspend;
      }
      continue;
    case Op::Store8:
      ++Stats.MemoryOps;
      if (!store(G, WI, R[I.A], R[I.B])) {
        S = memoryTrap(R[I.A], /*IsStore=*/true);
        goto Suspend;
      }
      continue;
    case Op::PAlloca:
      R[I.Dst] = 0;
      continue;
    case Op::PLoad4S:
      ++Stats.MemoryOps;
      R[I.Dst] = canonicalizeI32(R[I.A]);
      continue;
    case Op::PLoad4:
      ++Stats.MemoryOps;
      R[I.Dst] = static_cast<uint32_t>(R[I.A]);
      continue;
    case Op::PLoad8:
      ++Stats.MemoryOps;
      R[I.Dst] = R[I.A];
      continue;
    case Op::PStore4:
      ++Stats.MemoryOps;
      R[I.A] = static_cast<uint32_t>(R[I.B]);
      continue;
    case Op::PStore8:
      ++Stats.MemoryOps;
      R[I.A] = R[I.B];
      continue;
    case Op::Gep4:
      R[I.Dst] = R[I.A] + R[I.B] * 4;
      continue;
    case Op::Gep8:
      R[I.Dst] = R[I.A] + R[I.B] * 8;
      continue;

    case Op::Br:
      PC = I.A;
      continue;
    case Op::CondBr:
      PC = R[I.A] ? I.B : I.C;
      continue;
    case Op::Call: {
      if (WI.Stack.size() >= MaxCallDepth) {
        S = trapIn("call stack overflow (recursion?)", *FF);
        goto Suspend;
      }
      const FlatCallSite &CS = FF->Calls[I.A];
      uint32_t Base = Fr->Base + FF->NumRegs;
      Fr->PC = PC;
      uint64_t *CalleeR = enterFrame(WI, *CS.Callee, Base);
      R = WI.Regs.data() + Fr->Base; // enterFrame may have grown Regs.
      for (size_t K = 0; K != CS.ArgRegs.size(); ++K)
        CalleeR[K] = R[CS.ArgRegs[K]];
      WI.Stack.push_back(
          {CS.Callee, 0, Base, I.Dst, WI.PrivateMem.size()});
      Fr = &WI.Stack.back();
      FF = CS.Callee;
      Code = FF->Code.data();
      PC = 0;
      R = CalleeR;
      continue;
    }
    case Op::Ret:
    case Op::RetVoid: {
      uint64_t RetVal = R[I.A];
      uint32_t RetDst = Fr->RetDst;
      size_t Watermark = Fr->PrivateWatermark;
      WI.Stack.pop_back();
      if (WI.Stack.empty()) {
        WI.Done = true;
        S = SuspendKind::Done;
        goto Suspend;
      }
      WI.PrivateMem.resize(Watermark);
      Fr = &WI.Stack.back();
      FF = Fr->FF;
      Code = FF->Code.data();
      PC = Fr->PC;
      R = WI.Regs.data() + Fr->Base;
      if (I.Opcode == Op::Ret)
        R[RetDst] = RetVal;
      continue;
    }

    case Op::GlobalId:
      R[I.Dst] = WI.GlobalIdBase[dim(R[I.A])] + WI.LocalId[dim(R[I.A])];
      continue;
    case Op::LocalId:
      R[I.Dst] = WI.LocalId[dim(R[I.A])];
      continue;
    case Op::GroupId:
      R[I.Dst] = G.GroupId[dim(R[I.A])];
      continue;
    case Op::GlobalSize:
      R[I.Dst] = Range.GlobalSize[dim(R[I.A])];
      continue;
    case Op::LocalSize:
      R[I.Dst] = Range.LocalSize[dim(R[I.A])];
      continue;
    case Op::NumGroups:
      R[I.Dst] = Range.numGroups(dim(R[I.A]));
      continue;
    case Op::WorkDim:
      R[I.Dst] = Range.WorkDim;
      continue;
    case Op::Barrier:
      ++Stats.Barriers;
      Fr->PC = PC;
      S = SuspendKind::Barrier;
      goto Suspend;
    case Op::Sqrt:
      ++Stats.MathOps;
      R[I.Dst] = fromF32(std::sqrt(asF32(R[I.A])));
      continue;
    case Op::Rsqrt:
      ++Stats.MathOps;
      R[I.Dst] = fromF32(1.0f / std::sqrt(asF32(R[I.A])));
      continue;
    case Op::Sin:
      ++Stats.MathOps;
      R[I.Dst] = fromF32(std::sin(asF32(R[I.A])));
      continue;
    case Op::Cos:
      ++Stats.MathOps;
      R[I.Dst] = fromF32(std::cos(asF32(R[I.A])));
      continue;
    case Op::Exp:
      ++Stats.MathOps;
      R[I.Dst] = fromF32(std::exp(asF32(R[I.A])));
      continue;
    case Op::Log:
      ++Stats.MathOps;
      R[I.Dst] = fromF32(std::log(asF32(R[I.A])));
      continue;
    case Op::Fabs:
      R[I.Dst] = fromF32(std::fabs(asF32(R[I.A])));
      continue;
    case Op::FMin:
      R[I.Dst] = fromF32(std::fmin(asF32(R[I.A]), asF32(R[I.B])));
      continue;
    case Op::FMax:
      R[I.Dst] = fromF32(std::fmax(asF32(R[I.A]), asF32(R[I.B])));
      continue;
    case Op::Floor:
      R[I.Dst] = fromF32(std::floor(asF32(R[I.A])));
      continue;
    case Op::IMin:
      R[I.Dst] = static_cast<uint64_t>(std::min(
          static_cast<int64_t>(R[I.A]), static_cast<int64_t>(R[I.B])));
      continue;
    case Op::IMax:
      R[I.Dst] = static_cast<uint64_t>(std::max(
          static_cast<int64_t>(R[I.A]), static_cast<int64_t>(R[I.B])));
      continue;
    case Op::IAbs32:
    case Op::IAbsW: {
      uint64_t V = R[I.A];
      uint64_t Out = static_cast<int64_t>(V) < 0 ? 0 - V : V;
      R[I.Dst] = I.Opcode == Op::IAbs32 ? canonicalizeI32(Out) : Out;
      continue;
    }
    case Op::AtomicAdd:
    case Op::AtomicSub:
    case Op::AtomicMin:
    case Op::AtomicMax:
    case Op::AtomicXchg: {
      uint64_t Addr = R[I.A];
      int32_t Operand = static_cast<int32_t>(R[I.B]);
      uint32_t OldBits = 0;
      if (!load(G, WI, Addr, OldBits)) {
        S = memoryTrap(Addr, /*IsStore=*/false);
        goto Suspend;
      }
      int32_t Old = static_cast<int32_t>(OldBits);
      uint32_t New = static_cast<uint32_t>(Operand); // AtomicXchg
      switch (I.Opcode) {
      case Op::AtomicAdd:
        New = OldBits + static_cast<uint32_t>(Operand);
        break;
      case Op::AtomicSub:
        New = OldBits - static_cast<uint32_t>(Operand);
        break;
      case Op::AtomicMin:
        New = static_cast<uint32_t>(std::min(Old, Operand));
        break;
      case Op::AtomicMax:
        New = static_cast<uint32_t>(std::max(Old, Operand));
        break;
      default:
        break;
      }
      if (!store(G, WI, Addr, New)) {
        S = memoryTrap(Addr, /*IsStore=*/true);
        goto Suspend;
      }
      ++Stats.AtomicOps;
      R[I.Dst] = canonicalizeI32(OldBits);
      continue;
    }

    case Op::RtIsMaster:
      R[I.Dst] = WI.LocalLinear == 0;
      continue;
    case Op::RtEnvInit:
      if (!writeSchedDesc(G, WI, R[I.B], RUN_CONTINUE, 0, 0)) {
        S = SuspendKind::Trap;
        goto Suspend;
      }
      continue;
    case Op::RtSchedWGroup: {
      uint64_t Rt = R[I.A] & AddrOffsetMask;
      if (!GlobalMem.inBounds(Rt, virtualNDRangeBytes())) {
        S = trap("rt_sched_wgroup: bad Virtual NDRange pointer");
        goto Suspend;
      }
      if (GlobalMem.readU64(Rt + 8 * RTW_Magic) != VirtualNDRangeMagic) {
        S = trap("rt_sched_wgroup: Virtual NDRange magic mismatch");
        goto Suspend;
      }
      int64_t Total =
          static_cast<int64_t>(GlobalMem.readU64(Rt + 8 * RTW_TotalGroups));
      int64_t Batch =
          static_cast<int64_t>(GlobalMem.readU64(Rt + 8 * RTW_Batch));
      Expected<int64_t> OldOrErr =
          GlobalMem.atomicAddI64(Rt + 8 * RTW_Next, Batch);
      if (!OldOrErr) {
        S = trap("rt_sched_wgroup: " + OldOrErr.message());
        goto Suspend;
      }
      int64_t Old = *OldOrErr;
      ++Stats.AtomicOps;
      bool Ok = Old >= Total
                    ? writeSchedDesc(G, WI, R[I.B], RUN_TERMINATE, 0, 0)
                    : writeSchedDesc(G, WI, R[I.B], RUN_CONTINUE, Old,
                                     std::min(Old + Batch, Total));
      if (!Ok) {
        S = SuspendKind::Trap;
        goto Suspend;
      }
      continue;
    }
    case Op::RtGlobalId:
    case Op::RtGroupId: {
      uint64_t Rt = R[I.A] & AddrOffsetMask;
      uint64_t Hdlr = R[I.B];
      unsigned D = dim(R[I.C]);
      if (!GlobalMem.inBounds(Rt, virtualNDRangeBytes())) {
        S = trap("rt id builtin: bad Virtual NDRange pointer");
        goto Suspend;
      }
      if (D > 2) {
        S = trap("rt id builtin: dimension out of range");
        goto Suspend;
      }
      uint64_t NG0 = GlobalMem.readU64(Rt + 8 * RTW_NumGroups0);
      uint64_t NG1 = GlobalMem.readU64(Rt + 8 * RTW_NumGroups1);
      uint64_t Coord = D == 0   ? Hdlr % NG0
                       : D == 1 ? (Hdlr / NG0) % NG1
                                : Hdlr / (NG0 * NG1);
      if (I.Opcode == Op::RtGroupId)
        R[I.Dst] = Coord;
      else
        R[I.Dst] =
            Coord * GlobalMem.readU64(Rt + 8 * (RTW_LocalSize0 + D)) +
            WI.LocalId[D];
      continue;
    }
    case Op::RtGlobalSize:
    case Op::RtNumGroups: {
      uint64_t Rt = R[I.A] & AddrOffsetMask;
      unsigned D = dim(R[I.B]);
      if (!GlobalMem.inBounds(Rt, virtualNDRangeBytes())) {
        S = trap("rt size builtin: bad Virtual NDRange pointer");
        goto Suspend;
      }
      if (D > 2) {
        S = trap("rt size builtin: dimension out of range");
        goto Suspend;
      }
      unsigned Word0 =
          I.Opcode == Op::RtGlobalSize ? RTW_GlobalSize0 : RTW_NumGroups0;
      R[I.Dst] = GlobalMem.readU64(Rt + 8 * (Word0 + D));
      continue;
    }

    case Op::BadLocalSlot:
      S = trap("local slot out of range");
      goto Suspend;
    case Op::FellOff:
      S = fellOff(*FF);
      goto Suspend;
    }
    accel_unreachable("unhandled opcode");
  }

Suspend:
  WI.Steps += Steps;
  G.DynInsts += Steps;
  Stats.InstsExecuted += Steps;
  return S;
}

Error Machine::runGroups(GroupPool &Active) {
  uint64_t Total = Range.totalGroups();
  uint64_t NextGroup = 0;
  uint64_t Completed = 0;
  Active.reserve(std::min(MaxGroups, Total));

  while (Completed < Total) {
    while (Active.size() < MaxGroups && NextGroup < Total)
      Active.push_back(acquire(NextGroup++));

    for (std::unique_ptr<Group> &GP : Active) {
      Group &G = *GP;
      bool AllDone = true;
      for (uint64_t L = 0; L != G.NumWIs; ++L) {
        WorkItem &WI = G.WIs[L];
        if (WI.Done)
          continue;
        SuspendKind S = runWorkItem(G, WI);
        if (S == SuspendKind::Trap)
          return makeError("kernel trap in group " + std::to_string(G.Linear) +
                           ": " + TrapMessage);
        if (S == SuspendKind::Barrier)
          AllDone = false;
      }
      if (AllDone) {
        Stats.GroupInsts[G.Linear] = G.DynInsts;
        G.Finished = true;
        ++Completed;
        continue;
      }
      // Every live work item is suspended at a barrier. OpenCL requires
      // barriers to be reached by all work items of the group.
      for (uint64_t L = 0; L != G.NumWIs; ++L)
        if (G.WIs[L].Done)
          return makeError(
              "barrier divergence: work item finished while others wait "
              "(group " +
              std::to_string(G.Linear) + ")");
    }

    // Retire finished groups; the rest keep their window order.
    size_t Kept = 0;
    for (std::unique_ptr<Group> &GP : Active) {
      if (GP->Finished)
        retire(std::move(GP));
      else
        Active[Kept++].swap(GP);
    }
    Active.resize(Kept);
  }
  return Error::success();
}

Expected<ExecStats> Machine::run() {
  Stats.GroupInsts.assign(Range.totalGroups(), 0);
  GroupPool Active;
  Error E = runGroups(Active);
  // A trapped launch returns its groups too: acquire() resets them.
  for (std::unique_ptr<Group> &G : Active)
    retire(std::move(G));
  if (E)
    return Expected<ExecStats>(std::move(E));
  return std::move(Stats);
}

} // namespace

Interpreter::Interpreter(DeviceMemory &GlobalMem) : GlobalMem(GlobalMem) {}

Interpreter::~Interpreter() = default;

Expected<ExecStats> Interpreter::run(const Function &Kernel,
                                     const std::vector<uint64_t> &Args,
                                     const NDRangeCfg &Range) {
  assert(Kernel.isKernel() && "launching a non-kernel function");
  assert(Args.size() == Kernel.numArguments() && "launch arity mismatch");
  for (unsigned D = 0; D != 3; ++D) {
    assert(Range.LocalSize[D] > 0 && "zero local size");
    assert(Range.GlobalSize[D] % Range.LocalSize[D] == 0 &&
           "global size not divisible by local size");
  }
  Machine M(GlobalMem, Pool, Cache.get(Kernel), Args, Range, MaxSteps,
            MaxGroups);
  return M.run();
}
