//===- kir/analysis/Cfg.cpp - Control-flow graph over KIR -------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "kir/analysis/Cfg.h"

#include "kir/Module.h"

#include <algorithm>
#include <cassert>

using namespace accel;
using namespace accel::kir;
using namespace accel::kir::analysis;

bool CfgLoop::contains(unsigned BlockId) const {
  return std::binary_search(Blocks.begin(), Blocks.end(), BlockId);
}

Cfg::Cfg(const Function &Fn) : F(&Fn) {
  unsigned N = static_cast<unsigned>(Fn.blocks().size());
  BlockOf.reserve(N);
  for (const auto &BB : Fn.blocks()) {
    IdOf[BB.get()] = static_cast<unsigned>(BlockOf.size());
    BlockOf.push_back(BB.get());
  }
  Succs.assign(N, {});
  Preds.assign(N, {});
  Reachable.assign(N, false);
  IPDom.assign(N, VirtualExit);
  LoopDepthOf.assign(N, 0);

  buildEdges();
  buildRpo();
  buildPostDominators();
  buildLoops();
}

const BasicBlock *Cfg::block(unsigned Id) const {
  assert(Id < BlockOf.size() && "block id out of range");
  return BlockOf[Id];
}

unsigned Cfg::id(const BasicBlock *BB) const {
  auto It = IdOf.find(BB);
  assert(It != IdOf.end() && "block not in this CFG");
  return It->second;
}

void Cfg::buildEdges() {
  for (unsigned B = 0; B != numBlocks(); ++B) {
    const Instruction *Term = BlockOf[B]->terminator();
    const auto *Br = dyn_cast_or_null<BrInst>(Term);
    if (!Br)
      continue; // Ret or unterminated: no successors.
    unsigned T = id(Br->trueTarget());
    Succs[B].push_back(T);
    Preds[T].push_back(B);
    if (Br->isConditional()) {
      unsigned FalseId = id(Br->falseTarget());
      if (FalseId != T) {
        Succs[B].push_back(FalseId);
        Preds[FalseId].push_back(B);
      }
    }
  }
}

void Cfg::buildRpo() {
  if (numBlocks() == 0)
    return;
  // Iterative DFS from the entry; postorder reversed gives the RPO.
  std::vector<unsigned> Post;
  std::vector<std::pair<unsigned, unsigned>> Stack; // (block, next succ)
  std::vector<bool> Visited(numBlocks(), false);
  Stack.emplace_back(0u, 0u);
  Visited[0] = true;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    if (NextSucc < Succs[B].size()) {
      unsigned S = Succs[B][NextSucc++];
      if (!Visited[S]) {
        Visited[S] = true;
        Stack.emplace_back(S, 0u);
      }
    } else {
      Post.push_back(B);
      Stack.pop_back();
    }
  }
  Rpo.assign(Post.rbegin(), Post.rend());
  for (unsigned B : Rpo)
    Reachable[B] = true;
}

void Cfg::buildPostDominators() {
  // Cooper-Harvey-Kennedy on the reverse graph, rooted at a virtual
  // exit whose predecessors are every block without successors (Ret
  // blocks, and any unterminated stragglers). Blocks that cannot reach
  // the exit (infinite loops) keep IPDom = VirtualExit, which the
  // influence-region query treats conservatively.
  unsigned N = numBlocks();
  if (N == 0)
    return;

  // Reverse postorder of the reverse graph, rooted at the virtual exit.
  std::vector<unsigned> RevPost;
  std::vector<bool> Visited(N, false);
  std::vector<unsigned> ExitPreds;
  for (unsigned B = 0; B != N; ++B)
    if (Succs[B].empty())
      ExitPreds.push_back(B);

  std::vector<std::pair<unsigned, unsigned>> Stack;
  for (unsigned Root : ExitPreds) {
    if (Visited[Root])
      continue;
    Visited[Root] = true;
    Stack.emplace_back(Root, 0u);
    while (!Stack.empty()) {
      auto &[B, NextPred] = Stack.back();
      if (NextPred < Preds[B].size()) {
        unsigned P = Preds[B][NextPred++];
        if (!Visited[P]) {
          Visited[P] = true;
          Stack.emplace_back(P, 0u);
        }
      } else {
        RevPost.push_back(B);
        Stack.pop_back();
      }
    }
  }
  std::reverse(RevPost.begin(), RevPost.end());

  // Order index within RevPost; the virtual exit (order 0) sorts before
  // every real block.
  std::vector<unsigned> OrderOf(N, ~0u);
  for (unsigned I = 0; I != RevPost.size(); ++I)
    OrderOf[RevPost[I]] = I + 1;
  auto Ord = [&](unsigned B) { return B == VirtualExit ? 0u : OrderOf[B]; };

  // Walks both nodes up the (partial) post-dominator tree until they
  // meet; the virtual exit is the root, so the walk always terminates.
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (Ord(A) > Ord(B))
        A = IPDom[A]; // A != VirtualExit here (its order is minimal).
      while (Ord(B) > Ord(A))
        B = IPDom[B];
    }
    return A;
  };

  std::vector<bool> Processed(N, false);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B : RevPost) {
      // Reverse-graph predecessors of B are its CFG successors; a block
      // without successors hangs off the virtual exit directly.
      unsigned NewIPDom = VirtualExit;
      bool Seeded = Succs[B].empty();
      for (unsigned S : Succs[B]) {
        if (!Processed[S])
          continue;
        if (!Seeded) {
          NewIPDom = S;
          Seeded = true;
        } else {
          NewIPDom = Intersect(NewIPDom, S);
        }
      }
      if (!Seeded)
        continue;
      if (!Processed[B] || IPDom[B] != NewIPDom) {
        IPDom[B] = NewIPDom;
        Processed[B] = true;
        Changed = true;
      }
    }
  }
}

void Cfg::buildLoops() {
  // Back edges via DFS colouring: an edge into a block on the active
  // DFS stack closes a natural loop. MiniCL codegen emits reducible
  // graphs, for which this is exact.
  unsigned N = numBlocks();
  if (N == 0)
    return;
  enum Colour : uint8_t { White, Grey, Black };
  std::vector<uint8_t> Col(N, White);
  std::vector<std::pair<unsigned, unsigned>> Stack;
  std::vector<std::pair<unsigned, unsigned>> BackEdges; // (latch, header)
  Stack.emplace_back(0u, 0u);
  Col[0] = Grey;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    if (NextSucc < Succs[B].size()) {
      unsigned S = Succs[B][NextSucc++];
      if (Col[S] == White) {
        Col[S] = Grey;
        Stack.emplace_back(S, 0u);
      } else if (Col[S] == Grey) {
        BackEdges.emplace_back(B, S);
      }
    } else {
      Col[B] = Black;
      Stack.pop_back();
    }
  }

  // Gather each loop's body: blocks that reach the latch backwards
  // without passing through the header. Merge loops sharing a header.
  std::map<unsigned, CfgLoop> ByHeader;
  for (auto [Latch, Header] : BackEdges) {
    CfgLoop &L = ByHeader[Header];
    L.Header = Header;
    L.Latches.push_back(Latch);
    std::vector<bool> InLoop(N, false);
    InLoop[Header] = true;
    std::vector<unsigned> Work;
    if (!InLoop[Latch]) {
      InLoop[Latch] = true;
      Work.push_back(Latch);
    }
    while (!Work.empty()) {
      unsigned B = Work.back();
      Work.pop_back();
      for (unsigned P : Preds[B])
        if (!InLoop[P]) {
          InLoop[P] = true;
          Work.push_back(P);
        }
    }
    for (unsigned B = 0; B != N; ++B)
      if (InLoop[B])
        L.Blocks.push_back(B);
  }
  for (auto &[Header, L] : ByHeader) {
    std::sort(L.Blocks.begin(), L.Blocks.end());
    L.Blocks.erase(std::unique(L.Blocks.begin(), L.Blocks.end()),
                   L.Blocks.end());
    Loops.push_back(std::move(L));
  }

  // Sort outer loops first (larger bodies) so Parent resolution can scan
  // earlier entries.
  std::sort(Loops.begin(), Loops.end(),
            [](const CfgLoop &A, const CfgLoop &B) {
              if (A.Blocks.size() != B.Blocks.size())
                return A.Blocks.size() > B.Blocks.size();
              return A.Header < B.Header;
            });

  for (unsigned I = 0; I != Loops.size(); ++I) {
    CfgLoop &L = Loops[I];
    // The innermost strictly-containing loop appears earlier in the
    // outer-first order.
    for (unsigned J = I; J-- > 0;) {
      if (Loops[J].Blocks.size() > L.Blocks.size() &&
          Loops[J].contains(L.Header)) {
        L.Parent = static_cast<int>(J);
        L.Depth = Loops[J].Depth + 1;
        break;
      }
    }
    for (unsigned B : L.Blocks)
      LoopDepthOf[B] = std::max(LoopDepthOf[B], L.Depth);
  }
}

std::vector<unsigned> Cfg::influenceRegion(unsigned BranchBlock) const {
  std::vector<unsigned> Region;
  const auto *Br = dyn_cast_or_null<BrInst>(BlockOf[BranchBlock]->terminator());
  if (!Br || !Br->isConditional())
    return Region;
  unsigned Reconverge = IPDom[BranchBlock];
  std::vector<bool> Seen(numBlocks(), false);
  std::vector<unsigned> Work;
  for (unsigned S : Succs[BranchBlock]) {
    if (S == Reconverge || Seen[S])
      continue;
    Seen[S] = true;
    Work.push_back(S);
  }
  while (!Work.empty()) {
    unsigned B = Work.back();
    Work.pop_back();
    Region.push_back(B);
    for (unsigned S : Succs[B]) {
      if (S == Reconverge || Seen[S])
        continue;
      Seen[S] = true;
      Work.push_back(S);
    }
  }
  std::sort(Region.begin(), Region.end());
  return Region;
}
