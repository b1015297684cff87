//===- kir/analysis/Cfg.h - Control-flow graph over KIR ---------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A control-flow graph view of a kir::Function: numbered blocks with
/// successor/predecessor edges, a reverse-postorder over the reachable
/// subgraph, post-dominators computed against a virtual exit node, and
/// natural loops with nesting depth. This is the substrate every
/// analysis pass in src/kir/analysis builds on; the graph is immutable
/// once constructed and holds no ownership over the function.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_KIR_ANALYSIS_CFG_H
#define ACCEL_KIR_ANALYSIS_CFG_H

#include <cstdint>
#include <map>
#include <vector>

namespace accel {
namespace kir {

class BasicBlock;
class Function;

namespace analysis {

/// One natural loop: the header plus every block on a cycle back to it.
struct CfgLoop {
  unsigned Header = 0;          ///< Block id of the loop header.
  std::vector<unsigned> Blocks; ///< Member block ids (sorted, incl. header).
  std::vector<unsigned> Latches; ///< Blocks with a back edge to the header.
  unsigned Depth = 1;           ///< Nesting depth (1 = outermost).
  int Parent = -1;              ///< Index of the enclosing loop, or -1.

  bool contains(unsigned BlockId) const;
};

/// Immutable CFG of one function. Block ids follow the function's block
/// declaration order, so id 0 is the entry block.
class Cfg {
public:
  /// Sentinel id for the virtual exit node used by post-dominance.
  static constexpr unsigned VirtualExit = ~0u;

  explicit Cfg(const Function &F);

  const Function &function() const { return *F; }

  unsigned numBlocks() const {
    return static_cast<unsigned>(Succs.size());
  }

  const BasicBlock *block(unsigned Id) const;

  /// \returns the id of \p BB (must belong to the function).
  unsigned id(const BasicBlock *BB) const;

  const std::vector<unsigned> &successors(unsigned Id) const {
    return Succs[Id];
  }
  const std::vector<unsigned> &predecessors(unsigned Id) const {
    return Preds[Id];
  }

  /// Reverse postorder over the blocks reachable from the entry. Forward
  /// dataflow passes iterate this to reach fixpoints quickly.
  const std::vector<unsigned> &reversePostOrder() const { return Rpo; }

  bool isReachable(unsigned Id) const { return Reachable[Id]; }

  /// \returns the immediate post-dominator of \p Id, or VirtualExit when
  /// the block post-dominates every path (ends the function) or cannot
  /// reach the exit at all (conservative for infinite loops).
  unsigned immediatePostDominator(unsigned Id) const { return IPDom[Id]; }

  /// All natural loops, outermost first within each nest.
  const std::vector<CfgLoop> &loops() const { return Loops; }

  /// \returns the number of loops containing \p Id (0 = not in a loop).
  unsigned loopDepth(unsigned Id) const { return LoopDepthOf[Id]; }

  /// Blocks whose execution depends on the conditional branch ending
  /// block \p BranchBlock: everything reachable from its successors
  /// before control reconverges at the branch's immediate
  /// post-dominator. The branch block itself and the reconvergence
  /// point are excluded. This is the region where a divergent branch
  /// makes execution work-item-dependent.
  std::vector<unsigned> influenceRegion(unsigned BranchBlock) const;

private:
  void buildEdges();
  void buildRpo();
  void buildPostDominators();
  void buildLoops();

  const Function *F;
  std::vector<const BasicBlock *> BlockOf;
  std::map<const BasicBlock *, unsigned> IdOf;
  std::vector<std::vector<unsigned>> Succs;
  std::vector<std::vector<unsigned>> Preds;
  std::vector<unsigned> Rpo;
  std::vector<bool> Reachable;
  std::vector<unsigned> IPDom;
  std::vector<CfgLoop> Loops;
  std::vector<unsigned> LoopDepthOf;
};

} // namespace analysis
} // namespace kir
} // namespace accel

#endif // ACCEL_KIR_ANALYSIS_CFG_H
