// Dominator tree (Cooper-Harvey-Kennedy iterative algorithm) plus dominance
// frontiers (for mem2reg's phi placement) and value-level dominance queries
// (for the verifier, GVN, LICM, sink...).
#pragma once

#include <unordered_map>
#include <vector>

#include "ir/function.hpp"

namespace autophase::ir {

/// Every query is defined for every block. Blocks outside the tree — those
/// unreachable from entry, created after the build, or belonging to another
/// function — are unreachable: rpo_index is -1, idom is nullptr, children is
/// empty, and dominance follows LLVM (see dominates).
class DominatorTree {
 public:
  /// Builds the tree over blocks reachable from entry.
  explicit DominatorTree(Function& f);

  /// Position of `bb` in rpo(), or -1 when it is outside the tree.
  [[nodiscard]] int rpo_index(const BasicBlock* bb) const noexcept {
    if (bb == nullptr || bb->number() >= index_.size()) return -1;
    const int i = index_[bb->number()];
    return i >= 0 && rpo_[static_cast<std::size_t>(i)] == bb ? i : -1;
  }
  [[nodiscard]] bool is_reachable(const BasicBlock* bb) const noexcept {
    return rpo_index(bb) >= 0;
  }

  /// Immediate dominator; nullptr for the entry block and unreachable blocks.
  [[nodiscard]] BasicBlock* idom(const BasicBlock* bb) const;

  /// Reflexive dominance over blocks. An unreachable `b` is dominated by
  /// every block; an unreachable `a` with a reachable `b` dominates nothing.
  [[nodiscard]] bool dominates(const BasicBlock* a, const BasicBlock* b) const;
  [[nodiscard]] bool strictly_dominates(const BasicBlock* a, const BasicBlock* b) const {
    return a != b && dominates(a, b);
  }

  /// Does the definition of `def` dominate the use at (user, operand i)?
  /// Handles: constants/args/globals (always), same-block ordering, and phi
  /// uses (which occur at the end of the matching incoming block; a use on
  /// an edge from an unreachable block counts as dominated).
  [[nodiscard]] bool value_dominates(const Value* def, const Instruction* user,
                                     std::size_t operand_index) const;

  /// Children in the dominator tree (empty for unreachable blocks).
  [[nodiscard]] const std::vector<BasicBlock*>& children(const BasicBlock* bb) const;

  /// Dominance frontier of every reachable block.
  [[nodiscard]] std::unordered_map<BasicBlock*, std::vector<BasicBlock*>> dominance_frontiers()
      const;

  /// Reachable blocks in reverse post-order (entry first).
  [[nodiscard]] const std::vector<BasicBlock*>& rpo() const noexcept { return rpo_; }

 private:
  int intersect(int a, int b) const;

  std::vector<BasicBlock*> rpo_;
  std::vector<int> index_;  // block number -> rpo index, -1 outside the tree
  std::vector<int> idom_;   // rpo index -> rpo index of idom
  std::vector<std::vector<BasicBlock*>> children_;
};

}  // namespace autophase::ir
