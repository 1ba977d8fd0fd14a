#include "ir/dominators.hpp"

#include "ir/cfg.hpp"

namespace autophase::ir {

DominatorTree::DominatorTree(Function& f) {
  rpo_ = reverse_post_order(f);
  index_.assign(f.block_number_bound(), -1);
  for (std::size_t i = 0; i < rpo_.size(); ++i) index_[rpo_[i]->number()] = static_cast<int>(i);

  idom_.assign(rpo_.size(), -1);
  if (rpo_.empty()) return;
  idom_[0] = 0;  // entry dominated by itself (sentinel)

  // Duplicate predecessor entries are harmless: intersect is idempotent.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 1; i < rpo_.size(); ++i) {
      int new_idom = -1;
      for (const BasicBlock* pred : rpo_[i]->predecessors()) {
        const int p = index_[pred->number()];
        if (p < 0) continue;                                             // unreachable pred
        if (idom_[static_cast<std::size_t>(p)] < 0 && p != 0) continue;  // not yet processed
        new_idom = new_idom < 0 ? p : intersect(p, new_idom);
      }
      if (new_idom >= 0 && idom_[i] != new_idom) {
        idom_[i] = new_idom;
        changed = true;
      }
    }
  }

  children_.assign(rpo_.size(), {});
  for (std::size_t i = 1; i < rpo_.size(); ++i) {
    if (idom_[i] >= 0) children_[static_cast<std::size_t>(idom_[i])].push_back(rpo_[i]);
  }
}

int DominatorTree::intersect(int a, int b) const {
  while (a != b) {
    while (a > b) a = idom_[static_cast<std::size_t>(a)];
    while (b > a) b = idom_[static_cast<std::size_t>(b)];
  }
  return a;
}

BasicBlock* DominatorTree::idom(const BasicBlock* bb) const {
  const int i = rpo_index(bb);
  if (i <= 0) return nullptr;
  return rpo_[static_cast<std::size_t>(idom_[static_cast<std::size_t>(i)])];
}

bool DominatorTree::dominates(const BasicBlock* a, const BasicBlock* b) const {
  int ib = rpo_index(b);
  if (ib < 0) return true;
  const int ia = rpo_index(a);
  if (ia < 0) return false;
  while (ib > ia) ib = idom_[static_cast<std::size_t>(ib)];
  return ib == ia;
}

bool DominatorTree::value_dominates(const Value* def, const Instruction* user,
                                    std::size_t operand_index) const {
  // Non-instruction values (constants, arguments, globals) dominate everything.
  const Instruction* def_inst = as_instruction(def);
  if (def_inst == nullptr) return true;
  const BasicBlock* def_bb = def_inst->parent();
  if (def_bb == nullptr) return false;

  // A phi's use of an incoming value happens "at the end of" the incoming
  // block, not in the phi's block. When that block is unreachable the edge
  // never executes, and dominates() answers true.
  const BasicBlock* use_bb;
  if (user->is_phi()) {
    use_bb = user->incoming_block(operand_index);
    if (def_bb == use_bb) return true;  // def at/above block end
    return dominates(def_bb, use_bb);
  }
  use_bb = user->parent();
  if (def_bb == use_bb) {
    return def_bb->index_of(def_inst) < def_bb->index_of(user);
  }
  if (!is_reachable(def_bb) || !is_reachable(use_bb)) return false;
  return dominates(def_bb, use_bb);
}

const std::vector<BasicBlock*>& DominatorTree::children(const BasicBlock* bb) const {
  static const std::vector<BasicBlock*> kNone;
  const int i = rpo_index(bb);
  return i < 0 ? kNone : children_[static_cast<std::size_t>(i)];
}

std::unordered_map<BasicBlock*, std::vector<BasicBlock*>> DominatorTree::dominance_frontiers()
    const {
  std::unordered_map<BasicBlock*, std::vector<BasicBlock*>> df;
  for (BasicBlock* bb : rpo_) df[bb] = {};
  for (BasicBlock* bb : rpo_) {
    const auto preds = bb->unique_predecessors();
    if (preds.size() < 2) continue;
    BasicBlock* dom = idom(bb);
    for (BasicBlock* p : preds) {
      if (!is_reachable(p)) continue;
      BasicBlock* runner = p;
      while (runner != nullptr && runner != dom) {
        auto& frontier = df[runner];
        if (frontier.empty() || frontier.back() != bb) frontier.push_back(bb);
        runner = idom(runner);
      }
    }
  }
  return df;
}

}  // namespace autophase::ir
