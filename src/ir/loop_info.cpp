#include "ir/loop_info.hpp"

#include <algorithm>

namespace autophase::ir {

Loop::Loop(BasicBlock* header, std::vector<BasicBlock*> blocks)
    : header_(header), blocks_(std::move(blocks)) {
  unsigned bound = 0;
  for (const BasicBlock* bb : blocks_) bound = std::max(bound, bb->number() + 1);
  members_.assign(bound, false);
  for (const BasicBlock* bb : blocks_) members_[bb->number()] = true;
}

bool Loop::contains(const BasicBlock* bb) const noexcept {
  return bb != nullptr && bb->number() < members_.size() && members_[bb->number()] &&
         bb->parent() == header_->parent();
}

bool Loop::contains(const Loop* other) const noexcept {
  return other != nullptr && contains(other->header_);
}

int Loop::depth() const noexcept {
  int d = 1;
  for (const Loop* l = parent_; l != nullptr; l = l->parent_) ++d;
  return d;
}

BasicBlock* Loop::preheader() const {
  BasicBlock* candidate = nullptr;
  for (BasicBlock* p : header_->unique_predecessors()) {
    if (contains(p)) continue;
    if (candidate != nullptr && candidate != p) return nullptr;  // multiple outside preds
    candidate = p;
  }
  if (candidate == nullptr) return nullptr;
  const auto succs = candidate->successors();
  if (succs.size() != 1 || succs[0] != header_) return nullptr;
  return candidate;
}

std::vector<BasicBlock*> Loop::latches() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* p : header_->unique_predecessors()) {
    if (contains(p)) out.push_back(p);
  }
  return out;
}

BasicBlock* Loop::latch() const {
  const auto ls = latches();
  return ls.size() == 1 ? ls.front() : nullptr;
}

std::vector<BasicBlock*> Loop::exiting_blocks() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* bb : blocks_) {
    for (BasicBlock* s : bb->successors()) {
      if (!contains(s)) {
        out.push_back(bb);
        break;
      }
    }
  }
  return out;
}

std::vector<BasicBlock*> Loop::exit_blocks() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* bb : blocks_) {
    for (BasicBlock* s : bb->successors()) {
      if (!contains(s) && std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
    }
  }
  return out;
}

std::vector<std::pair<BasicBlock*, BasicBlock*>> Loop::exit_edges() const {
  std::vector<std::pair<BasicBlock*, BasicBlock*>> out;
  for (BasicBlock* bb : blocks_) {
    for (BasicBlock* s : bb->successors()) {
      if (!contains(s)) out.emplace_back(bb, s);
    }
  }
  return out;
}

bool Loop::has_dedicated_exits() const {
  for (BasicBlock* exit : exit_blocks()) {
    for (BasicBlock* p : exit->unique_predecessors()) {
      if (!contains(p)) return false;
    }
  }
  return true;
}

LoopInfo::LoopInfo(Function& f, const DominatorTree& dt) {
  const auto& rpo = dt.rpo();
  // 1. Find back edges tail->header (header dominates tail), grouped by the
  //    header's RPO index so loops come out in header RPO order.
  std::vector<std::vector<std::size_t>> latches(rpo.size());
  for (std::size_t t = 0; t < rpo.size(); ++t) {
    const Instruction* term = rpo[t]->terminator();
    for (std::size_t k = 0; term != nullptr && k < term->successor_count(); ++k) {
      const BasicBlock* succ = term->successor(k);
      if (dt.dominates(succ, rpo[t])) {
        latches[static_cast<std::size_t>(dt.rpo_index(succ))].push_back(t);
      }
    }
  }

  // 2. For each header, collect the natural loop: header + all blocks that
  //    reach a latch without passing through the header. Membership is an
  //    RPO-indexed stamp holding the header's index; the header is stamped
  //    first so the reverse walk never expands through it (self-loop
  //    latches included).
  std::vector<std::size_t> stamp(rpo.size(), rpo.size());
  std::vector<std::size_t> members, worklist;
  for (std::size_t h = 0; h < rpo.size(); ++h) {
    if (latches[h].empty()) continue;
    const auto claim = [&](std::size_t b) {
      if (stamp[b] == h) return;
      stamp[b] = h;
      worklist.push_back(b);
    };
    stamp[h] = h;
    members.clear();
    for (const std::size_t latch : latches[h]) claim(latch);
    while (!worklist.empty()) {
      const std::size_t b = worklist.back();
      worklist.pop_back();
      members.push_back(b);
      for (const BasicBlock* p : rpo[b]->predecessors()) {
        if (const int i = dt.rpo_index(p); i >= 0) claim(static_cast<std::size_t>(i));
      }
    }
    // Keep header first, rest in deterministic (RPO) order.
    std::sort(members.begin(), members.end());
    std::vector<BasicBlock*> blocks{rpo[h]};
    for (const std::size_t b : members) blocks.push_back(rpo[b]);
    loops_.push_back(std::make_unique<Loop>(rpo[h], std::move(blocks)));
  }

  // 3. Build the nesting forest by block-set containment. Sort by size so a
  //    loop's parent is the smallest strictly-containing loop.
  std::vector<Loop*> by_size;
  for (const auto& l : loops_) by_size.push_back(l.get());
  std::sort(by_size.begin(), by_size.end(),
            [](const Loop* a, const Loop* b) { return a->blocks().size() < b->blocks().size(); });
  for (std::size_t i = 0; i < by_size.size(); ++i) {
    Loop* inner = by_size[i];
    for (std::size_t j = i + 1; j < by_size.size(); ++j) {
      Loop* outer = by_size[j];
      if (outer != inner && outer->contains(inner->header())) {
        inner->parent_ = outer;
        outer->subloops_.push_back(inner);
        break;
      }
    }
    if (inner->parent_ == nullptr) top_level_.push_back(inner);
  }

  // 4. Innermost-loop map: smallest loop containing each block.
  innermost_.assign(f.block_number_bound(), nullptr);
  for (Loop* l : by_size) {
    for (const BasicBlock* bb : l->blocks()) {
      if (innermost_[bb->number()] == nullptr) innermost_[bb->number()] = l;
    }
  }
}

std::vector<Loop*> LoopInfo::all_loops() const {
  std::vector<Loop*> out;
  std::vector<Loop*> stack(top_level_.rbegin(), top_level_.rend());
  while (!stack.empty()) {
    Loop* l = stack.back();
    stack.pop_back();
    out.push_back(l);
    for (auto it = l->subloops().rbegin(); it != l->subloops().rend(); ++it) stack.push_back(*it);
  }
  return out;
}

std::vector<Loop*> LoopInfo::loops_innermost_first() const {
  auto out = all_loops();
  std::reverse(out.begin(), out.end());
  return out;
}

Loop* LoopInfo::loop_for(const BasicBlock* bb) const {
  if (bb == nullptr || bb->number() >= innermost_.size()) return nullptr;
  Loop* l = innermost_[bb->number()];
  return l != nullptr && l->contains(bb) ? l : nullptr;
}

int LoopInfo::depth_of(const BasicBlock* bb) const {
  const Loop* l = loop_for(bb);
  return l == nullptr ? 0 : l->depth();
}

}  // namespace autophase::ir
