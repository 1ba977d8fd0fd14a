// Natural-loop analysis: back edges via the dominator tree, loop nesting
// forest, and the canonical-form queries (preheader / latch / dedicated
// exits) that LLVM's loop passes require. AutoPhase deliberately does NOT
// auto-canonicalise inside loop passes: -loop-simplify is an explicit pass,
// which strengthens the ordering sensitivity the paper studies.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "ir/dominators.hpp"
#include "ir/function.hpp"

namespace autophase::ir {

class Loop {
 public:
  Loop(BasicBlock* header, std::vector<BasicBlock*> blocks);

  [[nodiscard]] BasicBlock* header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<BasicBlock*>& blocks() const noexcept { return blocks_; }
  /// O(1). False for nullptr, for blocks created after the loop was built
  /// and for blocks of other functions.
  [[nodiscard]] bool contains(const BasicBlock* bb) const noexcept;
  [[nodiscard]] bool contains(const Loop* other) const noexcept;

  [[nodiscard]] Loop* parent() const noexcept { return parent_; }
  [[nodiscard]] const std::vector<Loop*>& subloops() const noexcept { return subloops_; }
  /// Nesting depth; top-level loops have depth 1.
  [[nodiscard]] int depth() const noexcept;

  /// Unique out-of-loop predecessor of the header whose only successor is
  /// the header; nullptr when not in loop-simplify form.
  [[nodiscard]] BasicBlock* preheader() const;
  /// All in-loop predecessors of the header (back-edge sources).
  [[nodiscard]] std::vector<BasicBlock*> latches() const;
  /// The unique latch, or nullptr when there are several.
  [[nodiscard]] BasicBlock* latch() const;
  /// In-loop blocks with a successor outside the loop.
  [[nodiscard]] std::vector<BasicBlock*> exiting_blocks() const;
  /// Out-of-loop successor blocks (deduplicated).
  [[nodiscard]] std::vector<BasicBlock*> exit_blocks() const;
  /// (exiting-in-loop, exit-outside) edges.
  [[nodiscard]] std::vector<std::pair<BasicBlock*, BasicBlock*>> exit_edges() const;
  /// True if every exit block's predecessors are all inside the loop
  /// (loop-simplify's "dedicated exits" property).
  [[nodiscard]] bool has_dedicated_exits() const;

 private:
  friend class LoopInfo;

  BasicBlock* header_;
  std::vector<BasicBlock*> blocks_;  // header first
  std::vector<bool> members_;        // block number -> in blocks_
  Loop* parent_ = nullptr;
  std::vector<Loop*> subloops_;
};

class LoopInfo {
 public:
  LoopInfo(Function& f, const DominatorTree& dt);

  [[nodiscard]] const std::vector<Loop*>& top_level() const noexcept { return top_level_; }
  /// Every loop; outer loops precede their subloops.
  [[nodiscard]] std::vector<Loop*> all_loops() const;
  /// Every loop, innermost first (safe order for transforms).
  [[nodiscard]] std::vector<Loop*> loops_innermost_first() const;
  /// Innermost loop containing bb, or nullptr (also for blocks created
  /// after the build).
  [[nodiscard]] Loop* loop_for(const BasicBlock* bb) const;
  /// Loop nesting depth of a block (0 = not in any loop).
  [[nodiscard]] int depth_of(const BasicBlock* bb) const;

 private:
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<Loop*> top_level_;
  std::vector<Loop*> innermost_;  // block number -> innermost loop
};

}  // namespace autophase::ir
