// Property test for the CFG analyses (post-order, DominatorTree, LoopInfo)
// against naive oracles that live only here: dominance is "remove d, is b
// still reachable from entry", loops are the natural loops of the back
// edges. Exercised on the nine kernels and seeded random programs, each run
// through random pass prefixes on deep clones and on copy-on-write rollout
// clones, checking after every pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "ir/cfg.hpp"
#include "ir/clone.hpp"
#include "ir/dominators.hpp"
#include "ir/loop_info.hpp"
#include "passes/pass.hpp"
#include "progen/chstone_like.hpp"
#include "progen/random_program.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace autophase::ir {
namespace {

using Flags = std::vector<char>;

/// The oracle's view of one function: blocks by position in f.blocks(),
/// edges as positions, so nothing here depends on block numbers.
struct Cfg {
  std::vector<BasicBlock*> blocks;
  std::unordered_map<const BasicBlock*, std::size_t> pos;
  std::vector<std::vector<std::size_t>> succs, preds;

  explicit Cfg(const Function& f) : blocks(f.blocks()) {
    for (std::size_t i = 0; i < blocks.size(); ++i) pos[blocks[i]] = i;
    succs.resize(blocks.size());
    preds.resize(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const Instruction* term = blocks[i]->terminator();
      for (std::size_t k = 0; term != nullptr && k < term->successor_count(); ++k) {
        const std::size_t s = pos.at(term->successor(k));
        succs[i].push_back(s);
        preds[s].push_back(i);
      }
    }
  }

  /// Blocks reachable from entry (position 0) without passing through
  /// `removed` (pass blocks.size() to remove nothing).
  [[nodiscard]] Flags reach_avoiding(std::size_t removed) const {
    Flags seen(blocks.size(), 0);
    if (blocks.empty() || removed == 0) return seen;
    std::vector<std::size_t> work{0};
    seen[0] = 1;
    while (!work.empty()) {
      const std::size_t b = work.back();
      work.pop_back();
      for (const std::size_t s : succs[b]) {
        if (s == removed || seen[s] != 0) continue;
        seen[s] = 1;
        work.push_back(s);
      }
    }
    return seen;
  }

  /// Natural loop of the back edges into `header`: the header plus every
  /// reachable block that reaches a latch without passing through it.
  [[nodiscard]] Flags natural_loop(std::size_t header, const std::vector<std::size_t>& latches,
                                   const Flags& reachable) const {
    Flags in(blocks.size(), 0);
    in[header] = 1;
    std::vector<std::size_t> work;
    for (const std::size_t l : latches) {
      if (in[l] == 0) work.push_back(l);
      in[l] = 1;
    }
    while (!work.empty()) {
      const std::size_t b = work.back();
      work.pop_back();
      for (const std::size_t p : preds[b]) {
        if (reachable[p] == 0 || in[p] != 0) continue;
        in[p] = 1;
        work.push_back(p);
      }
    }
    return in;
  }
};

std::size_t count_set(const Flags& v) {
  return static_cast<std::size_t>(std::count(v.begin(), v.end(), 1));
}

void check_function(Function& f, const std::string& where) {
  SCOPED_TRACE(where + " @" + f.name());
  const Cfg cfg(f);
  const auto& blocks = cfg.blocks;
  const std::size_t n = blocks.size();

  // Block numbers: unique, below the bound.
  std::set<unsigned> numbers;
  for (const BasicBlock* bb : blocks) {
    EXPECT_LT(bb->number(), f.block_number_bound());
    EXPECT_TRUE(numbers.insert(bb->number()).second) << "duplicate number " << bb->number();
  }

  // dom[a][b]: a == b, or removing a cuts b off from entry.
  const Flags reachable = cfg.reach_avoiding(n);
  std::vector<Flags> dom(n, Flags(n, 0));
  for (std::size_t a = 0; a < n; ++a) {
    if (reachable[a] == 0) continue;
    const Flags without = cfg.reach_avoiding(a);
    for (std::size_t b = 0; b < n; ++b) {
      dom[a][b] = reachable[b] != 0 && (a == b || without[b] == 0) ? 1 : 0;
    }
  }

  // Traversal orders.
  DominatorTree dt(f);
  auto po = post_order(f);
  std::reverse(po.begin(), po.end());
  ASSERT_EQ(dt.rpo(), po);
  ASSERT_EQ(dt.rpo(), reverse_post_order(f));
  ASSERT_EQ(dt.rpo().size(), count_set(reachable));
  const Flags flags = reachable_blocks(f);
  for (std::size_t b = 0; b < n; ++b) {
    EXPECT_EQ(flags[blocks[b]->number()] != 0, reachable[b] != 0) << blocks[b]->name();
    EXPECT_EQ(dt.is_reachable(blocks[b]), reachable[b] != 0) << blocks[b]->name();
  }
  if (dt.rpo().empty()) return;
  EXPECT_EQ(dt.rpo().front(), f.entry());
  for (std::size_t i = 0; i < dt.rpo().size(); ++i) {
    const BasicBlock* bb = dt.rpo()[i];
    EXPECT_EQ(dt.rpo_index(bb), static_cast<int>(i));
    if (i == 0) continue;
    // Each non-entry block has its DFS parent earlier in the order.
    bool earlier_pred = false;
    for (const BasicBlock* p : bb->predecessors()) {
      earlier_pred |= dt.is_reachable(p) && dt.rpo_index(p) < static_cast<int>(i);
    }
    EXPECT_TRUE(earlier_pred) << bb->name();
  }

  // Dominance and immediate dominators against the oracle. The immediate
  // dominator is the strict dominator with the most dominators of its own.
  std::vector<std::size_t> dom_count(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) dom_count[b] += dom[a][b];
  }
  for (std::size_t b = 0; b < n; ++b) {
    if (reachable[b] == 0) continue;
    const BasicBlock* idom = nullptr;
    std::size_t idom_depth = 0;
    for (std::size_t a = 0; a < n; ++a) {
      if (reachable[a] == 0) continue;
      EXPECT_EQ(dt.dominates(blocks[a], blocks[b]), dom[a][b] != 0)
          << blocks[a]->name() << " dom " << blocks[b]->name();
      if (dom[a][b] == 0 || a == b || dom_count[a] <= idom_depth) continue;
      idom = blocks[a];
      idom_depth = dom_count[a];
    }
    EXPECT_EQ(dt.idom(blocks[b]), idom) << blocks[b]->name();
    std::vector<BasicBlock*> kids;
    for (BasicBlock* c : dt.rpo()) {
      if (dt.idom(c) == blocks[b]) kids.push_back(c);
    }
    EXPECT_EQ(dt.children(blocks[b]), kids) << blocks[b]->name();
  }

  // Unreachable blocks: outside the tree, dominated by everything,
  // dominating nothing reachable.
  for (std::size_t u = 0; u < n; ++u) {
    if (reachable[u] != 0) continue;
    EXPECT_EQ(dt.rpo_index(blocks[u]), -1);
    EXPECT_EQ(dt.idom(blocks[u]), nullptr);
    EXPECT_TRUE(dt.children(blocks[u]).empty());
    EXPECT_TRUE(dt.dominates(f.entry(), blocks[u]));
    EXPECT_TRUE(dt.dominates(blocks[u], blocks[u]));
    EXPECT_FALSE(dt.dominates(blocks[u], f.entry()));
  }

  // Loops against the natural-loop definition: one loop per header of a
  // back edge (an edge into a dominator).
  std::map<std::size_t, std::vector<std::size_t>> latches;
  for (std::size_t t = 0; t < n; ++t) {
    for (const std::size_t h : cfg.succs[t]) {
      if (dom[h][t] != 0) latches[h].push_back(t);
    }
  }
  LoopInfo li(f, dt);
  const auto loops = li.all_loops();
  ASSERT_EQ(loops.size(), latches.size());
  std::unordered_map<const Loop*, Flags> loop_sets;
  for (const Loop* l : loops) {
    const std::size_t header = cfg.pos.at(l->header());
    ASSERT_TRUE(latches.contains(header)) << l->header()->name();
    const Flags expect = cfg.natural_loop(header, latches.at(header), reachable);
    Flags got(n, 0);
    for (const BasicBlock* bb : l->blocks()) got[cfg.pos.at(bb)] += 1;
    EXPECT_EQ(got, expect) << "loop at " << l->header()->name();
    ASSERT_EQ(l->blocks().front(), l->header());
    for (std::size_t i = 2; i < l->blocks().size(); ++i) {
      EXPECT_LT(dt.rpo_index(l->blocks()[i - 1]), dt.rpo_index(l->blocks()[i]));
    }
    for (std::size_t b = 0; b < n; ++b) EXPECT_EQ(l->contains(blocks[b]), expect[b] != 0);
    loop_sets[l] = expect;
  }
  // Nesting: the parent is the smallest other loop containing the header; a
  // block's innermost loop is the smallest loop containing it.
  const auto smallest_containing = [&](const BasicBlock* bb, const Loop* skip, int* depth) {
    const Loop* best = nullptr;
    std::size_t best_size = 0;
    for (const Loop* l : loops) {
      if (loop_sets.at(l)[cfg.pos.at(bb)] == 0) continue;
      ++*depth;
      const std::size_t size = count_set(loop_sets.at(l));
      if (l == skip || (best != nullptr && size >= best_size)) continue;
      best = l;
      best_size = size;
    }
    return best;
  };
  for (const Loop* l : loops) {
    int depth = 0;
    const Loop* parent = smallest_containing(l->header(), l, &depth);
    EXPECT_EQ(l->parent(), parent);
    EXPECT_EQ(l->depth(), depth);
    const auto& siblings = parent == nullptr ? li.top_level() : parent->subloops();
    EXPECT_EQ(std::count(siblings.begin(), siblings.end(), l), 1);
  }
  for (const BasicBlock* bb : blocks) {
    int depth = 0;
    EXPECT_EQ(li.loop_for(bb), smallest_containing(bb, nullptr, &depth)) << bb->name();
    EXPECT_EQ(li.depth_of(bb), depth) << bb->name();
  }

  // A block created after both analyses were built is outside both.
  BasicBlock* late = f.create_block("late");
  EXPECT_FALSE(numbers.contains(late->number()));
  EXPECT_FALSE(dt.is_reachable(late));
  EXPECT_EQ(dt.rpo_index(late), -1);
  EXPECT_TRUE(dt.dominates(f.entry(), late));
  EXPECT_FALSE(dt.dominates(late, f.entry()));
  EXPECT_EQ(li.loop_for(late), nullptr);
  EXPECT_EQ(li.depth_of(late), 0);
  for (const Loop* l : loops) EXPECT_FALSE(l->contains(late));
  f.erase_block(late);
}

/// Trial 0 runs on a deep clone, trial 1 on a copy-on-write rollout clone
/// (materialised by the first pass that touches a function), trial 2 on a
/// deep clone of a rollout clone.
std::unique_ptr<Module> copy_for_trial(const Module& program, int trial) {
  if (trial == 0) return clone_module(program);
  if (trial == 1) return clone_module_for_rollout(program);
  return clone_module(*clone_module_for_rollout(program));
}

/// Random pass prefixes, checking the analyses of every function after
/// every pass.
void run_prefixes(const Module& program, std::uint64_t seed, const std::string& name) {
  Rng rng(seed);
  for (int trial = 0; trial < 3; ++trial) {
    auto m = copy_for_trial(program, trial);
    const std::string where = name + " trial " + std::to_string(trial);
    for (Function* f : m->functions()) check_function(*f, where + " step 0");
    const int steps = static_cast<int>(rng.uniform_int(4, 16));
    for (int step = 1; step <= steps; ++step) {
      const int pass = static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1));
      passes::apply_pass(*m, pass);
      const std::string pass_name(passes::PassRegistry::instance().name(pass));
      const std::string at = where + " step " + std::to_string(step) + " " + pass_name;
      for (Function* f : m->functions()) check_function(*f, at);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

class AnalysesOnKernel : public ::testing::TestWithParam<std::string> {};

TEST_P(AnalysesOnKernel, MatchOracles) {
  auto m = progen::build_chstone_like(GetParam());
  run_prefixes(*m, fnv1a(GetParam()), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllKernels, AnalysesOnKernel,
                         ::testing::ValuesIn(progen::chstone_benchmark_names()),
                         [](const auto& info) { return info.param; });

class AnalysesOnRandomProgram : public ::testing::TestWithParam<int> {};

TEST_P(AnalysesOnRandomProgram, MatchOracles) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  auto m = progen::generate_filtered_program(seed * 7919u + 3u);
  run_prefixes(*m, seed, "random " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysesOnRandomProgram, ::testing::Range(1, 25));

}  // namespace
}  // namespace autophase::ir
