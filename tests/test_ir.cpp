#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/cfg.hpp"
#include "ir/clone.hpp"
#include "ir/dominators.hpp"
#include "ir/fold.hpp"
#include "ir/loop_info.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "interp/interpreter.hpp"
#include "progen/chstone_like.hpp"

namespace autophase::ir {
namespace {

TEST(Type, Interning) {
  EXPECT_EQ(Type::i32(), Type::i32());
  EXPECT_EQ(Type::pointer_to(Type::i32()), Type::pointer_to(Type::i32()));
  EXPECT_NE(Type::i32(), Type::i64());
  EXPECT_NE(Type::pointer_to(Type::i8()), Type::pointer_to(Type::i32()));
}

TEST(Type, Sizes) {
  EXPECT_EQ(Type::i1()->size_in_bytes(), 1u);
  EXPECT_EQ(Type::i8()->size_in_bytes(), 1u);
  EXPECT_EQ(Type::i16()->size_in_bytes(), 2u);
  EXPECT_EQ(Type::i32()->size_in_bytes(), 4u);
  EXPECT_EQ(Type::i64()->size_in_bytes(), 8u);
  EXPECT_EQ(Type::pointer_to(Type::i8())->size_in_bytes(), 8u);
}

TEST(Printer, TypeText) {
  Module m("t");
  Type* i8_ptr_ptr = Type::pointer_to(Type::pointer_to(Type::i8()));
  Function* f =
      m.create_function("f", Type::i32(), {Type::pointer_to(Type::i16()), i8_ptr_ptr}, {"p", "q"});
  IRBuilder b(m);
  b.set_insert_point(f->create_block("entry"));
  b.ret(m.get_i32(0));
  EXPECT_EQ(print_function(*f),
            "define i32 @f(i16* %p.0, i8** %q.1) {\nentry.0:\n  ret i32 0\n}\n");
}

TEST(Module, ConstantInterning) {
  Module m("t");
  EXPECT_EQ(m.get_i32(5), m.get_i32(5));
  EXPECT_NE(m.get_i32(5), m.get_i32(6));
  EXPECT_NE(m.get_i32(5), m.get_i64(5));
  // Width canonicalisation: i8 255 == i8 -1.
  EXPECT_EQ(m.get_int(Type::i8(), 255), m.get_int(Type::i8(), -1));
}

/// Builds: main() { x = a + b; return x * x; } with args replaced by consts.
std::unique_ptr<Module> tiny_module() {
  auto m = std::make_unique<Module>("tiny");
  Function* f = m->create_function("main", Type::i32(), {});
  BasicBlock* bb = f->create_block("entry");
  IRBuilder b(*m);
  b.set_insert_point(bb);
  Value* x = b.add(m->get_i32(2), m->get_i32(3), "x");
  Value* y = b.mul(x, x, "y");
  b.ret(y);
  return m;
}

TEST(UseLists, TrackUsersWithMultiplicity) {
  auto m = tiny_module();
  BasicBlock* bb = m->main()->entry();
  Instruction* add = bb->inst(0);
  Instruction* mul = bb->inst(1);
  // mul uses add twice.
  ASSERT_EQ(add->users().size(), 2u);
  EXPECT_EQ(add->users()[0], mul);
  EXPECT_EQ(add->users()[1], mul);
}

TEST(UseLists, ReplaceAllUsesWith) {
  auto m = tiny_module();
  BasicBlock* bb = m->main()->entry();
  Instruction* add = bb->inst(0);
  Instruction* mul = bb->inst(1);
  add->replace_all_uses_with(m->get_i32(7));
  EXPECT_FALSE(add->has_users());
  EXPECT_EQ(mul->operand(0), m->get_i32(7));
  EXPECT_EQ(mul->operand(1), m->get_i32(7));
  add->erase_from_parent();
  EXPECT_EQ(bb->size(), 2u);
}

TEST(UseLists, EraseUnregistersOperands) {
  auto m = tiny_module();
  BasicBlock* bb = m->main()->entry();
  Instruction* add = bb->inst(0);
  Instruction* mul = bb->inst(1);
  Instruction* ret = bb->inst(2);
  ret->erase_from_parent();
  mul->erase_from_parent();
  EXPECT_FALSE(add->has_users());
}

TEST(Cfg, PredecessorMaintenance) {
  Module m("cfg");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* a = f->create_block("a");
  BasicBlock* b1 = f->create_block("b");
  BasicBlock* c = f->create_block("c");
  IRBuilder b(m);
  b.set_insert_point(a);
  Value* cond = m.get_i1(true);
  b.cond_br(cond, b1, c);
  b.set_insert_point(b1);
  b.br(c);
  b.set_insert_point(c);
  b.ret(m.get_i32(0));

  EXPECT_EQ(c->predecessors().size(), 2u);
  EXPECT_TRUE(c->has_predecessor(a));
  EXPECT_TRUE(c->has_predecessor(b1));
  // Retarget a's edge away from c.
  a->terminator()->replace_successor(c, b1);
  EXPECT_EQ(c->predecessors().size(), 1u);
  EXPECT_EQ(b1->predecessors().size(), 2u);
}

TEST(Cfg, SplitEdgeFixesPhis) {
  Module m("split");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* a = f->create_block("a");
  BasicBlock* b1 = f->create_block("b");
  BasicBlock* join = f->create_block("j");
  IRBuilder b(m);
  b.set_insert_point(a);
  b.cond_br(m.get_i1(true), b1, join);  // a->join is critical if join has 2 preds
  b.set_insert_point(b1);
  b.br(join);
  b.set_insert_point(join);
  Instruction* phi = b.phi(Type::i32(), "p");
  phi->add_incoming(m.get_i32(1), a);
  phi->add_incoming(m.get_i32(2), b1);
  b.ret(phi);

  ASSERT_TRUE(is_critical_edge(a, join));
  BasicBlock* mid = split_edge(a, join, "mid");
  EXPECT_EQ(phi->incoming_for_block(mid), m.get_i32(1));
  EXPECT_EQ(phi->incoming_index_for(a), -1);
  EXPECT_TRUE(verify_function(*f).is_ok());
}

TEST(Cfg, RemoveUnreachableFixesPhis) {
  Module m("unreach");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* a = f->create_block("a");
  BasicBlock* dead = f->create_block("dead");
  BasicBlock* join = f->create_block("j");
  IRBuilder b(m);
  b.set_insert_point(a);
  b.br(join);
  b.set_insert_point(dead);
  b.br(join);
  b.set_insert_point(join);
  Instruction* phi = b.phi(Type::i32(), "p");
  phi->add_incoming(m.get_i32(1), a);
  phi->add_incoming(m.get_i32(2), dead);
  b.ret(phi);

  EXPECT_EQ(remove_unreachable_blocks(*f), 1u);
  EXPECT_EQ(phi->incoming_count(), 1u);
  EXPECT_TRUE(verify_function(*f).is_ok());
}

TEST(Cfg, MergeBlockIntoPredecessor) {
  Module m("merge");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* a = f->create_block("a");
  BasicBlock* b1 = f->create_block("b");
  IRBuilder b(m);
  b.set_insert_point(a);
  Value* x = b.add(m.get_i32(1), m.get_i32(2));
  b.br(b1);
  b.set_insert_point(b1);
  Value* y = b.mul(x, m.get_i32(3));
  b.ret(y);

  EXPECT_NE(merge_block_into_predecessor(b1), nullptr);
  EXPECT_EQ(f->block_count(), 1u);
  EXPECT_TRUE(verify_function(*f).is_ok());
}

TEST(Dominators, DiamondDominance) {
  Module m("dom");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* a = f->create_block("a");
  BasicBlock* t = f->create_block("t");
  BasicBlock* e = f->create_block("e");
  BasicBlock* j = f->create_block("j");
  IRBuilder b(m);
  b.set_insert_point(a);
  b.cond_br(m.get_i1(true), t, e);
  b.set_insert_point(t);
  b.br(j);
  b.set_insert_point(e);
  b.br(j);
  b.set_insert_point(j);
  b.ret(m.get_i32(0));

  DominatorTree dt(*f);
  EXPECT_TRUE(dt.dominates(a, j));
  EXPECT_FALSE(dt.dominates(t, j));
  EXPECT_EQ(dt.idom(j), a);
  EXPECT_EQ(dt.idom(t), a);
  EXPECT_EQ(dt.idom(a), nullptr);
  const auto df = dt.dominance_frontiers();
  const auto& t_df = df.at(t);
  ASSERT_EQ(t_df.size(), 1u);
  EXPECT_EQ(t_df[0], j);
}

TEST(BasicBlock, NumbersAreDenseAndNeverReused) {
  Module m("num");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* a = f->create_block("a");
  BasicBlock* b = f->create_block("b");
  BasicBlock* c = f->create_block_after(a, "c");
  EXPECT_EQ(a->number(), 0u);
  EXPECT_EQ(b->number(), 1u);
  EXPECT_EQ(c->number(), 2u);
  EXPECT_EQ(f->block_number_bound(), 3u);
  f->erase_block(b);
  BasicBlock* d = f->create_block("d");
  EXPECT_EQ(d->number(), 3u);
  EXPECT_EQ(f->block_number_bound(), 4u);
  // Numbers are per function.
  Function* g = m.create_function("g", Type::i32(), {});
  EXPECT_EQ(g->create_block("entry")->number(), 0u);
}

TEST(BasicBlock, NumbersNeverReachThePrinter) {
  // The same loop built twice; the second function burns block numbers
  // first, so every block number differs between the two.
  const auto build = [](unsigned skipped) {
    auto m = std::make_unique<Module>("num");
    Function* f = m->create_function("main", Type::i32(), {});
    for (unsigned i = 0; i < skipped; ++i) f->erase_block(f->create_block("skip"));
    BasicBlock* entry = f->create_block("entry");
    BasicBlock* header = f->create_block("header");
    BasicBlock* exit = f->create_block("exit");
    IRBuilder b(*m);
    b.set_insert_point(entry);
    b.br(header);
    b.set_insert_point(header);
    Instruction* iv = b.phi(Type::i32(), "i");
    Value* next = b.add(iv, m->get_i32(1), "next");
    b.cond_br(b.icmp_slt(next, m->get_i32(10)), header, exit);
    iv->add_incoming(m->get_i32(0), entry);
    iv->add_incoming(next, header);
    b.set_insert_point(exit);
    b.ret(next);
    return m;
  };
  const auto a = build(0);
  const auto b = build(5);
  EXPECT_NE(a->main()->entry()->number(), b->main()->entry()->number());
  EXPECT_EQ(print_module(*a), print_module(*b));
  EXPECT_EQ(module_fingerprint(*a), module_fingerprint(*b));
}

/// entry -> {t, e} -> j, plus `dead` (no predecessors) branching to j.
struct DiamondWithDeadBlock {
  Module m{"dead"};
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* entry = f->create_block("entry");
  BasicBlock* t = f->create_block("t");
  BasicBlock* e = f->create_block("e");
  BasicBlock* dead = f->create_block("dead");
  BasicBlock* j = f->create_block("j");
  Value* x = nullptr;
  Instruction* phi = nullptr;

  DiamondWithDeadBlock() {
    IRBuilder b(m);
    b.set_insert_point(entry);
    x = b.add(m.get_i32(2), m.get_i32(3), "x");
    b.cond_br(m.get_i1(true), t, e);
    b.set_insert_point(t);
    b.br(j);
    b.set_insert_point(e);
    b.br(j);
    b.set_insert_point(dead);
    b.br(j);
    b.set_insert_point(j);
    phi = b.phi(Type::i32(), "p");
    phi->add_incoming(x, t);
    phi->add_incoming(x, e);
    phi->add_incoming(x, dead);
    b.ret(phi);
  }
};

TEST(Dominators, QueriesOutsideTheTreeAreDefined) {
  DiamondWithDeadBlock d;
  DominatorTree dt(*d.f);
  EXPECT_FALSE(dt.is_reachable(d.dead));
  EXPECT_EQ(dt.rpo_index(d.dead), -1);
  EXPECT_EQ(dt.idom(d.dead), nullptr);
  EXPECT_TRUE(dt.children(d.dead).empty());
  // As in LLVM: an unreachable block is dominated by every block and
  // dominates no reachable one.
  EXPECT_TRUE(dt.dominates(d.entry, d.dead));
  EXPECT_TRUE(dt.dominates(d.j, d.dead));
  EXPECT_TRUE(dt.dominates(d.dead, d.dead));
  EXPECT_FALSE(dt.dominates(d.dead, d.j));
  EXPECT_FALSE(dt.dominates(d.dead, d.entry));
  EXPECT_FALSE(dt.strictly_dominates(d.dead, d.dead));

  // Blocks created after the build and blocks of other functions are
  // outside the tree too, even when their number is in range.
  BasicBlock* late = d.f->create_block("late");
  EXPECT_FALSE(dt.is_reachable(late));
  EXPECT_FALSE(dt.dominates(late, d.j));
  Function* g = d.m.create_function("g", Type::i32(), {});
  BasicBlock* other = g->create_block("entry");
  EXPECT_EQ(other->number(), d.entry->number());
  EXPECT_FALSE(dt.is_reachable(other));
  EXPECT_EQ(dt.rpo_index(other), -1);
  EXPECT_EQ(dt.rpo_index(d.entry), 0);
}

TEST(Verifier, PhiUseOnEdgeFromUnreachableBlock) {
  // The use of x on the edge dead -> j never executes, so x dominates it;
  // the verifier used to assert on the dominance query instead.
  DiamondWithDeadBlock d;
  DominatorTree dt(*d.f);
  EXPECT_TRUE(dt.value_dominates(d.x, d.phi, 2));
  EXPECT_TRUE(dt.value_dominates(d.x, d.phi, 0));
  EXPECT_TRUE(verify_function(*d.f).is_ok());
}

TEST(LoopInfo, SimpleLoopStructure) {
  Module m("loop");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* entry = f->create_block("entry");
  BasicBlock* header = f->create_block("header");
  BasicBlock* body = f->create_block("body");
  BasicBlock* exit = f->create_block("exit");
  IRBuilder b(m);
  b.set_insert_point(entry);
  b.br(header);
  b.set_insert_point(header);
  Instruction* iv = b.phi(Type::i32(), "i");
  Value* cmp = b.icmp_slt(iv, m.get_i32(10));
  b.cond_br(cmp, body, exit);
  b.set_insert_point(body);
  Value* next = b.add(iv, m.get_i32(1));
  b.br(header);
  iv->add_incoming(m.get_i32(0), entry);
  iv->add_incoming(next, body);
  b.set_insert_point(exit);
  b.ret(m.get_i32(0));

  ASSERT_TRUE(verify_function(*f).is_ok());
  DominatorTree dt(*f);
  LoopInfo li(*f, dt);
  ASSERT_EQ(li.top_level().size(), 1u);
  const Loop* loop = li.top_level()[0];
  EXPECT_EQ(loop->header(), header);
  EXPECT_EQ(loop->preheader(), entry);
  EXPECT_EQ(loop->latch(), body);
  EXPECT_EQ(loop->depth(), 1);
  ASSERT_EQ(loop->exit_blocks().size(), 1u);
  EXPECT_EQ(loop->exit_blocks()[0], exit);
  EXPECT_TRUE(loop->has_dedicated_exits());
  EXPECT_EQ(li.depth_of(body), 1);
  EXPECT_EQ(li.depth_of(entry), 0);
}

TEST(LoopInfo, BlocksOutsideTheAnalysis) {
  auto m = progen::build_chstone_like("matmul");
  Function* f = m->main();
  DominatorTree dt(*f);
  LoopInfo li(*f, dt);
  ASSERT_FALSE(li.top_level().empty());
  const Loop* loop = li.top_level()[0];
  BasicBlock* late = f->create_block("late");
  EXPECT_EQ(li.loop_for(late), nullptr);
  EXPECT_EQ(li.depth_of(late), 0);
  EXPECT_FALSE(loop->contains(late));
  EXPECT_FALSE(loop->contains(static_cast<const BasicBlock*>(nullptr)));
  for (const BasicBlock* bb : loop->blocks()) EXPECT_TRUE(loop->contains(bb));
  // A block of another function whose number equals the header's.
  Function* g = m->create_function("other", Type::i32(), {});
  BasicBlock* alien = g->create_block("alien");
  while (alien->number() < loop->header()->number()) alien = g->create_block("alien");
  EXPECT_FALSE(loop->contains(alien));
  EXPECT_EQ(li.loop_for(alien), nullptr);
}

TEST(LoopInfo, NestedLoopsDepth) {
  auto m = progen::build_chstone_like("matmul");
  Function* f = m->main();
  DominatorTree dt(*f);
  LoopInfo li(*f, dt);
  int max_depth = 0;
  for (const Loop* l : li.all_loops()) max_depth = std::max(max_depth, l->depth());
  EXPECT_EQ(max_depth, 3);  // the i/j/k nest
  // Innermost-first ordering puts depth-3 loops before depth-1 loops.
  const auto inner_first = li.loops_innermost_first();
  EXPECT_GE(inner_first.front()->depth(), inner_first.back()->depth());
}

TEST(Verifier, CatchesMissingTerminator) {
  Module m("bad");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* bb = f->create_block("entry");
  IRBuilder b(m);
  b.set_insert_point(bb);
  b.add(m.get_i32(1), m.get_i32(2));
  EXPECT_FALSE(verify_function(*f).is_ok());
}

TEST(Verifier, CatchesUseBeforeDef) {
  Module m("bad2");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* bb = f->create_block("entry");
  IRBuilder b(m);
  b.set_insert_point(bb);
  Value* x = b.add(m.get_i32(1), m.get_i32(2), "x");
  Value* y = b.add(x, m.get_i32(1), "y");
  b.ret(y);
  // Move y before x.
  auto owned = bb->take(static_cast<Instruction*>(y));
  bb->insert_at(0, std::move(owned));
  EXPECT_FALSE(verify_function(*f).is_ok());
}

TEST(Verifier, AcceptsAllKernels) {
  for (const auto& name : progen::chstone_benchmark_names()) {
    auto m = progen::build_chstone_like(name);
    EXPECT_TRUE(verify_module(*m).is_ok()) << name;
  }
}

TEST(Printer, DeterministicAndDistinct) {
  auto a = progen::build_chstone_like("sha");
  auto b = progen::build_chstone_like("sha");
  EXPECT_EQ(print_module(*a), print_module(*b));
  EXPECT_EQ(module_fingerprint(*a), module_fingerprint(*b));
  auto c = progen::build_chstone_like("aes");
  EXPECT_NE(module_fingerprint(*a), module_fingerprint(*c));
}

TEST(Clone, ModuleCloneIsDeepAndEquivalent) {
  auto m = progen::build_chstone_like("gsm");
  auto copy = clone_module(*m);
  EXPECT_TRUE(verify_module(*copy).is_ok());
  EXPECT_EQ(print_module(*m), print_module(*copy));
  // Mutating the copy must not affect the original.
  const std::string before = print_module(*m);
  IRBuilder b(*copy);
  Function* f = copy->main();
  f->entry()->insert_at(0, Instruction::alloca_inst(Type::i32(), 1, "extra"));
  EXPECT_NE(print_module(*copy), before);
  EXPECT_EQ(print_module(*m), before);
  EXPECT_TRUE(verify_module(*copy).is_ok());
}

TEST(Clone, ExecutionMatches) {
  auto m = progen::build_chstone_like("adpcm");
  auto copy = clone_module(*m);
  auto r1 = interp::run_module(*m);
  auto r2 = interp::run_module(*copy);
  ASSERT_TRUE(r1.is_ok());
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(r1.value().return_value, r2.value().return_value);
  EXPECT_EQ(r1.value().memory_checksum, r2.value().memory_checksum);
}

TEST(Fold, BinaryMatchesTwosComplement) {
  EXPECT_EQ(fold_binary_op(Opcode::kAdd, 0x7fffffff, 1, 32), INT32_MIN);
  EXPECT_EQ(fold_binary_op(Opcode::kSDiv, 5, 0, 32), 0);
  EXPECT_EQ(fold_binary_op(Opcode::kUDiv, -1, 2, 32), 0x7fffffff);
  EXPECT_EQ(fold_binary_op(Opcode::kShl, 1, 33, 32), 2);  // shift amount mod 32
  EXPECT_EQ(fold_binary_op(Opcode::kAShr, -8, 1, 32), -4);
  EXPECT_EQ(fold_binary_op(Opcode::kLShr, -8, 1, 32), 0x7ffffffc);
  EXPECT_EQ(fold_binary_op(Opcode::kSRem, -7, 3, 32), -1);
}

TEST(Fold, ICmpSignedVsUnsigned) {
  EXPECT_TRUE(fold_icmp_op(ICmpPred::kSlt, -1, 0, 32));
  EXPECT_FALSE(fold_icmp_op(ICmpPred::kUlt, -1, 0, 32));  // 0xffffffff > 0
  EXPECT_TRUE(fold_icmp_op(ICmpPred::kUge, -1, 1, 32));
}

}  // namespace
}  // namespace autophase::ir
