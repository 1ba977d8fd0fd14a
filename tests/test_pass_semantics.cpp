// The central property-based suite: every Table-1 pass must preserve the
// observable behaviour of every program — return value and global-memory
// checksum — and must leave the module verifier-clean. Exercised over the
// nine CHStone-like kernels and a population of random programs, plus the
// -O3 pipeline and random pass sequences (the exact traffic the RL
// environment generates).
#include <gtest/gtest.h>

#include <sstream>

#include "interp/interpreter.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "passes/pass.hpp"
#include "passes/pipelines.hpp"
#include "progen/chstone_like.hpp"
#include "progen/random_program.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace autophase {
namespace {

struct Observed {
  std::int64_t ret = 0;
  std::uint64_t mem = 0;
  bool ok = false;
};

Observed observe(const ir::Module& m) {
  interp::InterpreterOptions opts;
  opts.max_instructions = 50'000'000;
  auto run = interp::run_module(m, opts);
  if (!run.is_ok()) return {};
  return {run.value().return_value, run.value().memory_checksum, true};
}

void expect_equivalent(const Observed& before, const ir::Module& m, const std::string& what) {
  ASSERT_TRUE(before.ok) << what << ": baseline failed to run";
  const Status v = ir::verify_module(const_cast<ir::Module&>(m));
  ASSERT_TRUE(v.is_ok()) << what << ": " << v.message();
  const Observed after = observe(m);
  ASSERT_TRUE(after.ok) << what << ": transformed module failed to run";
  EXPECT_EQ(before.ret, after.ret) << what << ": return value changed";
  EXPECT_EQ(before.mem, after.mem) << what << ": global memory changed";
}

// ---- Each pass individually preserves semantics on every kernel ----

class PassOnKernel : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PassOnKernel, PreservesSemantics) {
  const auto& [bench, pass_index] = GetParam();
  auto m = progen::build_chstone_like(bench);
  const Observed before = observe(*m);
  passes::apply_pass(*m, pass_index);
  expect_equivalent(
      before, *m,
      bench + " after " + std::string(passes::PassRegistry::instance().name(pass_index)));
}

std::vector<std::tuple<std::string, int>> kernel_pass_grid() {
  std::vector<std::tuple<std::string, int>> grid;
  for (const auto& name : progen::chstone_benchmark_names()) {
    for (int p = 0; p < passes::kNumPasses; ++p) grid.emplace_back(name, p);
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(AllKernelsAllPasses, PassOnKernel,
                         ::testing::ValuesIn(kernel_pass_grid()),
                         [](const auto& info) {
                           auto name = std::get<0>(info.param) + "_pass" +
                                       std::to_string(std::get<1>(info.param));
                           return name;
                         });

// ---- Each pass preserves semantics after mem2reg canonicalisation ----
// (different input shape: SSA values instead of allocas)

class PassOnSSAKernel : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PassOnSSAKernel, PreservesSemantics) {
  const auto& [bench, pass_index] = GetParam();
  auto m = progen::build_chstone_like(bench);
  passes::apply_pass(*m, passes::PassRegistry::instance().index_of("-mem2reg"));
  passes::apply_pass(*m, passes::PassRegistry::instance().index_of("-loop-simplify"));
  const Observed before = observe(*m);
  passes::apply_pass(*m, pass_index);
  expect_equivalent(before, *m, bench + "+mem2reg after " +
                                    std::string(passes::PassRegistry::instance().name(pass_index)));
}

INSTANTIATE_TEST_SUITE_P(AllKernelsAllPassesSSA, PassOnSSAKernel,
                         ::testing::ValuesIn(kernel_pass_grid()),
                         [](const auto& info) {
                           auto name = std::get<0>(info.param) + "_pass" +
                                       std::to_string(std::get<1>(info.param));
                           return name;
                         });

// ---- -O3 pipeline preserves semantics and does not regress cycles ----

class O3OnKernel : public ::testing::TestWithParam<std::string> {};

TEST_P(O3OnKernel, PreservesSemantics) {
  auto m = progen::build_chstone_like(GetParam());
  const Observed before = observe(*m);
  passes::run_o3(*m);
  expect_equivalent(before, *m, GetParam() + " after -O3");
}

INSTANTIATE_TEST_SUITE_P(AllKernels, O3OnKernel,
                         ::testing::ValuesIn(progen::chstone_benchmark_names()),
                         [](const auto& info) { return info.param; });

// ---- Random pass sequences on random programs (the RL traffic shape) ----

class RandomSequenceOnRandomProgram : public ::testing::TestWithParam<int> {};

TEST_P(RandomSequenceOnRandomProgram, PreservesSemantics) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 77773u + 5u);
  auto m = progen::generate_filtered_program(static_cast<std::uint64_t>(seed));
  Observed current = observe(*m);
  ASSERT_TRUE(current.ok);
  for (int step = 0; step < 24; ++step) {
    const int pass = static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1));
    passes::apply_pass(*m, pass);
    expect_equivalent(current, *m,
                      "seed " + std::to_string(seed) + " step " + std::to_string(step) +
                          " pass " +
                          std::string(passes::PassRegistry::instance().name(pass)));
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "failing module:\n" << ir::print_module(*m);
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSequenceOnRandomProgram, ::testing::Range(1, 25));

// ---- Random sequences on kernels ----

class RandomSequenceOnKernel : public ::testing::TestWithParam<std::string> {};

TEST_P(RandomSequenceOnKernel, PreservesSemantics) {
  Rng rng(fnv1a(GetParam()));
  for (int trial = 0; trial < 4; ++trial) {
    auto m = progen::build_chstone_like(GetParam());
    const Observed before = observe(*m);
    std::vector<int> seq;
    for (int step = 0; step < 20; ++step) {
      seq.push_back(static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1)));
    }
    passes::apply_pass_sequence(*m, seq);
    std::string desc = GetParam() + " sequence";
    for (int p : seq) desc += " " + std::to_string(p);
    expect_equivalent(before, *m, desc);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, RandomSequenceOnKernel,
                         ::testing::ValuesIn(progen::chstone_benchmark_names()),
                         [](const auto& info) { return info.param; });

// ---- Regressions from random candidates ----

// -correlated-propagation asked the dominator tree about the region under an
// unreachable conditional branch and crashed.
TEST(CorrelatedPropagation, SkipsUnreachableBranches) {
  auto m = progen::generate_filtered_program(448148495473631327ull);
  const Observed before = observe(*m);
  std::istringstream repro(
      "36 18 16 36 37 16 43 25 40 10 27 10 18 42 23 21 8 37 41 35 39 12 12 25 0");
  std::vector<int> seq;
  for (int pass = 0; repro >> pass;) seq.push_back(pass);
  ASSERT_EQ(seq.size(), 25u);
  passes::apply_pass_sequence(*m, seq);
  expect_equivalent(before, *m, "program 448148495473631327 after the repro sequence");
}

}  // namespace
}  // namespace autophase
