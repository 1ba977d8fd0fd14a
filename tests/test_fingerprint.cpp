// Module fingerprint contracts.
//
// Golden values: the fingerprints of the nine kernels and of three seeded
// random programs after a fixed pass prefix are pinned, so any printer edit
// that moves a byte of the printed form (and so every cache key, artifact
// baseline and provenance fingerprint) fails here.
//
// No-change contract: the evaluation paths carry a module's fingerprint
// across a pass that reports no change instead of hashing it again. That is
// sound only if every Table-1 pass that returns false leaves the printed
// module byte-identical, which is checked here on the nine kernels and on
// seeded random programs, on CoW rollout clones and on deep clones. Every
// intermediate module also checks the streamed fingerprint against its
// reference definition, the FNV-1a hash of the printed text.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "passes/pass.hpp"
#include "progen/chstone_like.hpp"
#include "progen/random_program.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace autophase::ir {
namespace {

// Captured from the string-building printer that predates the streaming
// sink; the streaming printer must reproduce them bit for bit.
TEST(FingerprintGolden, Kernels) {
  const std::vector<std::pair<std::string, std::uint64_t>> golden = {
      {"adpcm", 0x9cc00c660437f132ULL},    {"aes", 0xdb0f0ef7f655de53ULL},
      {"blowfish", 0xa16dc3bf8bfc41afULL}, {"dhrystone", 0xcfb776586a99c455ULL},
      {"gsm", 0x48650db0bef363e6ULL},      {"matmul", 0x359116846c64066fULL},
      {"mpeg2", 0x9171110bca598608ULL},    {"qsort", 0x3856b87b1d5ad759ULL},
      {"sha", 0xdc16e060336a855cULL},
  };
  ASSERT_EQ(golden.size(), progen::chstone_benchmark_names().size());
  for (const auto& [name, fingerprint] : golden) {
    const auto m = progen::build_chstone_like(name);
    EXPECT_EQ(module_fingerprint(*m), fingerprint) << name;
    EXPECT_EQ(module_fingerprint(*clone_module_for_rollout(*m)), fingerprint) << name;
  }
}

TEST(FingerprintGolden, RandomProgramsAfterPrefix) {
  // mem2reg instcombine simplifycfg inline gvn loop-rotate licm sccp adce
  // strip: the last one drops every name, so slot-only labels are pinned too.
  const std::vector<int> prefix = {38, 30, 31, 25, 7, 23, 36, 5, 28, 3};
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> golden = {
      {11, 0xc82147494bdb3defULL},
      {2024, 0x900ede60abd82541ULL},
      {448148495473631327ULL, 0x71b58dcc92fe8e7eULL},
  };
  for (const auto& [seed, fingerprint] : golden) {
    const auto program = progen::generate_filtered_program(seed);
    auto m = clone_module_for_rollout(*program);
    passes::apply_pass_sequence(*m, prefix);
    EXPECT_EQ(module_fingerprint(*m), fingerprint) << "seed " << seed;
  }
}

/// Applies `pass` and checks the contract: when the pass reports no change,
/// the printed module must not have moved; either way the streamed
/// fingerprint must equal its reference definition. Returns apply_pass's
/// result.
bool apply_and_check(Module& m, int pass, const std::string& where) {
  const std::string before = print_module(m);
  const bool changed = passes::apply_pass(m, pass);
  const std::string at =
      where + " after " + std::string(passes::PassRegistry::instance().name(pass));
  if (!changed) EXPECT_EQ(print_module(m), before) << at << " reported no change";
  EXPECT_EQ(module_fingerprint(m), fnv1a(print_module(m))) << at;
  return changed;
}

/// Two seeded shuffled rounds over every Table-1 pass, on a rollout clone
/// and on a deep clone of `program`. In the first round each pass repeats
/// (up to three times) until it reports no change, which is where most
/// passes exercise the contract; the second applies each once more to the
/// transformed module. Marks in `unchanged` every pass that reported no
/// change at least once.
void check_no_change_contract(const Module& program, std::uint64_t seed, const std::string& name,
                              std::vector<char>& unchanged) {
  unchanged.resize(passes::kNumPasses, 0);
  Rng rng(seed);
  std::vector<int> order(passes::kNumPasses);
  std::iota(order.begin(), order.end(), 0);
  for (const bool rollout : {true, false}) {
    auto m = rollout ? clone_module_for_rollout(program) : clone_module(program);
    const std::string where = name + (rollout ? " (rollout clone)" : " (deep clone)");
    ASSERT_EQ(module_fingerprint(*m), fnv1a(print_module(*m))) << where;
    rng.shuffle(order);
    for (const int pass : order) {
      for (int repeat = 0; repeat < 3; ++repeat) {
        if (!apply_and_check(*m, pass, where)) {
          unchanged[static_cast<std::size_t>(pass)] = 1;
          break;
        }
      }
    }
    rng.shuffle(order);
    for (const int pass : order) {
      if (!apply_and_check(*m, pass, where)) unchanged[static_cast<std::size_t>(pass)] = 1;
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << where;
  }
}

class NoChangeContractOnKernel : public ::testing::TestWithParam<std::string> {};

TEST_P(NoChangeContractOnKernel, UnchangedMeansSameBytes) {
  const auto m = progen::build_chstone_like(GetParam());
  std::vector<char> unchanged;
  check_no_change_contract(*m, fnv1a(GetParam()), GetParam(), unchanged);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, NoChangeContractOnKernel,
                         ::testing::ValuesIn(progen::chstone_benchmark_names()),
                         [](const auto& info) { return info.param; });

class NoChangeContractOnRandomProgram : public ::testing::TestWithParam<int> {};

TEST_P(NoChangeContractOnRandomProgram, UnchangedMeansSameBytes) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto m = progen::generate_filtered_program(seed * 6151u + 17u);
  std::vector<char> unchanged;
  check_no_change_contract(*m, seed, "random " + std::to_string(seed), unchanged);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoChangeContractOnRandomProgram, ::testing::Range(1, 13));

// The contract is vacuous for a pass that never reports no change, so every
// Table-1 pass must do so somewhere on the kernels.
TEST(NoChangeContract, EveryPassExercisedOnKernels) {
  std::vector<char> unchanged;
  for (const std::string& name : progen::chstone_benchmark_names()) {
    check_no_change_contract(*progen::build_chstone_like(name), fnv1a(name), name, unchanged);
  }
  for (int pass = 0; pass < passes::kNumPasses; ++pass) {
    EXPECT_NE(unchanged[static_cast<std::size_t>(pass)], 0)
        << passes::PassRegistry::instance().name(pass) << " never reported no change";
  }
}

}  // namespace
}  // namespace autophase::ir
