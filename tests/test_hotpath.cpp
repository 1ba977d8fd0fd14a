// Hot-path regression suite for the arena/CoW IR, the SoA feature
// extractor, and the blocked batched forward pass. Rides the concurrency
// ctest label (and the TSan leg) because the batch extractor's
// serial-vs-parallel bit-identity is part of the contract under test.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "features/features.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "ml/mlp.hpp"
#include "passes/pass.hpp"
#include "progen/chstone_like.hpp"
#include "rl/env.hpp"
#include "support/thread_pool.hpp"

namespace autophase {
namespace {

// ---------------------------------------------------------------------------
// Arena / CoW allocation accounting
// ---------------------------------------------------------------------------

TEST(HotPath, RolloutCloneAllocatesPerFunctionNotPerInstruction) {
  const auto program = progen::build_chstone_like("mpeg2");
  const std::size_t functions = program->function_count();
  const std::size_t instructions = program->instruction_count();
  ASSERT_GT(instructions, 100u) << "corpus program too small to be meaningful";

  const auto rollout = ir::clone_module_for_rollout(*program);
  ASSERT_NE(rollout->arena(), nullptr);
  const std::size_t lazy_allocs = rollout->arena()->allocation_count();

  const auto eager = ir::clone_module(*program);
  ASSERT_NE(eager->arena(), nullptr);
  const std::size_t eager_allocs = eager->arena()->allocation_count();

  // The lazy clone allocates signatures/args/globals only: a small constant
  // per function, nothing per instruction. The eager clone owns every node.
  EXPECT_GE(eager_allocs, instructions);
  EXPECT_LT(lazy_allocs, eager_allocs / 4);
  EXPECT_LT(lazy_allocs, 16 * (functions + 1) + 2 * program->global_count());

  // Materialisation brings the lazy clone up to the eager clone's footprint.
  rollout->materialize_all();
  EXPECT_GE(rollout->arena()->allocation_count(), eager_allocs / 2);
  EXPECT_FALSE(rollout->has_lazy_functions());
}

TEST(HotPath, FingerprintingRolloutCloneStaysLazy) {
  const auto program = progen::build_chstone_like("qsort");
  const auto rollout = ir::clone_module_for_rollout(*program);
  const std::size_t before = rollout->arena()->allocation_count();
  // Printing/fingerprinting reads through the CoW source; no deep copy.
  EXPECT_EQ(ir::module_fingerprint(*rollout), ir::module_fingerprint(*program));
  EXPECT_EQ(rollout->arena()->allocation_count(), before);
  EXPECT_TRUE(rollout->has_lazy_functions());
}

TEST(HotPath, ConcurrentFingerprintsOfRolloutClonesOnlyReadTheSource) {
  // Unmutated rollout clones print their source's body, and env lanes
  // resetting onto one program do so from several threads at once: the
  // printer must only read it (this is the race check on the TSan leg).
  const auto program = progen::build_chstone_like("gsm");
  const std::uint64_t expected = ir::module_fingerprint(*program);
  const std::string text = ir::print_module(*program);
  std::vector<std::uint64_t> fingerprints(16, 0);
  std::vector<std::string> texts(fingerprints.size());
  ThreadPool pool(4);
  pool.parallel_for(fingerprints.size(), [&](std::size_t i) {
    const auto rollout = ir::clone_module_for_rollout(*program);
    fingerprints[i] = ir::module_fingerprint(*rollout);
    texts[i] = ir::print_module(*rollout);
  });
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[i], expected);
    EXPECT_EQ(texts[i], text);
  }
}

TEST(HotPath, RolloutCloneBitIdenticalPrintAfterPasses) {
  const auto program = progen::build_chstone_like("gsm");
  const std::vector<int> sequence = {38, 30, 31, 7, 28};  // mem2reg..adce mix

  const auto rollout = ir::clone_module_for_rollout(*program);
  const auto eager = ir::clone_module(*program);
  EXPECT_EQ(ir::print_module(*rollout), ir::print_module(*eager));

  passes::apply_pass_sequence(*rollout, sequence);
  passes::apply_pass_sequence(*eager, sequence);
  EXPECT_EQ(ir::print_module(*rollout), ir::print_module(*eager));
  EXPECT_EQ(ir::module_fingerprint(*rollout), ir::module_fingerprint(*eager));
  // And neither drifted from what a pass run on the pristine source yields.
  const auto reference = ir::clone_module(*program);
  passes::apply_pass_sequence(*reference, sequence);
  EXPECT_EQ(ir::print_module(*rollout), ir::print_module(*reference));
}

// ---------------------------------------------------------------------------
// SoA feature extraction
// ---------------------------------------------------------------------------

TEST(HotPath, BatchFeaturesMatchScalarExtractor) {
  std::vector<std::unique_ptr<ir::Module>> owned;
  for (const char* name : {"sha", "qsort", "gsm", "matmul"}) {
    owned.push_back(progen::build_chstone_like(name));
  }
  std::vector<const ir::Module*> modules;
  for (const auto& m : owned) modules.push_back(m.get());

  const features::BatchFeatures batch = features::extract_features_batch(modules);
  ASSERT_EQ(batch.batch, modules.size());
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const features::FeatureVector fv = features::extract_features(*modules[i]);
    EXPECT_EQ(batch.row(i), fv) << "module " << i;
  }
}

TEST(HotPath, BatchFeaturesSerialEqualsParallel) {
  std::vector<std::unique_ptr<ir::Module>> owned;
  const auto& names = progen::chstone_benchmark_names();
  for (std::size_t i = 0; i < 8; ++i) {
    owned.push_back(progen::build_chstone_like(names[i % names.size()]));
  }
  std::vector<const ir::Module*> modules;
  for (const auto& m : owned) modules.push_back(m.get());

  const features::BatchFeatures serial = features::extract_features_batch(modules, nullptr);
  ThreadPool pool(4);
  const features::BatchFeatures parallel = features::extract_features_batch(modules, &pool);
  EXPECT_EQ(serial.batch, parallel.batch);
  EXPECT_EQ(serial.data, parallel.data);  // bit-identical, not approximately
}

TEST(HotPath, BatchExtractionDoesNotMaterializeRolloutClones) {
  const auto program = progen::build_chstone_like("sha");
  const auto rollout = ir::clone_module_for_rollout(*program);
  const std::size_t before = rollout->arena()->allocation_count();
  const std::vector<const ir::Module*> modules = {rollout.get()};
  const features::BatchFeatures batch = features::extract_features_batch(modules);
  EXPECT_EQ(batch.row(0), features::extract_features(*program));
  EXPECT_EQ(rollout->arena()->allocation_count(), before);
  EXPECT_TRUE(rollout->has_lazy_functions());
}

TEST(HotPath, ObservationBatchMatchesScalarBuilder) {
  std::vector<std::unique_ptr<ir::Module>> owned;
  for (const char* name : {"sha", "qsort", "gsm"}) {
    owned.push_back(progen::build_chstone_like(name));
  }
  std::vector<const ir::Module*> modules;
  for (const auto& m : owned) modules.push_back(m.get());

  rl::EnvConfig config;
  config.observation = rl::ObservationMode::kBoth;
  config.normalization = rl::NormalizationMode::kLog;
  std::vector<int> effective_features;
  for (int i = 0; i < features::kNumFeatures; ++i) effective_features.push_back(i);
  std::vector<std::vector<double>> histograms;
  for (std::size_t i = 0; i < modules.size(); ++i) {
    histograms.emplace_back(46, static_cast<double>(i));
  }

  const auto batched =
      rl::build_observation_batch(modules, histograms, config, effective_features);
  ASSERT_EQ(batched.size(), modules.size());
  for (std::size_t i = 0; i < modules.size(); ++i) {
    EXPECT_EQ(batched[i],
              rl::build_observation(*modules[i], histograms[i], config, effective_features))
        << "module " << i;
  }
}

// ---------------------------------------------------------------------------
// Blocked GEMM / batched forward bit-identity
// ---------------------------------------------------------------------------

TEST(HotPath, BlockedForwardBatchRowsMatchSingleForward) {
  Rng rng(7);
  ml::MlpConfig config;
  config.input = 56;
  config.hidden = {256, 256};
  config.output = 46;
  const ml::Mlp net(config, rng);

  // Enough rows to exercise a partial trailing tile in the blocked matmul.
  const std::size_t batch = 13;
  std::vector<std::vector<double>> rows(batch, std::vector<double>(config.input));
  for (auto& row : rows) {
    for (double& v : row) v = rng.normal(0.0, 1.0);
    row[3] = 0.0;  // exercise the sparse zero-skip path too
  }

  const ml::Matrix batched = net.forward_batch(rows);
  ASSERT_EQ(batched.rows(), batch);
  std::vector<double> flat;
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  const ml::Matrix flat_batched = net.forward_batch(std::move(flat), batch);

  for (std::size_t r = 0; r < batch; ++r) {
    ml::Matrix single(1, config.input);
    std::copy(rows[r].begin(), rows[r].end(), single.row(0));
    const ml::Matrix one = net.forward(single);
    for (std::size_t c = 0; c < config.output; ++c) {
      // Exact equality: batching must never change a served answer.
      EXPECT_EQ(batched.at(r, c), one.at(0, c)) << "row " << r << " col " << c;
      EXPECT_EQ(flat_batched.at(r, c), one.at(0, c)) << "row " << r << " col " << c;
    }
  }
}

}  // namespace
}  // namespace autophase
