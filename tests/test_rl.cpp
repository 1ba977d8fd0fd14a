#include <gtest/gtest.h>

#include <chrono>

#include "progen/chstone_like.hpp"
#include "rl/a3c.hpp"
#include "rl/env.hpp"
#include "rl/es.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"

namespace autophase::rl {
namespace {

TEST(Gae, MatchesHandComputedValues) {
  RolloutBuffer buf;
  // Two transitions, gamma=1, lambda=1 => advantages are MC returns - V.
  Transition t1;
  t1.reward = 1.0;
  t1.value = 0.5;
  Transition t2;
  t2.reward = 2.0;
  t2.value = 0.25;
  t2.done = true;
  buf.transitions = {t1, t2};
  buf.compute_gae(1.0, 1.0, 123.0 /* ignored: last is terminal */);
  EXPECT_NEAR(buf.returns[1], 2.0, 1e-12);
  EXPECT_NEAR(buf.advantages[1], 2.0 - 0.25, 1e-12);
  EXPECT_NEAR(buf.returns[0], 3.0, 1e-12);
  EXPECT_NEAR(buf.advantages[0], 3.0 - 0.5, 1e-12);
}

TEST(Gae, BootstrapsNonTerminalTail) {
  RolloutBuffer buf;
  Transition t;
  t.reward = 1.0;
  t.value = 0.0;
  t.done = false;
  buf.transitions = {t};
  buf.compute_gae(0.5, 1.0, 10.0);
  EXPECT_NEAR(buf.returns[0], 1.0 + 0.5 * 10.0, 1e-12);
}

TEST(Gae, NormalizeAdvantages) {
  RolloutBuffer buf;
  for (int i = 0; i < 4; ++i) {
    Transition t;
    t.reward = i;
    t.done = true;
    buf.transitions.push_back(t);
  }
  buf.compute_gae(0.99, 0.95, 0.0);
  buf.normalize_advantages();
  double mean = 0;
  for (const double a : buf.advantages) mean += a;
  EXPECT_NEAR(mean / 4, 0.0, 1e-9);
}

TEST(Env, ObservationShapes) {
  auto m = progen::build_chstone_like("sha");
  {
    EnvConfig cfg;
    cfg.observation = ObservationMode::kProgramFeatures;
    PhaseOrderEnv env({m.get()}, cfg);
    EXPECT_EQ(env.observation_size(), 56u);
    EXPECT_EQ(env.action_arity(), 45u);
    EXPECT_EQ(env.reset().size(), 56u);
  }
  {
    EnvConfig cfg;
    cfg.observation = ObservationMode::kActionHistogram;
    PhaseOrderEnv env({m.get()}, cfg);
    EXPECT_EQ(env.observation_size(), 45u);
  }
  {
    EnvConfig cfg;
    cfg.observation = ObservationMode::kBoth;
    cfg.include_terminate = true;
    PhaseOrderEnv env({m.get()}, cfg);
    EXPECT_EQ(env.action_arity(), 46u);
    EXPECT_EQ(env.observation_size(), 56u + 46u);
  }
}

TEST(Env, FilteredSpaces) {
  auto m = progen::build_chstone_like("sha");
  EnvConfig cfg;
  cfg.observation = ObservationMode::kBoth;
  cfg.feature_subset = {0, 17, 51};
  cfg.action_subset = {23, 33, 38};  // rotate, unroll, mem2reg
  PhaseOrderEnv env({m.get()}, cfg);
  EXPECT_EQ(env.action_arity(), 3u);
  EXPECT_EQ(env.observation_size(), 3u + 3u);
}

TEST(Env, RewardIsCycleImprovement) {
  auto m = progen::build_chstone_like("gsm");
  EnvConfig cfg;
  cfg.observation = ObservationMode::kActionHistogram;
  PhaseOrderEnv env({m.get()}, cfg);
  env.reset();
  const std::uint64_t before = env.current_cycles();
  // -mem2reg is Table-1 index 38 and a huge win on -O0 IR.
  const StepResult r = env.step({38});
  const std::uint64_t after = env.current_cycles();
  EXPECT_LT(after, before);
  EXPECT_NEAR(r.reward, static_cast<double>(before) - static_cast<double>(after), 1e-9);
  EXPECT_FALSE(r.done);
}

TEST(Env, EpisodeEndsAtLength) {
  auto m = progen::build_chstone_like("sha");
  EnvConfig cfg;
  cfg.episode_length = 3;
  PhaseOrderEnv env({m.get()}, cfg);
  env.reset();
  EXPECT_FALSE(env.step({0}).done);
  EXPECT_FALSE(env.step({1}).done);
  EXPECT_TRUE(env.step({2}).done);
}

TEST(Env, TerminateActionEndsEpisode) {
  auto m = progen::build_chstone_like("sha");
  EnvConfig cfg;
  cfg.include_terminate = true;
  PhaseOrderEnv env({m.get()}, cfg);
  env.reset();
  const StepResult r = env.step({45});  // the terminate pseudo-action
  EXPECT_TRUE(r.done);
}

TEST(Env, BestTrackingAndCaching) {
  auto m = progen::build_chstone_like("gsm");
  EnvConfig cfg;
  cfg.observation = ObservationMode::kActionHistogram;
  cfg.episode_length = 4;
  PhaseOrderEnv env({m.get()}, cfg);
  env.reset();
  env.step({38});
  env.step({31});
  const std::size_t samples_first = env.samples();
  // Replay the same episode: every evaluation should be a cache hit.
  env.reset();
  env.step({38});
  env.step({31});
  EXPECT_EQ(env.samples(), samples_first);
  EXPECT_LT(env.best_cycles(0), env.baseline_cycles(0));
  EXPECT_EQ(env.best_sequence(0).size(), 2u);
}

TEST(Env, InferenceModeUsesNoSamples) {
  auto m = progen::build_chstone_like("sha");
  EnvConfig cfg;
  PhaseOrderEnv env({m.get()}, cfg);
  env.set_inference_mode(true);
  env.reset();
  for (int i = 0; i < 10; ++i) env.step({static_cast<std::size_t>(i % 45)});
  EXPECT_EQ(env.samples(), 0u);
}

TEST(Env, MultiProgramRoundRobin) {
  auto a = progen::build_chstone_like("sha");
  auto b = progen::build_chstone_like("gsm");
  EnvConfig cfg;
  PhaseOrderEnv env({a.get(), b.get()}, cfg);
  env.reset();
  EXPECT_EQ(env.current_program(), 0u);
  env.reset();
  EXPECT_EQ(env.current_program(), 1u);
  env.reset();
  EXPECT_EQ(env.current_program(), 0u);
}

/// PhaseOrderEnv carries its working module's fingerprint across passes
/// that report no change. These cases check the carried value never goes
/// stale: the env's cycles must always equal what the shared service
/// measures for working_module() from scratch.
class EnvCarriedFingerprint : public ::testing::Test {
 protected:
  PhaseOrderEnv make_env(bool include_terminate = false) {
    EnvConfig cfg;
    cfg.eval_service = service_;
    cfg.include_terminate = include_terminate;
    return PhaseOrderEnv({sha_.get(), gsm_.get()}, cfg);
  }

  std::uint64_t truth(const PhaseOrderEnv& env) { return service_->cycles(env.working_module()); }

  /// Training-mode steps from a state the env has measured: every reward
  /// must be the service's cycle delta and current_cycles() its cycles.
  /// Passes 38 and 8 (mem2reg, jump-threading) report no change on these
  /// kernels, so the walk exercises the carry as well as recomputation.
  void walk(PhaseOrderEnv& env, const std::vector<std::size_t>& actions) {
    std::uint64_t prev = truth(env);
    for (const std::size_t a : actions) {
      const StepResult r = env.step({a});
      const std::uint64_t now = truth(env);
      EXPECT_EQ(r.reward, static_cast<double>(prev) - static_cast<double>(now)) << "action " << a;
      EXPECT_EQ(env.current_cycles(), now) << "action " << a;
      prev = now;
    }
  }

  std::unique_ptr<ir::Module> sha_ = progen::build_chstone_like("sha");
  std::unique_ptr<ir::Module> gsm_ = progen::build_chstone_like("gsm");
  std::shared_ptr<runtime::EvalService> service_ = std::make_shared<runtime::EvalService>();
};

TEST_F(EnvCarriedFingerprint, ResetAfterTrainingAndInferenceEpisodes) {
  PhaseOrderEnv env = make_env();
  env.reset();  // sha
  walk(env, {38, 31, 38, 30, 8, 26});
  env.reset();  // gsm: the last episode's fingerprint must not survive
  EXPECT_EQ(env.current_cycles(), truth(env));
  walk(env, {31, 38, 8});
  env.set_inference_mode(true);
  env.reset();  // sha, unmeasured steps
  for (const std::size_t a : {31, 38, 30, 8}) env.step({a});
  EXPECT_EQ(env.current_cycles(), truth(env));
  env.set_inference_mode(false);
  env.reset();  // gsm
  EXPECT_EQ(env.current_cycles(), truth(env));
  walk(env, {38, 30, 8, 31});
}

TEST_F(EnvCarriedFingerprint, InferenceModeOffMidEpisode) {
  PhaseOrderEnv env = make_env();
  env.set_inference_mode(true);
  env.reset();
  for (const std::size_t a : {38, 31, 30}) env.step({a});
  env.set_inference_mode(false);
  env.step({38});
  EXPECT_EQ(env.current_cycles(), truth(env));
  walk(env, {8, 26, 38, 28});
}

TEST_F(EnvCarriedFingerprint, TerminateAction) {
  PhaseOrderEnv env = make_env(/*include_terminate=*/true);
  const std::size_t terminate = env.action_arity() - 1;
  env.reset();
  walk(env, {31, 38});
  const std::uint64_t before = env.current_cycles();
  const StepResult r = env.step({terminate});
  EXPECT_TRUE(r.done);
  EXPECT_EQ(r.reward, 0.0);
  EXPECT_EQ(env.current_cycles(), before);
  EXPECT_EQ(env.current_cycles(), truth(env));
  env.reset();  // gsm
  walk(env, {30, 38, 31});
  env.step({terminate});
  EXPECT_EQ(env.current_cycles(), truth(env));
}

TEST(MultiActionEnv, SequenceAdjustment) {
  auto m = progen::build_chstone_like("sha");
  EnvConfig cfg;
  cfg.episode_length = 45;
  MultiActionEnv env({m.get()}, cfg, 3);
  env.reset();
  EXPECT_EQ(env.action_groups(), 45u);
  EXPECT_EQ(env.action_arity(), 3u);
  // All +1: sequence moves from 22 to 23 everywhere.
  std::vector<std::size_t> up(45, 2);
  const StepResult r = env.step(up);
  EXPECT_FALSE(r.done);
  EXPECT_GT(env.samples(), 0u);
}

TEST(Ppo, LearnsTwoArmedBandit) {
  // A trivial env: action 1 pays 1.0, action 0 pays 0. PPO must find it.
  class BanditEnv final : public Env {
   public:
    std::vector<double> reset() override { return {1.0}; }
    StepResult step(const std::vector<std::size_t>& a) override {
      return {{1.0}, a[0] == 1 ? 1.0 : 0.0, true};
    }
    [[nodiscard]] std::size_t observation_size() const override { return 1; }
    [[nodiscard]] std::size_t action_groups() const override { return 1; }
    [[nodiscard]] std::size_t action_arity() const override { return 2; }
  };
  BanditEnv env;
  PpoConfig cfg;
  cfg.iterations = 30;
  cfg.steps_per_iteration = 64;
  cfg.hidden = {16};
  cfg.seed = 3;
  PpoTrainer trainer(env, cfg);
  const auto stats = trainer.train();
  EXPECT_GT(stats.back().episode_reward_mean, 0.8);  // entropy bonus keeps ~5% exploration
  EXPECT_EQ(trainer.act_greedy({1.0})[0], 1u);
}

TEST(Ppo, ImprovesOnKernelEnv) {
  auto m = progen::build_chstone_like("gsm");
  EnvConfig cfg;
  cfg.observation = ObservationMode::kActionHistogram;
  PhaseOrderEnv env({m.get()}, cfg);
  PpoConfig ppo;
  ppo.iterations = 6;
  ppo.steps_per_iteration = 135;
  ppo.seed = 2;
  PpoTrainer trainer(env, ppo);
  const auto stats = trainer.train();
  // Exploration must find something better than -O0.
  EXPECT_LT(env.best_cycles(0), env.baseline_cycles(0));
  EXPECT_GT(env.samples(), 10u);
  EXPECT_GT(stats.back().env_samples, 0u);
}

TEST(Ppo, IterationStatsTimeRolloutAndUpdate) {
  auto m = progen::build_chstone_like("sha");
  EnvConfig cfg;
  cfg.observation = ObservationMode::kActionHistogram;
  cfg.episode_length = 5;
  PhaseOrderEnv env({m.get()}, cfg);
  PpoConfig ppo;
  ppo.steps_per_iteration = 64;
  ppo.hidden = {32};
  PpoTrainer trainer(env, ppo);
  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const IterationStats stats = trainer.iterate();
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_GT(stats.rollout_ms, 0.0);
    EXPECT_GT(stats.update_ms, 0.0);
    EXPECT_LE(stats.rollout_ms + stats.update_ms, wall_ms);
  }
}

TEST(A3c, RunsWorkersAndLearnsBandit) {
  class BanditEnv final : public Env {
   public:
    std::vector<double> reset() override { return {1.0}; }
    StepResult step(const std::vector<std::size_t>& a) override {
      return {{1.0}, a[0] == 1 ? 1.0 : 0.0, true};
    }
    [[nodiscard]] std::size_t observation_size() const override { return 1; }
    [[nodiscard]] std::size_t action_groups() const override { return 1; }
    [[nodiscard]] std::size_t action_arity() const override { return 2; }
  };
  std::vector<std::unique_ptr<BanditEnv>> envs;
  std::mutex mu;
  A3cConfig cfg;
  cfg.workers = 3;
  cfg.total_steps = 1500;
  cfg.hidden = {16};
  A3cTrainer trainer(
      [&]() {
        const std::lock_guard<std::mutex> lock(mu);
        envs.push_back(std::make_unique<BanditEnv>());
        return envs.back().get();
      },
      cfg);
  const double tail_reward = trainer.train();
  EXPECT_GT(tail_reward, 0.8);
  EXPECT_EQ(trainer.act_greedy({1.0})[0], 1u);
}

TEST(Es, ImprovesBanditFitness) {
  class BanditEnv final : public Env {
   public:
    std::vector<double> reset() override { return {1.0}; }
    StepResult step(const std::vector<std::size_t>& a) override {
      return {{1.0}, a[0] == 1 ? 1.0 : 0.0, true};
    }
    [[nodiscard]] std::size_t observation_size() const override { return 1; }
    [[nodiscard]] std::size_t action_groups() const override { return 1; }
    [[nodiscard]] std::size_t action_arity() const override { return 2; }
  };
  BanditEnv env;
  EsConfig cfg;
  cfg.iterations = 30;
  cfg.population_pairs = 6;
  cfg.hidden = {8};
  cfg.seed = 5;
  EsTrainer trainer(env, cfg);
  trainer.train();
  EXPECT_EQ(trainer.act_greedy({1.0})[0], 1u);
}

}  // namespace
}  // namespace autophase::rl
