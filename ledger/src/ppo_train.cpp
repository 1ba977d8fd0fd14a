// ppo_train: rl::PpoTrainer on a runtime::VecEnv of four PhaseOrderEnv lanes
// sharing one EvalService, stepped on a pool no larger than nproc. The
// observation is program features plus the action histogram, log-normalised;
// the hidden layers are the paper's {256, 256}. The corpus is the nine
// kernels only: random programs would make env time, not ml, the bulk of an
// iteration. An op is one PPO iteration of 256 env steps plus the update.

#include <algorithm>

#include "common.hpp"
#include "ir/clone.hpp"
#include "passes/pass.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "runtime/eval_service.hpp"
#include "runtime/vec_env.hpp"
#include "support/thread_pool.hpp"

namespace ledger {

using namespace autophase;

namespace {

constexpr std::size_t kLanes = 4;
// Untimed warm-up iterations; speedup_vs_o3 and samples_per_program are read
// after them, so they do not depend on how many iterations fit in the run.
constexpr std::size_t kScoredIterations = 32;

rl::EnvConfig env_config(std::shared_ptr<runtime::EvalService> service) {
  rl::EnvConfig config;
  config.episode_length = 45;
  config.observation = rl::ObservationMode::kBoth;
  config.normalization = rl::NormalizationMode::kLog;
  config.eval_service = std::move(service);
  return config;
}

/// Times every reset and step of one lane and logs what it did, so the
/// traced run can split an iteration into env, policy and update time and
/// replay the lane's episodes layer by layer afterwards.
class TimingEnv final : public rl::Env {
 public:
  struct Event {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int action = -1;  // -1 = reset
    std::size_t program = 0;
  };

  explicit TimingEnv(std::unique_ptr<rl::PhaseOrderEnv> inner) : inner_(std::move(inner)) {}

  std::vector<double> reset() override {
    const std::uint64_t t0 = now_ns();
    auto observation = inner_->reset();
    events.push_back({t0, now_ns(), -1, inner_->current_program()});
    return observation;
  }
  rl::StepResult step(const std::vector<std::size_t>& action) override {
    const std::uint64_t t0 = now_ns();
    auto result = inner_->step(action);
    events.push_back({t0, now_ns(), static_cast<int>(action.at(0)), inner_->current_program()});
    return result;
  }
  [[nodiscard]] std::size_t observation_size() const override {
    return inner_->observation_size();
  }
  [[nodiscard]] std::size_t action_groups() const override { return inner_->action_groups(); }
  [[nodiscard]] std::size_t action_arity() const override { return inner_->action_arity(); }
  [[nodiscard]] std::size_t sample_count() const override { return inner_->sample_count(); }

  [[nodiscard]] rl::PhaseOrderEnv& inner() { return *inner_; }

  /// Read by the traced loop between iterations, when no lane is stepping.
  std::vector<Event> events;

 private:
  std::unique_ptr<rl::PhaseOrderEnv> inner_;
};

/// One training run. Members are declared in dependency order, so the
/// trainer goes before the lanes and the lanes before their pool.
struct Training {
  std::shared_ptr<runtime::EvalService> service;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<runtime::VecEnv> vec;
  std::unique_ptr<rl::PpoTrainer> ppo;
  std::vector<TimingEnv*> timing;  // one per lane in a traced run

  rl::PhaseOrderEnv& lane(std::size_t i) {
    return timing.empty() ? static_cast<rl::PhaseOrderEnv&>(vec->env(i)) : timing[i]->inner();
  }
};

Training make_training(const std::vector<Program>& corpus, std::uint64_t seed, bool timed) {
  Training t;
  t.service = std::make_shared<runtime::EvalService>();
  t.pool = std::make_unique<ThreadPool>(std::min(host_nproc(), kLanes));
  std::vector<const ir::Module*> programs;
  for (const Program& p : corpus) programs.push_back(p.module.get());
  const rl::EnvConfig config = env_config(t.service);
  t.vec = std::make_unique<runtime::VecEnv>(
      [&](std::size_t, Rng) -> std::unique_ptr<rl::Env> {
        auto env = std::make_unique<rl::PhaseOrderEnv>(programs, config);
        if (!timed) return env;
        auto timing = std::make_unique<TimingEnv>(std::move(env));
        t.timing.push_back(timing.get());
        return timing;
      },
      runtime::VecEnvConfig{kLanes, seed, t.pool.get()});
  rl::PpoConfig ppo;
  ppo.hidden = {256, 256};
  ppo.steps_per_iteration = 256;
  ppo.seed = seed;
  t.ppo = std::make_unique<rl::PpoTrainer>(*t.vec, ppo);
  return t;
}

/// Each lane's best sequence per program must replay to the cycles the env
/// reported for it.
void check_best(Report& report, Training& t, const std::vector<Program>& corpus) {
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t p = 0; p < corpus.size(); ++p) {
      const std::uint64_t best = t.lane(l).best_cycles(p);
      if (best == ~0ull) continue;  // the lane never reached this program
      ++report.attempted;
      if (const Status s = check_sequence(corpus[p], t.lane(l).best_sequence(p), best);
          !s.is_ok()) {
        ++report.failed;
        report.fail(s.message());
      }
    }
  }
}

struct PpoState {
  std::vector<Program> corpus;
  Training training;
};

/// Replays one lane's logged resets and steps through the public layer
/// functions (clone, apply_pass, fingerprint + cache probe + simulator on a
/// miss, observation build), on a module that tracks the lane's own.
struct LaneReplay {
  std::unique_ptr<ir::Module> module;
  std::vector<double> histogram;
  std::size_t consumed = 0;
};

void replay_lane(LaneReplay& lane, const std::vector<TimingEnv::Event>& events,
                 const std::vector<Program>& corpus, const rl::EnvConfig& config,
                 const std::vector<int>& features, StageReplay& replay, Ledger& ledger) {
  for (; lane.consumed < events.size(); ++lane.consumed) {
    const TimingEnv::Event& e = events[lane.consumed];
    std::uint64_t t0 = now_ns();
    if (e.action < 0) {
      lane.module = ir::clone_module_for_rollout(*corpus[e.program].module);
      lane.module->materialize_all();
      ledger.clone.add(t0, now_ns());
      lane.histogram.assign(passes::kNumPasses, 0.0);
    } else {
      const bool changed = passes::apply_pass(*lane.module, e.action);
      ledger.pass.add(t0, now_ns());
      ledger.pass_changed += changed ? 1 : 0;
      lane.histogram[static_cast<std::size_t>(e.action)] += 1.0;
    }
    replay.measure(*lane.module);
    t0 = now_ns();
    (void)rl::build_observation(*lane.module, lane.histogram, config, features);
    ledger.features.add(t0, now_ns());
  }
}

}  // namespace

Report run_ppo_train(const Args& args) {
  Report report;
  // Set-up takes milliseconds here, so more repetitions steady its median.
  auto [state, setup_s] = timed_setups(5, [&] {
    PpoState s;
    s.corpus = build_corpus(0, args.seed);
    s.training = make_training(s.corpus, args.seed, false);
    return s;
  });
  const std::vector<Program>& corpus = state.corpus;

  if (!args.trace) {
    // The first kScoredIterations fill the cache (training pays that once,
    // not per iteration) and fix the scored quality; the timed loop follows.
    Training& t = state.training;
    for (std::size_t it = 0; it < kScoredIterations; ++it) t.ppo->iterate();
    report.attempted += kScoredIterations;
    const double scored_samples = static_cast<double>(t.service->samples());
    std::vector<std::uint64_t> best(corpus.size(), ~0ull);
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t p = 0; p < corpus.size(); ++p) {
        best[p] = std::min(best[p], t.lane(l).best_cycles(p));
      }
    }
    std::vector<double> op_ms;
    const auto start = Clock::now();
    while (op_ms.empty() || seconds_since(start) < args.seconds) {
      const std::uint64_t t0 = now_ns();
      t.ppo->iterate();
      op_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      ++report.attempted;
    }
    const double wall = seconds_since(start);
    check_best(report, t, corpus);
    for (std::size_t p = 0; p < corpus.size(); ++p) {
      if (best[p] == ~0ull) report.fail(corpus[p].name + ": never visited in the warm-up");
      report.rows.push_back({corpus[p].name, corpus[p].o3_cycles, best[p]});
    }
    add_end_to_end(report, op_ms, wall, scored_samples / static_cast<double>(corpus.size()),
                   setup_s);
    return report;
  }

  // Traced run: two identical trainers (same seed, so the same iterations),
  // one plain and one with timing lanes, stepped alternately. The lanes'
  // logs split each traced iteration into env time (the union of the lanes'
  // step intervals), policy time (the rest of the rollout: forwards and
  // sampling between env batches) and the update after the last step.
  Training plain = std::move(state.training);
  Training timed = make_training(corpus, args.seed, true);
  const rl::EnvConfig config = env_config(nullptr);
  const std::vector<int> features = all_features();
  Ledger ledger;
  StageReplay replay(ledger);
  std::vector<LaneReplay> lanes(kLanes);
  // Both trainers warm up as in the untraced run. The warm-up episodes are
  // replayed too, so the lane replays track the lanes, and then the ledger
  // starts from zero.
  for (std::size_t it = 0; it < kScoredIterations; ++it) {
    plain.ppo->iterate();
    timed.ppo->iterate();
  }
  report.attempted += 2 * kScoredIterations;
  for (std::size_t l = 0; l < kLanes; ++l) {
    replay_lane(lanes[l], timed.timing[l]->events, corpus, config, features, replay, ledger);
  }
  ledger = Ledger{};
  const runtime::EvalStats warm = timed.service->stats();
  std::vector<double> untraced_ms, traced_ms, rollout_ms, update_ms, step_us;
  double forward_ns = 0.0;
  std::size_t batches = 0;
  const auto start = Clock::now();
  for (std::size_t it = 0; it < 2 || seconds_since(start) < args.seconds; ++it) {
    const auto untraced = [&] {
      const std::uint64_t t0 = now_ns();
      plain.ppo->iterate();
      untraced_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    };
    if (it % 2 == 0) untraced();
    std::vector<std::size_t> first(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) first[l] = timed.timing[l]->events.size();
    const std::uint64_t t0 = now_ns();
    timed.ppo->iterate();
    const std::uint64_t t1 = now_ns();
    if (it % 2 == 1) untraced();
    report.attempted += 2;

    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
    std::size_t steps = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const auto& events = timed.timing[l]->events;
      for (std::size_t i = first[l]; i < events.size(); ++i) {
        intervals.emplace_back(events[i].start_ns, events[i].end_ns);
        if (events[i].action >= 0) {
          step_us.push_back(static_cast<double>(events[i].end_ns - events[i].start_ns) / 1e3);
          ++steps;
        }
      }
    }
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t env_ns = 0, covered_to = t0, last_end = t0;
    for (const auto& [b, e] : intervals) {
      const std::uint64_t from = std::max(b, covered_to);
      if (e > from) env_ns += e - from;
      covered_to = std::max(covered_to, e);
      last_end = std::max(last_end, e);
    }
    const double rollout = static_cast<double>(last_end - t0);
    const double update = static_cast<double>(t1 - last_end);
    forward_ns += rollout - static_cast<double>(env_ns);
    batches += steps / kLanes;
    rollout_ms.push_back(rollout / 1e6);
    update_ms.push_back(update / 1e6);
    traced_ms.push_back(static_cast<double>(t1 - t0) / 1e6);

    for (std::size_t l = 0; l < kLanes; ++l) {
      replay_lane(lanes[l], timed.timing[l]->events, corpus, config, features, replay, ledger);
    }
  }
  check_best(report, timed, corpus);

  const double ops = static_cast<double>(traced_ms.size());
  add_ledger_metrics(report, ledger, ops);
  add_runtime_metrics(report, since(timed.service->stats(), warm), ops);
  auto& v = report.values;
  v["ml.forward_us"] = batches == 0 ? 0.0 : forward_ns / 1e3 / static_cast<double>(batches);
  v["ml.update_ms"] = mean(update_ms);
  v["rl.rollout_ms"] = mean(rollout_ms);
  v["rl.env_step_us"] = mean(step_us);
  // env + policy + update cover a traced iteration by construction (policy
  // time is the rollout's remainder), so the layer sum is the traced
  // iteration and the check bounds how far the timing lanes distort it.
  add_attribution(report, untraced_ms, traced_ms, traced_ms);
  return report;
}

}  // namespace ledger
