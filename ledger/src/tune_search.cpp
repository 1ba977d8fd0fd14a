// tune_search: black-box tuning as the search baselines run it. One thread
// evaluates seeded random 45-pass sequences one at a time through
// EvalService::evaluate_sequence on a fresh service; an op is one candidate.
// Nearly every op misses the cache, so this is the path that clones, applies
// passes, fingerprints, schedules and interprets; ml is never called.

#include "common.hpp"
#include "ir/clone.hpp"
#include "passes/pass.hpp"
#include "support/rng.hpp"

namespace ledger {

using namespace autophase;

namespace {

// Nine kernels plus this many seeded random programs from each size stratum:
// pass and interpreter cost grow with program size, so the count is what
// keeps one run's mix representative.
constexpr std::size_t kRandomPerStratum = 3;
// Candidates are scored over this many rounds (one candidate per program per
// round), so speedup_vs_o3 and samples_per_program do not depend on speed.
constexpr std::size_t kScoredRounds = 16;
constexpr int kSequenceLength = 45;  // the paper's episode length

std::vector<int> candidate(std::uint64_t seed, std::size_t op) {
  Rng rng(mix_seed(seed, op));
  std::vector<int> sequence(kSequenceLength);
  for (int& pass : sequence) pass = static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1));
  return sequence;
}

double ms_between(std::uint64_t t0, std::uint64_t t1) { return static_cast<double>(t1 - t0) / 1e6; }

}  // namespace

Report run_tune_search(const Args& args) {
  Report report;
  auto [corpus, setup_s] =
      timed_setups(3, [&] { return build_corpus(kRandomPerStratum, args.seed); });
  const std::size_t programs = corpus.size();
  runtime::EvalService service;

  if (!args.trace) {
    std::vector<double> op_ms;
    std::vector<std::uint64_t> best(programs, ~0ull);
    std::vector<std::vector<int>> best_sequence(programs);
    std::vector<double> samples(programs, 0.0);
    const std::size_t scored = kScoredRounds * programs;
    const auto start = Clock::now();
    for (std::size_t op = 0; op < scored || seconds_since(start) < args.seconds; ++op) {
      const std::size_t p = op % programs;
      const std::vector<int> sequence = candidate(args.seed, op);
      bool sampled = false;
      const std::uint64_t t0 = now_ns();
      const std::uint64_t cycles = service.evaluate_sequence(*corpus[p].module,
                                                             corpus[p].fingerprint, sequence,
                                                             &sampled);
      op_ms.push_back(ms_between(t0, now_ns()));
      ++report.attempted;
      if (op < scored) {
        samples[p] += sampled ? 1.0 : 0.0;
        if (cycles < best[p]) {
          best[p] = cycles;
          best_sequence[p] = sequence;
        }
      }
    }
    const double wall = seconds_since(start);
    double total_samples = 0.0;
    for (std::size_t p = 0; p < programs; ++p) {
      ++report.attempted;
      if (const Status s = check_sequence(corpus[p], best_sequence[p], best[p]); !s.is_ok()) {
        ++report.failed;
        report.fail(s.message());
      }
      report.rows.push_back({corpus[p].name, corpus[p].o3_cycles, best[p], samples[p]});
      total_samples += samples[p];
    }
    add_end_to_end(report, op_ms, wall, total_samples / static_cast<double>(programs), setup_s);
    return report;
  }

  // Traced run: per op, the untraced service call and a replay of the same
  // candidate through the public layer functions, interleaved so both see
  // the same machine state. The replay keeps its own two caches, so its
  // hits and misses fall where the service's do, and its cycles must equal
  // the service's exactly.
  Ledger ledger;
  StageReplay replay(ledger);
  std::unordered_map<std::uint64_t, std::uint64_t> sequence_cache;
  std::vector<double> untraced_ms, traced_ms, layer_ms;
  const auto start = Clock::now();
  for (std::size_t op = 0; op < programs || seconds_since(start) < args.seconds; ++op) {
    const Program& program = corpus[op % programs];
    const std::vector<int> sequence = candidate(args.seed, op);
    std::uint64_t cycles = 0;
    const auto untraced = [&] {
      const std::uint64_t u0 = now_ns();
      cycles = service.evaluate_sequence(*program.module, program.fingerprint, sequence);
      untraced_ms.push_back(ms_between(u0, now_ns()));
    };
    // Whichever of the pair runs second finds warmer caches; alternate.
    if (op % 2 == 0) untraced();

    const std::uint64_t busy0 = ledger.busy_ns();
    const std::uint64_t op0 = now_ns();
    std::uint64_t t0 = op0;
    const std::uint64_t key = runtime::sequence_key(program.fingerprint, sequence);
    const auto it = sequence_cache.find(key);
    const bool sequence_hit = it != sequence_cache.end();
    std::uint64_t replayed = sequence_hit ? it->second : 0;
    std::uint64_t t1 = now_ns();
    ledger.lookup.add(t0, t1);
    if (!sequence_hit) {
      auto module = ir::clone_module_for_rollout(*program.module);
      module->materialize_all();
      t0 = now_ns();
      ledger.clone.add(t1, t0);
      for (const int pass : sequence) {
        const bool changed = passes::apply_pass(*module, pass);
        t1 = now_ns();
        ledger.pass.add(t0, t1);
        ledger.pass_changed += changed ? 1 : 0;
        t0 = t1;
      }
      replayed = replay.measure(*module);
      sequence_cache.emplace(key, replayed);
    }
    traced_ms.push_back(ms_between(op0, now_ns()));
    layer_ms.push_back(static_cast<double>(ledger.busy_ns() - busy0) / 1e6);
    if (op % 2 == 1) untraced();

    ++report.attempted;
    if (replayed != cycles) {
      ++report.failed;
      report.fail(program.name + ": stage replay gives " + std::to_string(replayed) +
                  " cycles, EvalService " + std::to_string(cycles));
    }
  }
  const double ops = static_cast<double>(untraced_ms.size());
  add_ledger_metrics(report, ledger, ops);
  add_runtime_metrics(report, service.stats(), ops);
  add_attribution(report, untraced_ms, traced_ms, layer_ms);
  return report;
}

}  // namespace ledger
