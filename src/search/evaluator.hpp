// Internal helpers shared by the search baselines: budget-tracked sequence
// evaluation (single and batched) and incremental population steppers (used
// standalone and inside the OpenTuner-style ensemble). Evaluation goes
// through a runtime::EvalService, so repeated candidates cost neither a
// simulator call nor a pass application, and batches fan out over the
// budget's ThreadPool.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "ir/printer.hpp"
#include "runtime/eval_service.hpp"
#include "search/search.hpp"

namespace autophase::search {

class Evaluator {
 public:
  /// Builds a private service wired to the budget's pool.
  Evaluator(const ir::Module& program, const SearchBudget& budget)
      : program_(&program),
        budget_(budget),
        service_(runtime::EvalServiceConfig{.pool = budget.pool}),
        program_fingerprint_(ir::module_fingerprint(program)) {}

  std::uint64_t evaluate(const std::vector<int>& sequence) {
    bool sampled = false;
    const std::uint64_t cycles =
        service_.evaluate_sequence(*program_, program_fingerprint_, sequence, &sampled);
    if (sampled) ++samples_;
    note(cycles, sequence);
    return cycles;
  }

  /// Evaluates candidates in parallel, capped at the remaining budget under
  /// the worst-case assumption that every candidate is a fresh simulator
  /// call (cache hits keep the cap conservative, never over budget). Returns
  /// the cycles of the evaluated prefix — possibly fewer than requested; the
  /// unevaluated tail should be discarded, exactly as the serial path would
  /// never have generated it. The global best is updated in candidate order
  /// (first-wins on ties), identical to serial evaluation.
  std::vector<std::uint64_t> evaluate_batch(std::span<const std::vector<int>> candidates) {
    const std::size_t n = std::min(candidates.size(), budget_remaining());
    auto batch = service_.evaluate_batch(*program_, candidates.subspan(0, n));
    samples_ += batch.new_samples;
    for (std::size_t i = 0; i < n; ++i) note(batch.cycles[i], candidates[i]);
    return std::move(batch.cycles);
  }

  [[nodiscard]] bool exhausted() const { return samples_ >= budget_.max_samples; }
  [[nodiscard]] std::size_t budget_remaining() const {
    return samples_ >= budget_.max_samples ? 0 : budget_.max_samples - samples_;
  }
  [[nodiscard]] const SearchBudget& budget() const noexcept { return budget_; }

  [[nodiscard]] SearchResult result() const {
    SearchResult r = best_;
    r.samples = samples_;
    return r;
  }
  [[nodiscard]] std::uint64_t best_cycles() const noexcept { return best_.best_cycles; }
  [[nodiscard]] runtime::EvalService& service() noexcept { return service_; }

 private:
  void note(std::uint64_t cycles, const std::vector<int>& sequence) {
    if (cycles < best_.best_cycles) {
      best_.best_cycles = cycles;
      best_.best_sequence = sequence;
    }
  }

  const ir::Module* program_;
  SearchBudget budget_;
  runtime::EvalService service_;
  std::uint64_t program_fingerprint_;
  std::size_t samples_ = 0;  // simulator calls attributed to this search
  SearchResult best_;
};

/// Incremental genetic algorithm (one generation per step; the generation's
/// offspring are evaluated as one parallel batch).
class GeneticStepper {
 public:
  GeneticStepper(GeneticConfig config, int sequence_length, Rng rng);

  /// Evaluates one generation; returns true if the evaluator's global best
  /// improved during this step.
  bool step(Evaluator& eval);

 private:
  std::vector<int> crossover(const std::vector<int>& a, const std::vector<int>& b);
  void mutate(std::vector<int>& genome);
  const std::vector<int>& tournament_select() const;

  GeneticConfig config_;
  int length_;
  mutable Rng rng_;
  std::vector<std::vector<int>> population_;
  std::vector<std::uint64_t> fitness_;  // lower = better
  bool initialised_ = false;
};

/// Incremental particle swarm (one swarm update per step). Synchronous PSO:
/// every particle moves against the iteration-start global best, then the
/// whole swarm is evaluated as one batch — which is what makes the update
/// independent of evaluation order and thread count.
class PsoStepper {
 public:
  PsoStepper(PsoConfig config, int sequence_length, Rng rng);

  bool step(Evaluator& eval);

 private:
  PsoConfig config_;
  int length_;
  Rng rng_;
  std::vector<std::vector<double>> position_;
  std::vector<std::vector<double>> velocity_;
  std::vector<std::vector<double>> personal_best_;
  std::vector<std::uint64_t> personal_best_fitness_;
  std::vector<double> global_best_;
  std::uint64_t global_best_fitness_ = ~0ull;
  bool initialised_ = false;
};

}  // namespace autophase::search
