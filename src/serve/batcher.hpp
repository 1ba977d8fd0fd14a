// Cross-request policy-inference batching. Serving workers blocked in
// infer_many() are collected by a leader (the first arrival), their
// observations stacked per model into one matrix and pushed through a single
// ml::Mlp::forward_batch. The leader never waits for co-riders: it runs
// whatever rows are pending, so rows fold only when they are already there
// (a beam front's rows, or rows that queued while another forward ran).
// Because each output row of a forward pass is an independent dot-product
// chain, the logits a request sees are bit-identical whether its observation
// ran alone or folded into a batch of 16: batching changes latency and
// throughput, never answers.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/artifact.hpp"

namespace autophase::serve {

struct BatcherStats {
  std::uint64_t batches = 0;        // forward_batch calls
  std::uint64_t rows = 0;           // observations inferred
  std::size_t max_batch_rows = 0;   // largest single batch
};

class PolicyBatcher {
 public:
  PolicyBatcher() = default;

  PolicyBatcher(const PolicyBatcher&) = delete;
  PolicyBatcher& operator=(const PolicyBatcher&) = delete;

  /// Logits for several observations of one model (a beam front submits all
  /// its rows at once so they batch with each other as well as with other
  /// requests). Result i corresponds to observations[i]. When `batch_rows` is
  /// non-null it reports the largest same-model batch any of these rows rode
  /// in — the trace attribute that shows whether a request actually shared a
  /// matmul or ran alone.
  std::vector<std::vector<double>> infer_many(
      const PolicyArtifact& artifact, const std::vector<std::vector<double>>& observations,
      std::size_t* batch_rows = nullptr);

  [[nodiscard]] BatcherStats stats() const;

 private:
  struct Pending {
    const PolicyArtifact* artifact = nullptr;
    const std::vector<double>* observation = nullptr;
    std::vector<double> logits;
    std::size_t batch_rows = 0;  // size of the same-model batch this row rode
    bool done = false;
  };

  /// Executes one batch (outside the queue lock), fulfilling every entry.
  void run_batch(std::vector<Pending*> batch);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Pending*> pending_;
  bool leader_active_ = false;
  BatcherStats stats_;
};

}  // namespace autophase::serve
