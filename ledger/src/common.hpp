// Shared plumbing of the layer-ledger benchmark: arguments, timing, order
// statistics, the per-layer ledger, the corpus with its -O3 baselines, the
// stage-by-stage evaluation replay, and the result printer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/module.hpp"
#include "runtime/eval_service.hpp"
#include "support/status.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
double mean(const std::vector<double>& values);
double geomean(const std::vector<double>& values);
double peak_rss_mb();
std::size_t host_nproc();
/// Independent 64-bit stream value for (seed, index): every seeded input is
/// drawn from this, so a run's inputs depend on --seed alone.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// Every Table-2 feature index, the observation's feature subset.
std::vector<int> all_features();

/// Runs `build` `reps` times, keeps the last result, and returns it with the
/// median build time in seconds (the setup_s metric).
template <class Build>
auto timed_setups(int reps, Build build) {
  std::vector<double> times;
  decltype(build()) state{};
  for (int r = 0; r < reps; ++r) {
    state = decltype(state){};  // release the previous repetition before timing the next
    const auto t0 = Clock::now();
    state = build();
    times.push_back(seconds_since(t0));
  }
  return std::make_pair(std::move(state), median(times));
}

/// One program of a workload corpus with everything its checks need.
struct Program {
  std::string name;
  std::unique_ptr<autophase::ir::Module> module;
  std::uint64_t fingerprint = 0;
  std::uint64_t o3_cycles = 0;
  std::int64_t return_value = 0;  // unoptimised reference run
  std::uint64_t checksum = 0;
};

/// Equally likely static-size strata of generate_filtered_program output.
inline constexpr std::size_t kSizeStrata = 32;

/// The nine CHStone-like kernels followed by filtered random programs drawn
/// from `seed`, `random_per_stratum` from each of the `strata` smallest size
/// strata, each with its -O3 cycles and reference run.
std::vector<Program> build_corpus(std::size_t random_per_stratum, std::uint64_t seed,
                                  std::size_t strata = kSizeStrata);

/// Cycles EvalService assigns a module the simulator cannot run.
inline constexpr std::uint64_t kPenaltyCycles = 1ull << 40;

/// Replays `sequence` on a deep clone of `program` and checks that the result
/// verifies, profiles to `expected_cycles`, and keeps the return value and
/// written-globals checksum of the unoptimised program.
autophase::Status check_sequence(const Program& program, const std::vector<int>& sequence,
                                 std::uint64_t expected_cycles);

/// Busy time and call count of one layer.
struct Span {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  void add(std::uint64_t t0, std::uint64_t t1) {
    ns += t1 - t0;
    ++calls;
  }
  [[nodiscard]] double us_per_call() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(calls);
  }
};

/// Per-layer totals collected by a traced run.
struct Ledger {
  Span clone;        // ir: rollout clone + materialisation
  Span pass;         // passes: one apply_pass call
  std::uint64_t pass_changed = 0;
  Span fingerprint;  // ir: module_fingerprint
  Span ir_size;      // ir: module_ir_size
  std::uint64_t size_after_sum = 0;
  std::uint64_t size_after_count = 0;
  Span lookup;       // runtime: cache probe
  Span interp;       // interp: one interpreter run
  std::uint64_t dyn_insts = 0;
  Span hls;          // hls: schedule + cycle and area estimate
  Span features;     // features: one observation build
  Span forward;      // ml: one policy forward

  /// Sum of every layer's busy time (the per-op attribution total).
  [[nodiscard]] std::uint64_t busy_ns() const {
    return clone.ns + pass.ns + fingerprint.ns + ir_size.ns + lookup.ns + interp.ns + hls.ns +
           features.ns + forward.ns;
  }
};

/// Mirror of EvalService's measurement path, one public layer call at a
/// time: fingerprint, cache probe, and on a miss interpreter + schedule +
/// estimate. Keeps its own fingerprint -> cycles cache so hits and misses
/// fall exactly where the service's do.
class StageReplay {
 public:
  explicit StageReplay(Ledger& ledger) : ledger_(ledger) {}
  std::uint64_t measure(const autophase::ir::Module& module);

 private:
  /// Interpreter + schedule + estimate with no cache.
  std::uint64_t profile(const autophase::ir::Module& module);

  Ledger& ledger_;
  std::unordered_map<std::uint64_t, std::uint64_t> cycles_;
};

/// One per-program row: -O3 cycles against the cycles the workload found or
/// served. `samples` < 0 means the workload cannot attribute samples to one
/// program (a shared cache across lanes).
struct ProgramRow {
  std::string program;
  std::uint64_t o3_cycles = 0;
  std::uint64_t found_cycles = 0;
  double samples = -1.0;
  [[nodiscard]] double speedup() const {
    return found_cycles == 0 ? 0.0
                             : static_cast<double>(o3_cycles) / static_cast<double>(found_cycles);
  }
};

struct Report {
  /// Ops run plus the answer checks made after them; a failed op or check
  /// counts in `failed`.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;
  std::vector<std::string> errors;
  /// Metric values by name; the names and units printed come from the
  /// tables in common.cpp, and a layer the workload never calls reads 0.
  std::map<std::string, double> values;
  std::vector<ProgramRow> rows;
  /// Printed in the readable summary, not in the JSON result.
  std::vector<std::pair<std::string, double>> extra;

  void fail(std::string what) {
    checks_ok = false;
    errors.push_back(std::move(what));
  }
  [[nodiscard]] bool correct() const { return checks_ok && failed == 0; }
};

/// End-to-end metrics shared by every workload's untraced run.
void add_end_to_end(Report& report, const std::vector<double>& op_ms, double wall_seconds,
                    double samples_per_program, double setup_seconds);

/// Per-layer metrics from a ledger; `ops` normalises the per-op counts.
/// Workload-specific entries (rl, serve, net) are set by the caller.
void add_ledger_metrics(Report& report, const Ledger& ledger, double ops);

/// The counters accumulated between two EvalService::stats() snapshots.
autophase::runtime::EvalStats since(const autophase::runtime::EvalStats& now,
                                    const autophase::runtime::EvalStats& before);

/// runtime.* metrics from EvalService counters covering `ops` ops.
void add_runtime_metrics(Report& report, const autophase::runtime::EvalStats& stats, double ops);

/// Attribution check shared by the traced runs: per op, the measured layer
/// times must sum to within kAttributionTolerance of the untraced op time,
/// compared on medians over the same ops. Adds obs.trace_overhead_pct and
/// obs.attribution_gap_pct.
inline constexpr double kAttributionTolerance = 0.10;
void add_attribution(Report& report, const std::vector<double>& untraced_ms,
                     const std::vector<double>& traced_ms, const std::vector<double>& layer_sum_ms);

/// Prints the host line, per-program rows, a readable summary, and — last —
/// the one-line JSON result.
void print_report(const Args& args, const Report& report);

Report run_tune_search(const Args& args);
Report run_ppo_train(const Args& args);
Report run_serve_remote(const Args& args);

}  // namespace ledger
