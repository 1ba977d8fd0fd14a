#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <span>
#include <thread>

#include "features/features.hpp"
#include "hls/cycle_estimator.hpp"
#include "hls/scheduler.hpp"
#include "interp/interpreter.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "passes/pass.hpp"
#include "passes/pipelines.hpp"
#include "progen/chstone_like.hpp"
#include "progen/random_program.hpp"

namespace ledger {

using namespace autophase;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json: the untraced run prints exactly these.
constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},         {"op_ms_p50", "ms"},
    {"op_ms_p90", "ms"},          {"speedup_vs_o3", "x"},
    {"samples_per_program", "count"}, {"setup_s", "s"},
};

// ... and the traced run exactly these.
constexpr MetricSpec kPerLayer[] = {
    {"passes.apply_us", "us"},         {"passes.calls", "count"},
    {"passes.changed_ratio", "ratio"}, {"ir.size_after", "count"},
    {"interp.run_us", "us"},           {"interp.dyn_insts", "count"},
    {"hls.schedule_us", "us"},         {"runtime.eval_us", "us"},
    {"ir.fingerprint_us", "us"},       {"ir.fingerprint_calls", "count"},
    {"ir.clone_us", "us"},             {"features.extract_us", "us"},
    {"ml.forward_us", "us"},           {"ml.update_ms", "ms"},
    {"rl.rollout_ms", "ms"},           {"rl.env_step_us", "us"},
    {"runtime.hit_ratio", "ratio"},    {"runtime.lookups", "count"},
    {"serve.queue_ms", "ms"},          {"serve.serve_ms", "ms"},
    {"serve.batch_rows", "count"},     {"net.overhead_ms", "ms"},
    {"net.codec_us", "us"},            {"net.bytes_per_req", "B"},
    {"obs.trace_overhead_pct", "%"},   {"obs.attribution_gap_pct", "%"},
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<int> all_features() {
  std::vector<int> out(features::kNumFeatures);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// Upper bounds (static instruction count) of the equally likely size strata
// of generate_filtered_program output, taken from the 1/32 quantiles of 400
// draws. A candidate's evaluation cost follows
// program size closely, so drawing the same number of programs from every
// stratum gives every seed the same size mix: the seed still picks the
// programs, but one heavy draw can no longer swing a run's throughput.
constexpr std::size_t kSizeBounds[] = {
    143,  175,  246,  415,  522,  620,  758,  949,  1098, 1240, 1442,
    1582, 1812, 2042, 2211, 2390, 2644, 2952, 3161, 3356, 3558, 3726,
    3870, 4093, 4448, 4749, 5160, 5722, 6516, 7574, 8752, ~0ul};
static_assert(std::size(kSizeBounds) == kSizeStrata);

std::vector<std::unique_ptr<ir::Module>> draw_random_programs(std::size_t per_stratum,
                                                             std::uint64_t seed,
                                                             std::size_t strata) {
  const std::size_t wanted = per_stratum * strata;
  std::vector<std::size_t> taken(kSizeStrata, 0);
  std::vector<std::unique_ptr<ir::Module>> out;
  std::size_t draw = 0;
  // Bounded: should the generator stop producing some size, the slots left
  // after 8x the expected draws take the next draws whatever their size.
  const std::size_t max_draws = 8 * wanted * kSizeStrata / std::max<std::size_t>(1, strata);
  for (; out.size() < wanted && draw < max_draws; ++draw) {
    auto m = progen::generate_filtered_program(mix_seed(seed, 1000 + draw));
    const auto s = static_cast<std::size_t>(
        std::lower_bound(std::begin(kSizeBounds), std::end(kSizeBounds), m->instruction_count()) -
        std::begin(kSizeBounds));
    if (s < strata && taken[s] < per_stratum) {
      ++taken[s];
      out.push_back(std::move(m));
    }
  }
  for (; out.size() < wanted; ++draw) {
    out.push_back(progen::generate_filtered_program(mix_seed(seed, 1000 + draw)));
  }
  // Ordered by size, so a program's name means the same size band on every
  // seed.
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a->instruction_count() < b->instruction_count();
  });
  return out;
}

}  // namespace

std::vector<Program> build_corpus(std::size_t random_per_stratum, std::uint64_t seed,
                                  std::size_t strata) {
  std::vector<Program> corpus;
  for (const std::string& name : progen::chstone_benchmark_names()) {
    corpus.push_back({name, progen::build_chstone_like(name)});
  }
  for (auto& m : draw_random_programs(random_per_stratum, seed, strata)) {
    corpus.push_back({"rand" + std::to_string(corpus.size() - 9), std::move(m)});
  }
  for (Program& p : corpus) {
    p.fingerprint = ir::module_fingerprint(*p.module);
    const auto run = interp::run_module(*p.module);
    if (run.is_ok()) {
      p.return_value = run.value().return_value;
      p.checksum = run.value().memory_checksum;
    }
    auto o3 = ir::clone_module(*p.module);
    passes::run_o3(*o3);
    const auto est = hls::profile_cycles(*o3);
    p.o3_cycles = est.is_ok() ? est.value().cycles : kPenaltyCycles;
  }
  return corpus;
}

Status check_sequence(const Program& program, const std::vector<int>& sequence,
                      std::uint64_t expected_cycles) {
  auto m = ir::clone_module(*program.module);
  passes::apply_pass_sequence(*m, sequence);
  if (const Status s = ir::verify_module(*m); !s.is_ok()) {
    return Status::error(program.name + ": verifier: " + s.message());
  }
  const auto est = hls::profile_cycles(*m);
  const std::uint64_t cycles = est.is_ok() ? est.value().cycles : kPenaltyCycles;
  if (cycles != expected_cycles) {
    return Status::error(program.name + ": replay gives " + std::to_string(cycles) +
                         " cycles, expected " + std::to_string(expected_cycles));
  }
  // A run past the interpreter budget is the penalty, not a wrong answer;
  // there is no result to compare then.
  if (cycles == kPenaltyCycles) return Status::ok();
  const auto run = interp::run_module(*m);
  if (!run.is_ok()) return Status::error(program.name + ": run failed: " + run.message());
  if (run.value().return_value != program.return_value ||
      run.value().memory_checksum != program.checksum) {
    return Status::error(program.name + ": return value or globals checksum changed");
  }
  return Status::ok();
}

std::uint64_t StageReplay::measure(const ir::Module& module) {
  std::uint64_t t0 = now_ns();
  const std::uint64_t fp = ir::module_fingerprint(module);
  std::uint64_t t1 = now_ns();
  ledger_.fingerprint.add(t0, t1);
  ledger_.size_after_sum += ir::module_ir_size(module);
  ++ledger_.size_after_count;
  t0 = now_ns();
  ledger_.ir_size.add(t1, t0);
  const auto it = cycles_.find(fp);
  const bool hit = it != cycles_.end();
  const std::uint64_t cached = hit ? it->second : 0;
  t1 = now_ns();
  ledger_.lookup.add(t0, t1);
  if (hit) return cached;
  const std::uint64_t cycles = profile(module);
  cycles_.emplace(fp, cycles);
  return cycles;
}

std::uint64_t StageReplay::profile(const ir::Module& module) {
  const hls::ResourceConstraints rc{};
  std::uint64_t t0 = now_ns();
  const auto run = interp::run_module(module);
  std::uint64_t t1 = now_ns();
  ledger_.interp.add(t0, t1);
  if (!run.is_ok()) return kPenaltyCycles;
  ledger_.dyn_insts += run.value().instructions_executed;
  const hls::ModuleSchedule schedule = hls::schedule_module(module, rc);
  const hls::CycleEstimate est = hls::estimate_cycles(schedule, run.value().profile, rc);
  (void)hls::estimate_area(module);
  t0 = now_ns();
  ledger_.hls.add(t1, t0);
  return est.cycles;
}

void add_end_to_end(Report& report, const std::vector<double>& op_ms, double wall_seconds,
                    double samples_per_program, double setup_seconds) {
  const double n = static_cast<double>(op_ms.size());
  report.values["ops_per_s"] = wall_seconds > 0 ? n / wall_seconds : 0.0;
  report.values["op_ms_p50"] = quantile(op_ms, 0.50);
  report.values["op_ms_p90"] = quantile(op_ms, 0.90);
  report.values["samples_per_program"] = samples_per_program;
  report.values["setup_s"] = setup_seconds;
  std::vector<double> speedups;
  for (const ProgramRow& row : report.rows) speedups.push_back(row.speedup());
  report.values["speedup_vs_o3"] = geomean(speedups);
  report.extra.emplace_back("ops", n);
  // Printed, not gated: on ppo_train it follows which pool threads happened
  // to run the interpreter, and spreads over a quarter across seeds.
  report.extra.emplace_back("peak_rss_mb", peak_rss_mb());
  // The p99 needs ten samples beyond it to mean anything.
  if (op_ms.size() >= 1000) report.extra.emplace_back("op_ms_p99", quantile(op_ms, 0.99));
}

void add_ledger_metrics(Report& report, const Ledger& l, double ops) {
  auto& v = report.values;
  const auto per_op = [ops](double x) { return ops > 0 ? x / ops : 0.0; };
  v["passes.apply_us"] = l.pass.us_per_call();
  v["passes.calls"] = per_op(static_cast<double>(l.pass.calls));
  v["passes.changed_ratio"] =
      l.pass.calls == 0 ? 0.0
                        : static_cast<double>(l.pass_changed) / static_cast<double>(l.pass.calls);
  v["ir.size_after"] = l.size_after_count == 0 ? 0.0
                                               : static_cast<double>(l.size_after_sum) /
                                                     static_cast<double>(l.size_after_count);
  v["interp.run_us"] = l.interp.us_per_call();
  v["interp.dyn_insts"] = l.interp.calls == 0 ? 0.0
                                              : static_cast<double>(l.dyn_insts) /
                                                    static_cast<double>(l.interp.calls);
  v["hls.schedule_us"] = l.hls.us_per_call();
  v["ir.fingerprint_us"] = l.fingerprint.us_per_call();
  v["ir.fingerprint_calls"] = per_op(static_cast<double>(l.fingerprint.calls));
  v["ir.clone_us"] = l.clone.us_per_call();
  v["features.extract_us"] = l.features.us_per_call();
  v["ml.forward_us"] = l.forward.us_per_call();
}

runtime::EvalStats since(const runtime::EvalStats& now, const runtime::EvalStats& before) {
  runtime::EvalStats d = now;
  d.hits -= before.hits;
  d.misses -= before.misses;
  d.sequence_hits -= before.sequence_hits;
  d.primed -= before.primed;
  d.eval_nanos -= before.eval_nanos;
  return d;
}

void add_runtime_metrics(Report& report, const runtime::EvalStats& stats, double ops) {
  report.values["runtime.eval_us"] =
      stats.misses == 0 ? 0.0
                        : static_cast<double>(stats.eval_nanos) / 1e3 /
                              static_cast<double>(stats.misses);
  report.values["runtime.hit_ratio"] = stats.hit_rate();
  report.values["runtime.lookups"] =
      ops > 0 ? static_cast<double>(stats.hits + stats.sequence_hits + stats.misses) / ops : 0.0;
}

void add_attribution(Report& report, const std::vector<double>& untraced_ms,
                     const std::vector<double>& traced_ms,
                     const std::vector<double>& layer_sum_ms) {
  const double base = median(untraced_ms);
  if (base <= 0.0) {
    report.fail("attribution: no untraced ops to compare against");
    return;
  }
  const double gap = std::abs(median(layer_sum_ms) - base) / base;
  report.values["obs.trace_overhead_pct"] = 100.0 * (median(traced_ms) / base - 1.0);
  report.values["obs.attribution_gap_pct"] = 100.0 * gap;
  if (gap > kAttributionTolerance) {
    report.fail("attribution: layer times sum to " + json_number(median(layer_sum_ms)) +
                " ms per op against " + json_number(base) + " ms untraced");
  }
}

void print_report(const Args& args, const Report& report) {
  std::printf("{\"host\": {\"nproc\": %zu, \"hardware_concurrency\": %u, \"compiler\": %s, "
              "\"build_type\": %s, \"commit\": %s}}\n",
              host_nproc(), std::thread::hardware_concurrency(),
              json_string(LEDGER_COMPILER).c_str(), json_string(LEDGER_BUILD_TYPE).c_str(),
              json_string(args.commit).c_str());
  for (const ProgramRow& row : report.rows) {
    std::printf("{\"row\": {\"program\": %s, \"o3_cycles\": %llu, \"found_cycles\": %llu, "
                "\"speedup\": %s",
                json_string(row.program).c_str(),
                static_cast<unsigned long long>(row.o3_cycles),
                static_cast<unsigned long long>(row.found_cycles),
                json_number(row.speedup()).c_str());
    if (row.samples >= 0) std::printf(", \"samples\": %s", json_number(row.samples).c_str());
    std::printf("}}\n");
  }

  bool finite = true;
  std::string metrics;
  for (const auto& spec : args.trace ? std::span<const MetricSpec>(kPerLayer)
                                     : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = report.values.find(spec.name);
    const double value = it == report.values.end() ? 0.0 : it->second;
    finite = finite && std::isfinite(value);
    std::printf("# %-24s %16.6f %s\n", spec.name, value, spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(spec.name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(spec.unit) + "}";
  }
  const double error_rate =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  std::printf("# %-24s %16.6f ratio\n", "error_rate", error_rate);
  for (const auto& [name, value] : report.extra) std::printf("# %-24s %16.6f\n", name.c_str(), value);
  for (const std::string& e : report.errors) std::printf("# check failed: %s\n", e.c_str());

  const bool correct = report.correct() && finite && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace ledger
