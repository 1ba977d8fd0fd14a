// serve_remote: a closed loop of at most nproc (and at most four) client
// connections, each calling RemoteCompileClient::compile against one
// loopback ServeNode in this process. The policy is PPO-initialised from a
// fixed seed; the node's cache is warmed in set-up, so the interpreter is
// almost idle and the cost sits in passes, ir, features, the policy forward,
// the serve queue and batcher, and net. The request mix covers scalar greedy,
// scalar beam-4 and weighted Pareto decodes of every program, so both
// decoders are measured.
// An op is one request.

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "ir/clone.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "passes/pass.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/artifact.hpp"
#include "serve/remote_client.hpp"
#include "support/rng.hpp"

namespace ledger {

using namespace autophase;

namespace {

// Four random programs from each of the 8 smallest size strata (up to about
// 950 instructions; the kernels have 74 to 204): larger ones would let pass
// application swamp the queue, batcher and net time this workload exists to
// measure, and make the mean request cost hinge on the largest few.
constexpr std::size_t kRandomStrata = kSizeStrata / 4;
constexpr std::size_t kRandomPerStratum = 4;
constexpr std::uint64_t kPolicySeed = 7;        // the served policy is fixed
constexpr std::size_t kMaxClients = 4;
constexpr double kWindowSeconds = 1.0;          // traced run: alternating windows
const char* const kModel = "ledger";

rl::EnvConfig env_config() {
  rl::EnvConfig config;
  config.episode_length = 45;
  config.observation = rl::ObservationMode::kBoth;
  config.normalization = rl::NormalizationMode::kLog;
  return config;
}

struct Request {
  std::size_t program = 0;
  std::string kind;
  serve::CompileRequest request;
  std::string reference;  // compile_sync identity bytes
  serve::Provenance provenance;
  double samples = 0.0;   // simulator calls its warm-up cost
};

/// Members in dependency order: requests point into the corpus, clients
/// talk to the node, so both go first on destruction.
struct ServeState {
  std::vector<Program> corpus;
  std::unique_ptr<serve::PolicyArtifact> artifact;  // the published policy
  std::unique_ptr<net::ServeNode> node;
  std::vector<std::unique_ptr<serve::RemoteCompileClient>> clients;
  std::vector<Request> requests;
};

std::vector<Request> make_requests(const std::vector<Program>& corpus, std::uint64_t seed) {
  // Every program is requested once per decode kind; the seed picks the
  // beam objective and the Pareto weights, and orders the requests.
  constexpr serve::ObjectiveWeights kWeights[] = {{1.0, 0.0, 0.1}, {1.0, 0.5, 0.0},
                                                  {1.0, 0.2, 0.2}};
  Rng rng(mix_seed(seed, 7));
  std::vector<Request> requests;
  for (std::size_t p = 0; p < corpus.size(); ++p) {
    for (const char* kind : {"greedy", "beam4", "pareto"}) {
      Request r;
      r.program = p;
      r.kind = kind;
      r.request.module = corpus[p].module.get();
      r.request.model = kModel;
      if (r.kind == "beam4") {
        r.request.beam_width = 4;
        if (rng.chance(0.5)) r.request.objective = serve::Objective::kCyclesTimesArea;
      } else if (r.kind == "pareto") {
        r.request.weights = kWeights[rng.uniform_int(0, 2)];
        r.request.front_width = 4;
      }
      requests.push_back(std::move(r));
    }
  }
  std::shuffle(requests.begin(), requests.end(), rng);
  return requests;
}

ServeState set_up(std::uint64_t seed, std::size_t clients) {
  ServeState s;
  s.corpus = build_corpus(kRandomPerStratum, seed, kRandomStrata);
  {
    std::vector<const ir::Module*> kernels;
    for (std::size_t p = 0; p < 9; ++p) kernels.push_back(s.corpus[p].module.get());
    rl::PhaseOrderEnv env(kernels, env_config());  // gives the policy its shape
    rl::PpoConfig ppo;
    ppo.hidden = {256, 256};
    ppo.seed = kPolicySeed;
    const rl::PpoTrainer trainer(env, ppo);
    s.artifact = std::make_unique<serve::PolicyArtifact>(
        serve::make_artifact(trainer.export_policy(), env_config()));
  }
  net::ServeNodeConfig config;
  config.compile.workers = clients;
  config.net_workers = clients;
  s.node = std::make_unique<net::ServeNode>(nullptr, nullptr, config);
  if (const Status st = s.node->start(); !st.is_ok()) {
    throw std::runtime_error("serve node failed to start: " + st.message());
  }
  for (std::size_t c = 0; c < clients; ++c) {
    s.clients.push_back(std::make_unique<serve::RemoteCompileClient>(
        std::vector<net::RemoteEndpoint>{s.node->endpoint()}));
  }
  const auto published = s.clients[0]->publish(0, kModel, *s.artifact);
  if (!published.is_ok()) throw std::runtime_error("publish failed: " + published.message());

  // Warm-up: the compile_sync reference answer of every request, which also
  // fills the node's cache exactly as steady traffic would.
  runtime::EvalService& eval = *s.node->service().eval_service();
  s.requests = make_requests(s.corpus, seed);
  for (Request& r : s.requests) {
    const std::size_t before = eval.samples();
    auto response = s.node->service().compile_sync(r.request);
    if (!response.is_ok()) throw std::runtime_error("compile_sync failed: " + response.message());
    r.reference = net::response_identity_bytes(response.value());
    r.provenance = response.value().provenance;
    r.samples = static_cast<double>(eval.samples() - before);
  }
  // Each connection is opened here, not in the first timed request.
  for (std::size_t c = 0; c < clients; ++c) {
    if (!s.clients[c]->compile(s.requests[c % s.requests.size()].request).is_ok()) {
      throw std::runtime_error("first remote request failed");
    }
  }
  return s;
}

/// One client's record of the ops it ran in a window.
struct ClientLog {
  std::vector<double> rt_ms;
  // Traced windows, per answered request: its server-side queue and serve
  // times, the rest of its round trip (net), and the codec replay.
  std::vector<double> queue_ms, serve_ms, net_ms, layer_ms, codec_us, bytes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs every client in a closed loop for `seconds`; returns the wall time
/// until the last in-flight request came back. With `trace`, each response
/// is also re-encoded and decoded through the public wire codec (outside
/// the request's own timing) to time the codec on real messages.
double run_window(ServeState& s, double seconds, bool trace, std::vector<ClientLog>& logs,
                  std::size_t& cursor) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const std::size_t n = s.requests.size();
  const auto start = Clock::now();
  for (std::size_t c = 0; c < s.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      for (std::size_t i = cursor + c * n / s.clients.size(); !stop.load(); ++i) {
        const Request& r = s.requests[i % n];
        const std::uint64_t t0 = now_ns();
        auto response = s.clients[c]->compile(r.request);
        log.rt_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        ++log.attempted;
        if (!response.is_ok() || net::response_identity_bytes(response.value()) != r.reference) {
          ++log.failed;
          continue;
        }
        if (!trace) continue;
        const double queue = static_cast<double>(response.value().queue_nanos) / 1e6;
        const double serve = static_cast<double>(response.value().serve_nanos) / 1e6;
        log.queue_ms.push_back(queue);
        log.serve_ms.push_back(serve);
        log.net_ms.push_back(log.rt_ms.back() - queue - serve);
        log.layer_ms.push_back(queue + serve + log.net_ms.back());
        const std::uint64_t c0 = now_ns();
        const std::string request_bytes = net::encode_compile_request(r.request);
        const auto decoded_request = net::decode_compile_request(request_bytes);
        const std::string response_bytes = net::encode_compile_response(response);
        const auto decoded_response = net::decode_compile_response(response_bytes);
        log.codec_us.push_back(static_cast<double>(now_ns() - c0) / 1e3);
        log.bytes.push_back(static_cast<double>(request_bytes.size() + response_bytes.size()));
        if (!decoded_request.is_ok() || !decoded_response.is_ok()) ++log.failed;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  cursor += 1;  // the next window starts each client one request further on
  return seconds_since(start);
}

template <class F>
std::vector<double> gather(const std::vector<ClientLog>& logs, F field) {
  std::vector<double> out;
  for (const ClientLog& log : logs) {
    const std::vector<double>& v = log.*field;
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

void count(Report& report, const std::vector<ClientLog>& logs) {
  for (const ClientLog& log : logs) {
    report.attempted += log.attempted;
    report.failed += log.failed;
  }
}

/// Replays each distinct request's served sequence step by step through the
/// public layer functions (observation, policy forward, pass), then takes a
/// cold measurement, whose cycles must equal what the node served: an
/// answer check independent of the node's own cache.
void replay_served(const ServeState& s, Report& report, Ledger& ledger) {
  StageReplay replay(ledger);
  const rl::EnvConfig config = env_config();
  const std::vector<int> features = all_features();
  for (const Request& r : s.requests) {
    std::uint64_t t0 = now_ns();
    auto module = ir::clone_module_for_rollout(*r.request.module);
    module->materialize_all();
    ledger.clone.add(t0, now_ns());
    std::vector<double> histogram(passes::kNumPasses, 0.0);
    for (const int pass : r.provenance.sequence) {
      t0 = now_ns();
      std::vector<double> observation =
          rl::build_observation(*module, histogram, config, features);
      s.artifact->normalizer.apply(observation);
      std::uint64_t t1 = now_ns();
      ledger.features.add(t0, t1);
      (void)s.artifact->policy.forward_batch({observation});
      t0 = now_ns();
      ledger.forward.add(t1, t0);
      const bool changed = passes::apply_pass(*module, pass);
      ledger.pass.add(t0, now_ns());
      ledger.pass_changed += changed ? 1 : 0;
      histogram[static_cast<std::size_t>(pass)] += 1.0;
    }
    const std::uint64_t cycles = replay.measure(*module);
    ++report.attempted;
    if (cycles != r.provenance.measured_cycles) {
      ++report.failed;
      report.fail(s.corpus[r.program].name + ": served sequence replays to " +
                  std::to_string(cycles) + " cycles, node measured " +
                  std::to_string(r.provenance.measured_cycles));
    }
  }
}

}  // namespace

Report run_serve_remote(const Args& args) {
  Report report;
  const std::size_t clients = std::min(host_nproc(), kMaxClients);
  auto [s, setup_s] = timed_setups(3, [&] { return set_up(args.seed, clients); });
  runtime::EvalService& eval = *s.node->service().eval_service();
  std::size_t cursor = 0;

  if (!args.trace) {
    std::vector<ClientLog> logs(clients);
    const double wall = run_window(s, args.seconds, false, logs, cursor);
    count(report, logs);
    Ledger unused;
    replay_served(s, report, unused);
    for (const Request& r : s.requests) {
      report.rows.push_back({s.corpus[r.program].name + ":" + r.kind,
                             s.corpus[r.program].o3_cycles, r.provenance.measured_cycles,
                             r.samples});
    }
    add_end_to_end(report, gather(logs, &ClientLog::rt_ms), wall,
                   static_cast<double>(eval.samples()) / static_cast<double>(s.corpus.size()),
                   setup_s);
    return report;
  }

  // Traced run: untraced and traced windows alternate. In traced windows the
  // process tracer is on (client "remote_compile" spans plus the node's
  // queue/request/serve/decode_step/measure spans) and each response's
  // queue and serve times split the round trip; the rest is net.
  std::vector<ClientLog> plain(clients), traced(clients);
  double batch_rows = 0.0, decode_steps = 0.0;
  const runtime::EvalStats before = eval.stats();
  const auto start = Clock::now();
  for (int w = 0; w < 2 || seconds_since(start) < args.seconds; ++w) {
    if (w % 2 == 0) {
      run_window(s, kWindowSeconds, false, plain, cursor);
      continue;
    }
    obs::tracer().clear();
    obs::tracer().set_enabled(true);
    run_window(s, kWindowSeconds, true, traced, cursor);
    obs::tracer().set_enabled(false);
    for (const obs::SpanRecord& span : obs::tracer().snapshot()) {
      if (span.name != "decode_step") continue;
      for (const auto& [key, value] : span.attrs) {
        if (key != "batch_rows") continue;
        batch_rows += std::strtod(value.c_str(), nullptr);
        decode_steps += 1.0;
      }
    }
  }
  obs::tracer().clear();
  count(report, plain);
  count(report, traced);
  const runtime::EvalStats after = eval.stats();

  Ledger ledger;
  replay_served(s, report, ledger);
  const double ops = static_cast<double>(report.attempted);
  add_ledger_metrics(report, ledger, static_cast<double>(s.requests.size()));
  add_runtime_metrics(report, since(after, before), ops);
  auto& v = report.values;
  // No request misses once warm, so the simulator's cost per call comes
  // from the warm-up.
  v["runtime.eval_us"] = after.misses == 0 ? 0.0
                                           : static_cast<double>(after.eval_nanos) / 1e3 /
                                                 static_cast<double>(after.misses);
  v["serve.queue_ms"] = mean(gather(traced, &ClientLog::queue_ms));
  v["serve.serve_ms"] = mean(gather(traced, &ClientLog::serve_ms));
  v["serve.batch_rows"] = decode_steps == 0 ? 0.0 : batch_rows / decode_steps;
  v["net.codec_us"] = mean(gather(traced, &ClientLog::codec_us));
  v["net.overhead_ms"] = mean(gather(traced, &ClientLog::net_ms));
  v["net.bytes_per_req"] = mean(gather(traced, &ClientLog::bytes));
  // net is the round trip's remainder, so the layers cover a traced request
  // by construction; the check bounds how far tracing distorts a request.
  add_attribution(report, gather(plain, &ClientLog::rt_ms), gather(traced, &ClientLog::rt_ms),
                  gather(traced, &ClientLog::layer_ms));
  return report;
}

}  // namespace ledger
