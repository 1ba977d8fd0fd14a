// Layer-ledger benchmark entry point: runs one workload for a fixed time and
// prints its end-to-end metrics (--trace 0) or its per-layer attribution
// (--trace 1). The last stdout line is the JSON result; the exit code is
// non-zero when any output check failed. See ledger/README.md.
//
//   ledger_bench --workload tune_search|ppo_train|serve_remote
//                --seed N --seconds S --trace 0|1 [--commit ID]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

bool parse(int argc, char** argv, ledger::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: ledger_bench --workload W --seed N --seconds S --trace 0|1 "
                 "[--commit ID]\n");
    return 2;
  }
  ledger::Report report;
  try {
    if (args.workload == "tune_search") {
      report = ledger::run_tune_search(args);
    } else if (args.workload == "ppo_train") {
      report = ledger::run_ppo_train(args);
    } else if (args.workload == "serve_remote") {
      report = ledger::run_serve_remote(args);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  ledger::print_report(args, report);
  return report.correct() ? 0 : 1;
}
