#include "learn/collector.hpp"

#include <unordered_set>
#include <utility>

#include "ir/printer.hpp"
#include "serve/module_codec.hpp"
#include "support/log.hpp"

namespace autophase::learn {

Collector::Collector(std::shared_ptr<serve::RemoteCompileClient> client,
                     std::size_t max_per_drain)
    : client_(std::move(client)), max_per_drain_(max_per_drain == 0 ? 1 : max_per_drain) {}

CollectReport Collector::collect(ProvenanceLog& into) {
  CollectReport report;
  for (std::size_t node = 0; node < client_->node_count(); ++node) {
    bool reached = false;
    std::uint64_t node_dropped = 0;
    std::uint64_t node_remaining = 0;
    // Drain this node to empty: each kProvenance exchange is bounded by
    // max_per_drain_, and `remaining` tells us whether to go again.
    for (;;) {
      auto batch = client_->drain_provenance(node, max_per_drain_);
      if (!batch.is_ok()) {
        if (!reached) ++report.nodes_failed;
        AP_CLOG(kWarn, "learn") << "provenance drain failed on node " << node << ": "
                                << batch.status().message();
        break;
      }
      if (!reached) {
        reached = true;
        ++report.nodes_reached;
      }
      report.fetched += batch.value().records.size();
      // `dropped` is a lifetime per-node counter: keep the freshest reply's
      // value rather than accumulating across iterations.
      node_dropped = batch.value().dropped;
      node_remaining = batch.value().remaining;
      for (auto& record : batch.value().records) into.append(std::move(record));
      if (batch.value().remaining == 0) break;
      if (batch.value().records.empty()) break;  // node refuses to shrink; bail
    }
    report.dropped += node_dropped;
    report.remaining += node_remaining;
  }
  return report;
}

std::vector<ReplayedRecord> replay_records(std::vector<ProvenanceRecord> records,
                                           runtime::EvalService& eval) {
  std::vector<ReplayedRecord> out;
  out.reserve(records.size());
  for (auto& record : records) {
    auto module = serve::deserialize_module(record.module_bytes);
    if (!module.is_ok()) {
      // Wire-originated bytes: a corrupt program is dropped, never trusted.
      AP_CLOG(kWarn, "learn") << "replay dropped record (fingerprint " << record.fingerprint
                              << "): " << module.status().message();
      continue;
    }
    ReplayedRecord replayed;
    replayed.module = std::move(module).value();
    // Keyed by the decoded program's own fingerprint: the record's field is
    // wire-originated too, and measure_sequence trusts the key it is given.
    const std::uint64_t fingerprint = ir::module_fingerprint(*replayed.module);
    replayed.baseline = eval.measure(*replayed.module, fingerprint);
    replayed.sequence_cycles =
        record.sequence.empty()
            ? replayed.baseline.cycles
            : eval.measure_sequence(*replayed.module, fingerprint, record.sequence).cycles;
    replayed.record = std::move(record);
    out.push_back(std::move(replayed));
  }
  return out;
}

std::vector<std::unique_ptr<ir::Module>> unique_programs(
    const std::vector<ProvenanceRecord>& records, std::size_t max_programs) {
  std::vector<std::unique_ptr<ir::Module>> out;
  std::unordered_set<std::uint64_t> seen;
  for (const auto& record : records) {
    if (max_programs != 0 && out.size() >= max_programs) break;
    if (!seen.insert(record.fingerprint).second) continue;
    auto module = serve::deserialize_module(record.module_bytes);
    if (!module.is_ok()) continue;
    out.push_back(std::move(module).value());
  }
  return out;
}

}  // namespace autophase::learn
