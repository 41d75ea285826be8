// The per-layer metric table of the traced runs.

#include <map>
#include <string>

#include "workloads.h"

namespace pipebench {

const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"net.window_wait_frac", "1"},
      {"net.server_cpu_ns_per_op", "ns"},
      {"net.listener_cpu_ns_per_op", "ns"},
      {"net.encode_ns_per_datagram", "ns"},
      {"net.decode_ns_per_datagram", "ns"},
      {"net.send_ns_per_datagram", "ns"},
      {"net.recv_ns_per_datagram", "ns"},
      {"net.allocs_per_datagram", "count"},
      {"net.kernel_drops", "count"},
      {"faults.shim_ns_per_datagram", "ns"},
      {"faults.fill_ns_per_slot", "ns"},
      {"sim.fetch_ns_per_slot", "ns"},
      {"sim.offer_ns_per_datagram", "ns"},
      {"sim.offers_per_datagram", "count"},
      {"sim.offer_useful_frac", "1"},
      {"sim.checksum_rejects", "count"},
      {"sim.restarts_per_retrieval", "count"},
      {"sim.stale_rejects", "count"},
      {"sim.engine.prepare_ns_per_client", "ns"},
      {"sim.engine.drain_ns_per_event", "ns"},
      {"sim.engine.collect_ns_per_client", "ns"},
      {"sim.engine.events_per_client", "count"},
      {"sim.arrivals_ns_per_client", "ns"},
      {"store.device_reads_per_block", "count"},
      {"store.read_ns_per_block", "ns"},
      {"store.device_bytes_written_per_user_byte", "1"},
      {"store.syncs_per_version", "count"},
      {"store.catalog_entries", "count"},
      {"sim.fetch_commit_us", "us"},
      {"ida.disperse_us_per_version", "us"},
      {"ida.reconstruct_us_per_retrieval", "us"},
      {"ida.crc_bytes_per_op", "count"},
      {"ida.crc_ns_per_kib", "ns"},
      {"bdisk.plan_ms", "ms"},
      {"ida.disperse_ms_setup", "ms"},
      {"store.commit_ms_setup", "ms"},
      {"wire.unattributed_frac", "1"},
      {"trace.overhead_frac", "1"},
      {"fail_ratio", "1"},
  };
  return kMetrics;
}

void CompletePerLayer(Report* report) {
  std::map<std::string, Metric> have;
  for (const Metric& m : report->metrics) {
    if (!have.emplace(m.name, m).second) {
      report->Fail("per-layer metric " + m.name + " reported twice");
    }
  }
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = have.find(name);
    if (it == have.end()) {
      ordered.push_back(Metric{name, 0.0, unit});
      continue;
    }
    ordered.push_back(it->second);
    have.erase(it);
  }
  for (const auto& [name, metric] : have) {
    report->Fail("unknown per-layer metric " + name);
  }
  report->metrics = std::move(ordered);
}

}  // namespace pipebench
