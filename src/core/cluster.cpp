#include "core/cluster.hpp"

namespace dosas::core {

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      fs_(config_.storage_nodes, config_.strip_size),
      pfs_client_(fs_),
      registry_(kernels::Registry::with_builtins()) {
  const std::string optimizer = config_.optimizer_override.empty()
                                    ? scheme_optimizer(config_.scheme)
                                    : config_.optimizer_override;
  if (config_.network_rate > 0.0) {
    // Per-node uplinks get a small burst: a node's uplink must not hide a
    // whole chunk's transfer cost behind accumulated idle credit, or
    // TS-vs-AS comparisons at low concurrency would see free reads. The
    // shared link is one bucket in every node's slot.
    std::shared_ptr<TokenBucket> shared;
    if (!config_.network_per_node) {
      shared = std::make_shared<TokenBucket>(config_.network_rate, /*burst=*/1_MiB,
                                             config_.network_mode);
    }
    links_.reserve(config_.storage_nodes);
    for (std::uint32_t i = 0; i < config_.storage_nodes; ++i) {
      links_.push_back(shared != nullptr ? shared
                                         : std::make_shared<TokenBucket>(config_.network_rate,
                                                                         /*burst=*/8_KiB,
                                                                         config_.network_mode));
    }
  }
  servers_.reserve(config_.storage_nodes);
  for (std::uint32_t i = 0; i < config_.storage_nodes; ++i) {
    server::ContentionEstimator::Config ce;
    ce.bandwidth = config_.bandwidth;
    ce.optimizer = optimizer;
    server::StorageServer::Config sc;
    sc.cores = config_.cores_per_node;
    sc.chunk_size = config_.server_chunk_size;
    sc.interrupt_min_remaining = config_.interrupt_min_remaining;
    sc.result_cache_entries = config_.result_cache_entries;
    sc.coalesce_identical = config_.coalesce_identical;
    sc.probe_interval = config_.probe_interval;
    sc.pace_kernel_rates = config_.pace_kernel_rates;
    if (i < config_.node_capacity_factor.size() && config_.node_capacity_factor[i] > 0.0) {
      sc.capacity_factor = config_.node_capacity_factor[i];
    }
    servers_.push_back(std::make_unique<server::StorageServer>(
        fs_, i, kernels::Registry::with_builtins(), ce, config_.rates, sc));
    if (config_.faults != nullptr) {
      servers_.back()->set_fault_injector(config_.faults);
      fs_.data_server(i).set_fault_injector(config_.faults);
    }
  }

  std::vector<server::StorageServer*> raw;
  raw.reserve(servers_.size());
  for (auto& s : servers_) raw.push_back(s.get());
  client::ActiveClient::Config cc;
  cc.chunk_size = config_.client_chunk_size;
  cc.resubmit_interrupted = config_.resubmit_interrupted;
  cc.links = links_;
  if (config_.pace_client_compute) {
    cc.pace_compute_rates = std::make_shared<server::RateTable>(config_.rates);
  }
  cc.retry = config_.client_retry;
  cc.request_timeout = config_.request_timeout;
  cc.faults = config_.faults;
  cc.circuit_threshold = config_.circuit_threshold;
  cc.hedge_reads = config_.hedge_reads;
  cc.hedge_p99_multiplier = config_.hedge_p99_multiplier;
  cc.hedge_min_delay = config_.hedge_min_delay;
  cc.hedge_min_samples = config_.hedge_min_samples;
  cc.hedge_cold_delay = config_.hedge_cold_delay;
  cc.hedge_max_per_read = config_.hedge_max_per_read;
  asc_ = std::make_unique<client::ActiveClient>(pfs_client_, registry_, std::move(raw), cc);
}

void Cluster::probe_all() {
  for (auto& s : servers_) s->probe();
}

}  // namespace dosas::core
