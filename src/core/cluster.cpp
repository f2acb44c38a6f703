#include "core/cluster.hpp"

namespace dosas::core {

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      fs_(config_.storage_nodes, config_.strip_size),
      pfs_client_(fs_),
      registry_(kernels::Registry::with_builtins()) {
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
  server::ContentionEstimator::Config ce;
  ce.optimizer = config_.optimizer_override.empty() ? scheme_optimizer(config_.scheme)
                                                    : config_.optimizer_override;
  servers_.reserve(config_.storage_nodes);
  for (std::uint32_t i = 0; i < config_.storage_nodes; ++i) {
    server::StorageServerConfig sc = config_.server;
    sc.cores = config_.cores_per_node;
    sc.chunk_size = config_.server_chunk_size;
    sc.result_cache_entries = config_.result_cache_entries;
    sc.coalesce_identical = config_.coalesce_identical;
    const bool listed =
        i < config_.node_capacity_factor.size() && config_.node_capacity_factor[i] > 0.0;
    sc.capacity_factor = listed ? config_.node_capacity_factor[i] : 1.0;
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
  client::ActiveClientConfig cc = config_.client;
  cc.chunk_size = config_.client_chunk_size;
  cc.chain.links = links_;
  cc.chain.faults = config_.faults;
  asc_ = std::make_unique<client::ActiveClient>(pfs_client_, registry_, std::move(raw), cc);
}

}  // namespace dosas::core
