// cluster.hpp — the assembled in-process DOSAS deployment (real runtime).
//
// One PFS volume, one Active Storage Server per data server (each with its
// own CE and kernel worker pool), a shared kernel registry, and an Active
// Storage Client — the whole Figure-3 stack in one address space. Used by
// the integration tests and the examples; the paper's *figures* are
// regenerated by the calibrated DES models in core/sim_model.hpp (see
// DESIGN.md §2 for the substitution rationale).
#pragma once

#include <memory>
#include <vector>

#include "client/active_client.hpp"
#include "client/mpiio.hpp"
#include "core/scheme.hpp"
#include "fault/fault.hpp"
#include "kernels/registry.hpp"
#include "pfs/client.hpp"
#include "pfs/file_system.hpp"
#include "server/storage_server.hpp"

namespace dosas::core {

struct ClusterConfig {
  std::uint32_t storage_nodes = 1;
  Bytes strip_size = 64_KiB;
  SchemeKind scheme = SchemeKind::kDosas;
  /// Override the scheme's optimizer (for ablations); empty = by scheme.
  std::string optimizer_override;
  /// The rate table every node's CE schedules with; paced kernels, on the
  /// servers and on the client, run at its rates.
  server::RateTable rates = server::RateTable::paper_rates();
  /// Shared network rate model for the real runtime: every byte any
  /// storage node sends is charged against one TokenBucket at this rate
  /// (0 disables). kVirtual accounts delay without sleeping (the default
  /// for tests); kReal paces transfers in wall-clock time.
  BytesPerSec network_rate = 0.0;
  TokenBucket::Mode network_mode = TokenBucket::Mode::kVirtual;
  /// Give every storage node its OWN TokenBucket at network_rate instead
  /// of one cluster-shared bucket — each node's NIC/uplink, the link shape
  /// the scale harness models (requests to different nodes must not
  /// serialize on one shared link).
  bool network_per_node = false;
  /// Per-node kernel-CPU capacity factors (see
  /// StorageServerConfig::capacity_factor): node i paces its kernels at
  /// rate × node_capacity_factor[i]. Nodes beyond the vector (or entries
  /// <= 0) run at full speed. The real-runtime straggler knob, mirroring
  /// MultiNodeConfig::node_capacity_factor in the DES model.
  std::vector<double> node_capacity_factor;
  /// Shared fault injector wired into every data server (read faults),
  /// every storage server (crashes, kernel throws, stalls, checkpoint
  /// corruption), and the ASC (network errors). Null = no faults.
  std::shared_ptr<fault::FaultInjector> faults;

  /// Template for every storage node's config, copied once per node.
  /// Cluster owns cores, chunk_size, result_cache_entries and
  /// coalesce_identical (written from the fields below) and
  /// capacity_factor (from node_capacity_factor).
  server::StorageServerConfig server;
  /// Template for the ASC's config, copied once. Cluster owns chunk_size
  /// (from client_chunk_size), chain.links (the link model above) and
  /// chain.faults (faults).
  client::ActiveClientConfig client;

  // perfbench sets these five by name, so they stay here as the only way
  // to set these values on a Cluster: Cluster writes them over the
  // templates above.
  std::size_t cores_per_node = 2;        ///< kernel worker pool size per node
  Bytes server_chunk_size = 1_MiB;       ///< kernel streaming granularity
  Bytes client_chunk_size = 1_MiB;
  /// Active-result cache per storage node, in entries (0 disables).
  std::size_t result_cache_entries = 0;
  /// Coalesce identical in-flight active requests on every storage node
  /// (see StorageServerConfig::coalesce_identical).
  bool coalesce_identical = false;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  pfs::FileSystem& fs() { return fs_; }
  pfs::Client& pfs_client() { return pfs_client_; }
  kernels::Registry& registry() { return registry_; }
  server::StorageServer& storage_server(std::uint32_t i) { return *servers_.at(i); }
  std::uint32_t storage_node_count() const { return static_cast<std::uint32_t>(servers_.size()); }

  /// The shared Active Storage Client (thread-safe; many application
  /// threads may call read_ex concurrently, like many MPI ranks).
  client::ActiveClient& asc() { return *asc_; }

  const ClusterConfig& config() const { return config_; }

  /// Accumulated (virtual or real) network transfer delay across the
  /// cluster's link model — the shared bucket or the per-node buckets
  /// summed; 0 when no network_rate is configured.
  Seconds network_delay() const {
    Seconds total = 0.0;
    for (std::size_t i = 0; i < links_.size(); ++i) {
      // A shared link fills every slot with one bucket: count it once.
      if (i > 0 && links_[i] == links_[i - 1]) continue;
      total += links_[i]->accrued_delay();
    }
    return total;
  }

  /// The cluster-shared fault injector (null when none was configured).
  const std::shared_ptr<fault::FaultInjector>& fault_injector() const { return config_.faults; }

 private:
  ClusterConfig config_;
  pfs::FileSystem fs_;
  pfs::Client pfs_client_;
  kernels::Registry registry_;
  /// Link bucket per storage node (empty: no network_rate). A shared link
  /// is the same bucket in every slot.
  std::vector<std::shared_ptr<TokenBucket>> links_;
  std::vector<std::unique_ptr<server::StorageServer>> servers_;
  std::unique_ptr<client::ActiveClient> asc_;
};

}  // namespace dosas::core
