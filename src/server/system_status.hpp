// system_status.hpp — the storage-node state the Contention Estimator probes.
//
// Paper §III-A: "A Contention Estimator (CE) periodically probes the system
// state, including CPU utilization, memory utilization and I/O queue."
// This struct is one probe sample; the CE smooths a stream of them. Memory
// is not probed: the in-memory object store never constrains admission.
#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace dosas::server {

struct SystemStatus {
  std::size_t queued_active = 0;    ///< active I/O requests waiting for a core
  std::size_t queued_normal = 0;    ///< normal I/O requests in the service queue
  std::size_t running_kernels = 0;  ///< kernels currently executing
  double cpu_utilization = 0.0;     ///< [0,1] share of node cores busy
  Bytes queued_bytes = 0;           ///< total data requested by queued I/O (D)
};

}  // namespace dosas::server
