#include "core/runner.hpp"

#include <string>

#include "common/clock.hpp"

namespace dosas::core {

WorkloadReport run_workload(Cluster& cluster, const std::vector<WorkloadRequest>& requests) {
  WorkloadReport report;
  report.outcomes.resize(requests.size());

  const Seconds start = clock().now();
  std::vector<Participant> threads;
  threads.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // One participant per request: an OS thread, or a fiber under a
    // VirtualClock, where blocking in read_ex counts toward quiescence.
    threads.push_back(clock().spawn([&, i] {
      const auto& req = requests[i];
      auto& out = report.outcomes[i];
      const Seconds t0 = clock().now();

      auto meta = cluster.pfs_client().open(req.path);
      if (!meta.is_ok()) {
        out.error = meta.status().to_string();
        out.latency = clock().now() - t0;
        return;
      }
      const Bytes length = req.length != 0 ? req.length : meta.value().size;
      auto result = cluster.asc().read_ex(meta.value(), req.offset, length, req.operation);
      out.latency = clock().now() - t0;
      if (result.is_ok()) {
        out.ok = true;
        out.result = std::move(result).value();
      } else {
        out.error = result.status().to_string();
      }
    }, "request " + std::to_string(i)));
  }
  for (auto& t : threads) t.join();
  report.wall_time = clock().now() - start;
  for (const auto& o : report.outcomes) report.failures += o.ok ? 0 : 1;
  return report;
}

}  // namespace dosas::core
