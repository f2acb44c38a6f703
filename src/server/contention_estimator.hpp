// contention_estimator.hpp — the CE component of the Active Storage Server.
//
// Paper §III-D: the CE "monitors current system status, including I/O
// queue, memory usage and CPU usage, and generates the scheduling policy
// for all active I/O requests in current I/O queue by using the probed
// system information and the scheduling algorithm. It then sends its
// decision to R component for execution."
//
// Concretely: observe() ingests SystemStatus probes and smooths CPU
// pressure; model_for() produces the Eq. 1–7 CostModel for an operation
// with S_{C,op} derated by that pressure; schedule() runs the configured
// optimizer over a queue snapshot and returns the Policy the runtime
// enforces. Thread-safe (probes arrive from a timer, scheduling requests
// from server threads).
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "common/stats.hpp"
#include "sched/cost_model.hpp"
#include "sched/optimizer.hpp"
#include "server/rate_table.hpp"
#include "server/system_status.hpp"

namespace dosas::server {

class ContentionEstimator {
 public:
  struct Config {
    BytesPerSec bandwidth = mb_per_sec(118.0);  ///< compute<->storage link
    double ewma_alpha = 0.4;      ///< smoothing for utilization probes
    std::string optimizer = "exhaustive";
    /// CPU pressure from sources *other than* the active kernels being
    /// scheduled derates S (the kernels themselves are what we schedule).
    bool derate_by_external_load = true;
  };

  ContentionEstimator(Config config, RateTable rates);

  /// Ingest one probe sample.
  void observe(const SystemStatus& status);

  /// Most recent smoothed status view.
  SystemStatus smoothed() const;

  /// Eq. 1–7 model for `op` under the current (smoothed) load.
  /// kNotFound if the rate table has no entry for `op`.
  Result<sched::CostModel> model_for(const std::string& op) const;

  /// Run the scheduling algorithm over a queue snapshot of requests that
  /// all carry operation `op` (the paper schedules one benchmark at a
  /// time; mixed queues are scheduled per-operation group by the caller).
  Result<sched::Policy> schedule(const std::string& op,
                                 std::span<const sched::ActiveRequest> requests) const;

  const Config& config() const { return config_; }
  const RateTable& rates() const { return rates_; }

  /// Number of schedule() invocations (for tests/metrics).
  std::uint64_t decisions() const;

 private:
  Config config_;
  RateTable rates_;
  std::unique_ptr<sched::Optimizer> optimizer_;

  mutable std::mutex mu_;
  SystemStatus last_{};
  Ewma cpu_ewma_;
  mutable std::uint64_t decisions_ = 0;
};

}  // namespace dosas::server
