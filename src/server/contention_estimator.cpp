#include "server/contention_estimator.hpp"

#include <cassert>

#include "obs/metrics.hpp"

namespace dosas::server {

ContentionEstimator::ContentionEstimator(Config config, RateTable rates)
    : config_(std::move(config)),
      rates_(std::move(rates)),
      optimizer_(sched::make_optimizer(config_.optimizer)),
      cpu_ewma_(config_.ewma_alpha) {
  assert(optimizer_ != nullptr && "unknown optimizer name");
}

void ContentionEstimator::observe(const SystemStatus& status) {
  std::lock_guard lock(mu_);
  last_ = status;
  cpu_ewma_.add(status.cpu_utilization);
  if (obs::metrics_enabled()) {
    // Raw probe vs the smoothed estimate the scheduler actually acts on —
    // the estimated-vs-observed gap the estimator ablation studies.
    obs::gauge_set("ce.cpu_observed", status.cpu_utilization);
    obs::gauge_set("ce.cpu_estimated", cpu_ewma_.value());
    obs::gauge_set("ce.queue_active",
                   static_cast<double>(status.queued_active + status.running_kernels));
    obs::observe("ce.queue_depth_samples",
                 static_cast<double>(status.queued_active + status.running_kernels));
  }
}

SystemStatus ContentionEstimator::smoothed() const {
  std::lock_guard lock(mu_);
  SystemStatus s = last_;
  if (cpu_ewma_.primed()) s.cpu_utilization = cpu_ewma_.value();
  return s;
}

Result<sched::CostModel> ContentionEstimator::model_for(const std::string& op) const {
  auto rates = rates_.get(op);
  if (!rates.is_ok()) return rates.status();

  sched::CostModel m;
  m.bandwidth = config_.bandwidth;
  m.compute_rate = rates.value().compute;
  BytesPerSec s = rates.value().storage_max;
  if (config_.derate_by_external_load) {
    std::lock_guard lock(mu_);
    // Only *external* pressure derates S: the kernels this very scheduler
    // places are the thing being decided, so their load must not be
    // double-counted. The probe reports external pressure as
    // cpu_utilization (normal-I/O service work); we use its smoothed value.
    const double external = cpu_ewma_.primed() ? cpu_ewma_.value() : 0.0;
    s = sched::derate_storage_rate(s, external);
  }
  m.storage_rate = s;
  return m;
}

Result<sched::Policy> ContentionEstimator::schedule(
    const std::string& op, std::span<const sched::ActiveRequest> requests) const {
  // Decision latency: model construction + solver, the full CE response
  // time the runtime blocks on per policy evaluation.
  const bool obs_on = obs::metrics_enabled();
  const double t0 = obs_on ? obs::now_us() : 0.0;
  auto finish = [&](Result<sched::Policy> policy) {
    if (obs_on) {
      obs::observe("ce.decision_us", obs::now_us() - t0);
      obs::count("ce.decisions");
      if (policy.is_ok()) {
        obs::count("ce.demotions_decided",
                   requests.size() - policy.value().active_count());
      }
    }
    return policy;
  };

  auto model = model_for(op);
  if (!model.is_ok()) {
    // Static policies (the TS/AS baselines) ignore the cost model entirely,
    // so missing rates must not block them.
    if (config_.optimizer == "all-active" || config_.optimizer == "all-normal") {
      sched::CostModel dummy;
      dummy.bandwidth = dummy.storage_rate = dummy.compute_rate = 1.0;
      {
        std::lock_guard lock(mu_);
        ++decisions_;
      }
      return finish(optimizer_->run(dummy, requests));
    }
    return model.status();
  }
  {
    std::lock_guard lock(mu_);
    ++decisions_;
  }
  return finish(optimizer_->run(model.value(), requests));
}

std::uint64_t ContentionEstimator::decisions() const {
  std::lock_guard lock(mu_);
  return decisions_;
}

}  // namespace dosas::server
