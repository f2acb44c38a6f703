// stats.hpp — the contention estimator's utilization smoother and the one
// exact percentile over raw samples (scale reports, bench telemetry).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace dosas {

/// Exponentially-weighted moving average, the smoother the contention
/// estimator applies to noisy utilization probes (paper §III-D: the CE
/// "periodically probes the system state").
class Ewma {
 public:
  /// alpha in (0,1]: weight of the newest sample.
  explicit Ewma(double alpha = 0.3) : alpha_(alpha) {}

  void add(double x) {
    if (!primed_) {
      value_ = x;
      primed_ = true;
    } else {
      value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
  }

  bool primed() const { return primed_; }
  double value() const { return value_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
};

/// Exact percentile over raw samples, p in [0, 100]: linear interpolation
/// between the two nearest ranks (0 for an empty sample).
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace dosas
