// metrics.hpp — process-wide metrics registry: named gauges and log-linear
// histograms, thread-safe and near-zero-cost while disabled.
//
// The paper's whole argument rests on *seeing* contention (Figs. 2/4/5: AS
// collapses past ~4 concurrent active I/Os per node), and the Contention
// Estimator's demote/offload decisions are only as good as the utilization
// signals feeding them. This registry carries what has a distribution or a
// last value: queue depths, per-stage latencies, per-kernel throughput,
// solver latencies and link utilization (docs/OBSERVABILITY.md catalogues
// every name). Event counts are not here: each lives once, in its owner's
// always-on `Stats` struct (StorageServer, ActiveClient, FaultInjector, the
// transport).
//
// Cost discipline: the registry is DISABLED by default. Instrumented hot
// paths gate on `obs::metrics_enabled()` (one relaxed atomic load) before
// building names or reading clocks, so tier-1 timings are unaffected.
// Histograms are order-independent (see Histogram), so metrics may stay on
// in deterministic virtual-time runs.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace dosas::obs {

/// Last-value-wins instantaneous measurement (queue depth, utilization).
/// Thread-safe; relaxed ordering (metrics never synchronize program state).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-linear bucket histogram (HdrHistogram's layout over doubles). Each
/// octave [2^e, 2^(e+1)), kMinExponent <= e < kMaxExponent, is cut into
/// kSubBuckets equal buckets, each at most 1/32 of its lower bound wide.
/// Quantiles and the mean read each sample as its bucket's midpoint, which
/// is within kRelativeError (1/64, 1.5625%) of the sample. Samples below
/// 2^kMinExponent (~9.8e-4: 0, negatives, NaN) share one bucket that reads
/// as 0, and samples from 2^kMaxExponent (~2.1e9) up share one that reads
/// as the max; every read is clamped to the exact [min, max].
///
/// Each field only ever moves by a commutative update — a bucket count
/// adds, min/max and the exemplar take a maximum — so a summary is a
/// function of the multiset of samples alone: neither the order samples
/// arrive in nor which thread observes them can change it. observe() is a
/// few relaxed atomic operations and takes no mutex; only a sample that can
/// become the exemplar briefly holds the exemplar flag. 1,314 buckets of
/// 8 bytes: a histogram is ~10.3 KiB.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  static constexpr int kMinExponent = -10;
  static constexpr int kMaxExponent = 31;
  static constexpr double kRelativeError = 1.0 / (2.0 * kSubBuckets);
  /// Underflow bucket, the log-linear buckets, overflow bucket.
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets + 2;

  /// `exemplar_trace_id` (0 = none) offers the sample's causal trace: the
  /// histogram keeps the trace of its largest such sample, ties going to the
  /// larger trace id, so a p99 outlier is one lookup away from its trace
  /// (docs/OBSERVABILITY.md "Exemplars").
  void observe(double x, std::uint64_t exemplar_trace_id = 0);

  struct Summary {
    std::size_t count = 0;
    double mean = 0.0, min = 0.0, max = 0.0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0;  ///< nearest-rank
    std::uint64_t exemplar_trace_id = 0;  ///< trace of the largest traced sample (0 = none)
  };
  Summary summary() const;

  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Bucket i holds samples in [bucket_lower(i), bucket_upper(i)); the
  /// first bucket's lower bound is -inf and the last one's upper is +inf.
  static double bucket_lower(std::size_t i);
  static double bucket_upper(std::size_t i);

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  /// The exemplar pair changes as one: a sample that can displace it (at
  /// least the current exemplar value) sets the flag, compares and writes
  /// both fields, and clears it. Smaller samples never touch the flag.
  std::atomic_flag exemplar_busy_;
  std::atomic<double> exemplar_value_{-std::numeric_limits<double>::infinity()};
  std::atomic<std::uint64_t> exemplar_trace_id_{0};
};

/// Named metric store. Handles returned by gauge()/histogram()
/// stay valid for the registry's lifetime (metrics are never deallocated
/// except by clear(), which callers holding handles must not race with).
class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented subsystem publishes to.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Find-or-create.
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Names of every registered histogram, sorted (report generators use
  /// this to build per-stage latency tables without knowing the names).
  std::vector<std::string> histogram_names() const;

  /// Human-readable snapshot: one metric per line, globally sorted by name
  /// regardless of kind, so snapshots diff cleanly across runs.
  std::string to_text() const;

  /// Drop every metric. Invalidates outstanding handles — tests only.
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// ---- free helpers: the form instrumented call sites use ----
//
// All of these are complete no-ops (no lookup, no allocation) while the
// global registry is disabled. Call sites doing more than one emission, or
// computing values to emit, should gate the whole block on
// `obs::metrics_enabled()`.

inline bool metrics_enabled() { return MetricsRegistry::global().enabled(); }

void gauge_set(const std::string& name, double v);
/// Histogram observe, optionally carrying an exemplar trace id (0 = none).
void observe(const std::string& name, double v, std::uint64_t exemplar_trace_id = 0);

/// Microseconds on the injected clock, dosas::clock() (for enabled-path
/// timing). Under a VirtualClock no time passes while code runs, so a span
/// timed with it there reads 0 unless it sleeps or waits.
double now_us();

/// Read DOSAS_METRICS / DOSAS_TRACE_OUT from the environment, enable the
/// corresponding collectors, and register an atexit dump (metrics text
/// snapshot to stdout, Chrome trace JSON to the DOSAS_TRACE_OUT path).
/// Idempotent; used by bench_common.hpp so every bench can emit a trace.
void init_from_env();

}  // namespace dosas::obs
