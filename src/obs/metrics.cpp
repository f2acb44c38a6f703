#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/clock.hpp"
#include "obs/trace.hpp"

namespace dosas::obs {

// ---------------------------------------------------------------- Histogram

namespace {

constexpr double kLowest = 0x1p-10;  // 2^Histogram::kMinExponent
constexpr double kHighest = 0x1p31;  // 2^Histogram::kMaxExponent
static_assert(kLowest == 1.0 / (1 << -Histogram::kMinExponent));
static_assert(kHighest == static_cast<double>(std::uint64_t{1} << Histogram::kMaxExponent));

// A positive double's bits, shifted right past all but the top
// kSubBucketBits mantissa bits, are (biased exponent, sub-bucket): one
// integer that grows with the value, one step per log-linear bucket.
constexpr int kKeyShift = std::numeric_limits<double>::digits - 1 - Histogram::kSubBucketBits;
constexpr std::uint64_t kLowestKey = std::bit_cast<std::uint64_t>(kLowest) >> kKeyShift;

std::size_t index_of(double x) {
  if (!(x >= kLowest)) return 0;
  if (x >= kHighest) return Histogram::kBucketCount - 1;
  return 1 + static_cast<std::size_t>((std::bit_cast<std::uint64_t>(x) >> kKeyShift) - kLowestKey);
}

/// The value a sample in bucket i reads as, before clamping to [min, max].
double representative(std::size_t i, double max) {
  if (i == 0) return 0.0;
  if (i == Histogram::kBucketCount - 1) return max;
  return (Histogram::bucket_lower(i) + Histogram::bucket_upper(i)) / 2.0;
}

}  // namespace

double Histogram::bucket_lower(std::size_t i) {
  if (i == 0) return -std::numeric_limits<double>::infinity();
  const std::size_t j = i - 1;
  const double mantissa = 1.0 + static_cast<double>(j % kSubBuckets) / kSubBuckets;
  return std::ldexp(mantissa, kMinExponent + static_cast<int>(j / kSubBuckets));
}

double Histogram::bucket_upper(std::size_t i) {
  return i == kBucketCount - 1 ? std::numeric_limits<double>::infinity() : bucket_lower(i + 1);
}

void Histogram::observe(double x, std::uint64_t exemplar_trace_id) {
  double cur = min_.load(std::memory_order_relaxed);
  while (x < cur && !min_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (x > cur && !max_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
  buckets_[index_of(x)].fetch_add(1, std::memory_order_relaxed);
  // The exemplar value only grows, so a smaller sample cannot win.
  if (exemplar_trace_id == 0 || x < exemplar_value_.load(std::memory_order_relaxed)) return;
  while (exemplar_busy_.test_and_set(std::memory_order_acquire)) {
  }
  const double value = exemplar_value_.load(std::memory_order_relaxed);
  if (x > value ||
      (x == value && exemplar_trace_id > exemplar_trace_id_.load(std::memory_order_relaxed))) {
    exemplar_value_.store(x, std::memory_order_relaxed);
    exemplar_trace_id_.store(exemplar_trace_id, std::memory_order_relaxed);
  }
  exemplar_busy_.clear(std::memory_order_release);
}

Histogram::Summary Histogram::summary() const {
  std::array<std::uint64_t, kBucketCount> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    counts[i] = bucket(i);
    total += counts[i];
  }
  Summary s;
  if (total == 0) return s;
  s.count = total;
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  const auto clamp = [&](double v) { return std::max(s.min, std::min(v, s.max)); };

  // Nearest rank: the ceil(pct% * count)-th smallest sample. When that is
  // the largest sample (p99 of fewer than 100), the exact max is known.
  const std::uint64_t pcts[3] = {50, 90, 99};
  double* const outs[3] = {&s.p50, &s.p90, &s.p99};
  std::size_t next = 0;
  std::uint64_t seen = 0;
  double sum = 0.0;  // accumulated in bucket order: independent of arrival order
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (counts[i] == 0) continue;
    const double v = clamp(representative(i, s.max));
    seen += counts[i];
    sum += static_cast<double>(counts[i]) * v;
    for (; next < 3; ++next) {
      const std::uint64_t rank = (pcts[next] * total + 99) / 100;
      if (seen < rank) break;
      *outs[next] = rank == total ? s.max : v;
    }
  }
  s.mean = clamp(sum / static_cast<double>(total));
  s.exemplar_trace_id = exemplar_trace_id_.load(std::memory_order_relaxed);
  return s;
}

// --------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) names.push_back(name);
  return names;
}

std::string MetricsRegistry::to_text() const {
  std::lock_guard lock(mu_);
  // One globally name-sorted listing (not grouped by kind): a metric keeps
  // its line position when its neighbours change kind, so snapshots diff
  // cleanly and the DST bit-identical fingerprints stay stable.
  std::map<std::string, std::string> lines;
  for (const auto& [name, g] : gauges_) {
    std::ostringstream line;
    line << "gauge    " << name << " = " << g->value() << "\n";
    lines[name] = line.str();
  }
  for (const auto& [name, h] : histograms_) {
    const auto s = h->summary();
    std::ostringstream line;
    line << "hist     " << name << "  count=" << s.count << " mean=" << s.mean
         << " min=" << s.min << " max=" << s.max << " p50=" << s.p50 << " p90=" << s.p90
         << " p99=" << s.p99;
    if (s.exemplar_trace_id != 0) line << " exemplar=trace:" << s.exemplar_trace_id;
    line << "\n";
    lines[name] = line.str();
  }
  std::ostringstream out;
  for (const auto& [name, line] : lines) out << line;
  return out.str();
}

void MetricsRegistry::clear() {
  std::lock_guard lock(mu_);
  gauges_.clear();
  histograms_.clear();
}

// ------------------------------------------------------------ free helpers

void gauge_set(const std::string& name, double v) {
  auto& r = MetricsRegistry::global();
  if (!r.enabled()) return;
  r.gauge(name).set(v);
}

void observe(const std::string& name, double v, std::uint64_t exemplar_trace_id) {
  auto& r = MetricsRegistry::global();
  if (!r.enabled()) return;
  r.histogram(name).observe(v, exemplar_trace_id);
}

double now_us() { return clock().now() * 1e6; }

namespace {

void dump_at_exit() {
  const char* trace_out = std::getenv("DOSAS_TRACE_OUT");
  if (trace_out != nullptr && Tracer::global().event_count() > 0) {
    Status st = Tracer::global().write(trace_out);
    if (st.is_ok()) {
      std::fprintf(stderr, "[obs] wrote %zu trace event(s) to %s\n",
                   Tracer::global().event_count(), trace_out);
    } else {
      std::fprintf(stderr, "[obs] %s\n", st.to_string().c_str());
    }
  }
  if (std::getenv("DOSAS_METRICS") != nullptr) {
    const std::string text = MetricsRegistry::global().to_text();
    std::fputs("\n-- metrics snapshot --\n", stdout);
    std::fputs(text.c_str(), stdout);
  }
}

}  // namespace

void init_from_env() {
  static bool initialized = false;
  if (initialized) return;
  initialized = true;
  bool dump = false;
  if (std::getenv("DOSAS_METRICS") != nullptr) {
    MetricsRegistry::global().set_enabled(true);
    dump = true;
  }
  if (std::getenv("DOSAS_TRACE_OUT") != nullptr) {
    Tracer::global().set_enabled(true);
    dump = true;
  }
  if (dump) std::atexit(dump_at_exit);
}

}  // namespace dosas::obs
