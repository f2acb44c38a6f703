// perf.hpp — shared pieces of the repository benchmark: sample statistics,
// the benchmark's own span log, the named-metric table it prints, and the
// seed-derived input generators. Everything here is benchmark-side; the
// runtime under test is only ever reached through its public headers.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/units.hpp"
#include "core/cluster.hpp"

namespace perf {

using dosas::Bytes;

// ---- statistics ----

/// Interpolated percentile, p in [0, 100] (0 for an empty sample).
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

/// Physical (wall) seconds; the benchmark never reads the injected clock.
inline double now_s() { return dosas::wall_clock().now(); }
inline double now_us() { return dosas::wall_clock().now() * 1e6; }

/// Process CPU seconds (user + system) so far.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident set size of the process, in MiB.
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Run `fn` until `min_seconds` have passed (and at least `min_reps`
/// times); returns the per-call wall times in seconds.
template <typename Fn>
std::vector<double> time_reps(Fn&& fn, double min_seconds, std::size_t min_reps = 5) {
  std::vector<double> out;
  const double start = now_s();
  while (out.size() < min_reps || now_s() - start < min_seconds) {
    const double t0 = now_s();
    fn();
    out.push_back(now_s() - t0);
  }
  return out;
}

// ---- spans ----

/// One benchmark-side span around a call into a runtime layer.
struct Span {
  const char* name = "";
  std::uint64_t trace_id = 0;  ///< the op (request) the span belongs to
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root
  double t0_us = 0.0, t1_us = 0.0;
  std::uint32_t tid = 0;
};

/// Per-thread in-memory span buffer; merged and written out at the end.
/// Disabled logs record nothing (the untraced runs).
class SpanLog {
 public:
  SpanLog(bool enabled, std::uint32_t tid) : enabled_(enabled), tid_(tid) {}

  /// Record [t0, t1] under `trace_id`; returns the span id (0 if disabled).
  std::uint64_t add(const char* name, std::uint64_t trace_id, std::uint64_t parent_id,
                    double t0_us, double t1_us) {
    if (!enabled_ || spans_.size() >= kMaxSpans) return 0;
    const std::uint64_t id = (static_cast<std::uint64_t>(tid_) << 40) | ++next_;
    spans_.push_back(Span{name, trace_id, id, parent_id, t0_us, t1_us, tid_});
    return id;
  }

  /// Reserve an id for a parent span recorded after its children.
  std::uint64_t reserve_id() {
    return enabled_ ? (static_cast<std::uint64_t>(tid_) << 40) | ++next_ : 0;
  }
  void add_with_id(const char* name, std::uint64_t trace_id, std::uint64_t id,
                   double t0_us, double t1_us) {
    if (!enabled_ || spans_.size() >= kMaxSpans) return;
    spans_.push_back(Span{name, trace_id, id, 0, t0_us, t1_us, tid_});
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  static constexpr std::size_t kMaxSpans = 1u << 20;
  bool enabled_;
  std::uint32_t tid_;
  std::uint64_t next_ = 0;
  std::vector<Span> spans_;
};

/// Print count / total / self time per span name (self = duration minus
/// the time its child spans cover) and write Chrome trace JSON to `path`
/// (skipped when empty). Returns the span count.
std::size_t report_spans(const std::vector<Span>& spans, const std::string& path);

// ---- metrics ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / ratio base, printed with the value
};

/// An ordered, append-only metric table.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit, std::string note = "") {
    items_.push_back(Metric{std::move(name), value, std::move(unit), std::move(note)});
  }
  const std::vector<Metric>& items() const { return items_; }

  /// One line per metric: name, value, unit, note.
  void print(const char* title) const;
  /// The metrics as a JSON object body: {"name": {"value": v, "unit": u}, ...}.
  std::string json() const;

 private:
  std::vector<Metric> items_;
};

// ---- seed-derived inputs ----

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// `bytes` of little-endian doubles holding integers in [0, 1000): sums of
/// up to 2^43 of them are exact in any order, so striped merges and local
/// references agree bit for bit.
inline std::vector<std::uint8_t> integer_doubles(std::uint64_t stream, Bytes bytes) {
  const std::size_t n = bytes / sizeof(double);
  std::vector<std::uint8_t> out(n * sizeof(double));
  std::uint64_t s = mix64(stream);
  for (std::size_t i = 0; i < n; ++i) {
    s = mix64(s);
    const double v = static_cast<double>(s % 1000);
    std::memcpy(out.data() + i * sizeof(double), &v, sizeof v);
  }
  return out;
}

/// Fast 64-bit content hash (word-at-a-time multiply-xorshift).
inline std::uint64_t hash_bytes(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0x243f6a8885a308d3ULL ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ mix64(w)) * 0x9fb21c651e98df25ULL;
  }
  for (; i < bytes.size(); ++i) h = (h ^ bytes[i]) * 0x100000001b3ULL;
  return mix64(h);
}

/// Encoded result of a local (client-side, single-stream) kernel run.
std::vector<std::uint8_t> local_result(const dosas::kernels::Registry& registry,
                                       const std::string& operation,
                                       std::span<const std::uint8_t> bytes);

// ---- per-layer probes (probes.cpp) ----

/// What the probes run against: a live, idle cluster, one file on it, and
/// a buffer of the workload's own data.
struct ProbeTarget {
  dosas::core::Cluster* cluster = nullptr;
  dosas::pfs::FileMeta file;          ///< read_ref / kRead / submit_active target
  std::span<const std::uint8_t> data; ///< kernel input (the workload's bytes)
  std::string optimizer;              ///< the CE solver the workload's scheme runs
  std::string contended_op;           ///< operation the optimizer probe schedules
  Bytes contended_bytes = 0;          ///< d_i of that operation's requests
};

/// Run every per-layer probe, recording spans into `log`, and append the
/// probe metrics (kernels.*, pfs.*, rpc.kread_rtt_us.*, server.submit_active_us,
/// sched.optimize_us.*) to `out`.
void run_probes(const ProbeTarget& target, SpanLog& log, Metrics& out);

}  // namespace perf
