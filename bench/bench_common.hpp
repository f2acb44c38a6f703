// bench_common.hpp — shared scaffolding for the per-figure/table bench
// harnesses. Each harness prints a banner identifying the experiment it
// regenerates, the platform parameters in force, and then the same
// rows/series the paper reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/sim_model.hpp"
#include "obs/metrics.hpp"

namespace dosas::bench {

/// When DOSAS_BENCH_CSV_DIR is set, every printed table is also written as
/// <dir>/<slug>.csv for downstream plotting.
inline void maybe_write_csv(const std::string& slug, const core::Table& table) {
  const char* dir = std::getenv("DOSAS_BENCH_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + slug + ".csv";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    const std::string csv = table.to_csv();
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }
}

inline void banner(const std::string& experiment, const std::string& description) {
  // Opt-in observability for every bench: DOSAS_METRICS=1 prints a metrics
  // snapshot at exit, DOSAS_TRACE_OUT=<file> writes a Chrome trace.
  obs::init_from_env();
  std::printf("==============================================================\n");
  std::printf("DOSAS reproduction — %s\n", experiment.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================\n");
}

inline void platform_line(const core::ModelConfig& cfg) {
  std::printf(
      "platform: bw=%.0f MB/s  S(storage)=%.0f MB/s  C(client)=%.0f MB/s  "
      "h(d)>=%llu B\n\n",
      cfg.bandwidth_mbps, cfg.storage_kernel_mbps, cfg.client_mbps,
      static_cast<unsigned long long>(cfg.result_size));
}

/// Run and print one scheme-sweep figure (Figs. 2, 4-10).
inline void run_sweep_figure(const std::string& experiment, const std::string& description,
                             const core::ModelConfig& cfg, Bytes request_size, bool with_dosas) {
  banner(experiment, description);
  platform_line(cfg);
  const auto points =
      core::scheme_sweep(cfg, core::paper_io_counts(), request_size, with_dosas);
  const auto table = core::sweep_table(points, with_dosas);
  table.print(std::cout);
  std::string slug = experiment;
  for (char& c : slug) c = c == ' ' ? '_' : static_cast<char>(std::tolower(c));
  maybe_write_csv(slug, table);

  if (with_dosas) {
    // The paper's §IV-B3 headline deltas.
    const auto& small = points.front();
    const auto& large = points.back();
    std::printf("\nDOSAS vs TS @ %zu I/O:  %+.1f%%   (paper: ~40%% better at small scale)\n",
                small.ios, 100.0 * (1.0 - small.dosas / small.ts));
    std::printf("DOSAS vs AS @ %zu I/Os: %+.1f%%   (paper: ~21%% better at large scale)\n",
                large.ios, 100.0 * (1.0 - large.dosas / large.as));
  } else {
    // Report the crossover the figure illustrates.
    std::size_t crossover = 0;
    for (const auto& p : points) {
      if (p.as > p.ts) {
        crossover = p.ios;
        break;
      }
    }
    if (crossover != 0) {
      std::printf("\nAS loses to TS from %zu I/Os per storage node (paper: ~4).\n", crossover);
    } else {
      std::printf("\nAS wins at every tested scale (paper Fig. 6 behaviour).\n");
    }
  }
  std::printf("\n");
}

// ---- machine-readable bench telemetry (schema "dosas-bench-v1") ----

/// The git commit a bench run measured: the DOSAS_GIT_SHA environment
/// variable wins (CI sets it on detached checkouts), then the compile-time
/// stamp from CMake, then "unknown".
inline std::string bench_git_sha() {
  if (const char* env = std::getenv("DOSAS_GIT_SHA"); env != nullptr && *env != '\0') {
    return env;
  }
#ifdef DOSAS_GIT_SHA
  return DOSAS_GIT_SHA;
#else
  return "unknown";
#endif
}

/// One bench run's telemetry record, written as BENCH_<name>.json so CI can
/// archive per-commit performance trajectories and tools/check_bench_json.sh
/// can schema-validate them. Required fields (schema "dosas-bench-v1"):
/// schema, name, git_sha, config (object), metrics (non-empty object).
/// Optional: latency_us {p50,p95,p99}, stages, throughput, demotion_rate.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void config(const std::string& key, const std::string& value) {
    config_[key] = quote(value);
  }
  void config(const std::string& key, double value) { config_[key] = num(value); }
  void metric(const std::string& key, double value) { metrics_[key] = num(value); }

  void latency_us(double p50, double p95, double p99) {
    has_latency_ = true;
    p50_ = p50;
    p95_ = p95;
    p99_ = p99;
  }
  void throughput(double per_sec) {
    has_throughput_ = true;
    throughput_ = per_sec;
  }
  void demotion_rate(double rate) {
    has_demotion_ = true;
    demotion_rate_ = rate;
  }

  /// Per-stage latency breakdown for one request class, in microseconds.
  void stage(const std::string& stage_name, const obs::Histogram::Summary& s) {
    stages_[stage_name] = "{\"count\": " + num(static_cast<double>(s.count)) +
                          ", \"mean_us\": " + num(s.mean) + ", \"p50_us\": " + num(s.p50) +
                          ", \"p99_us\": " + num(s.p99) + "}";
  }

  /// Capture every `stage.*` histogram currently in the metrics registry
  /// (queue-wait / transport / kernel-exec / e2e per request class).
  void stages_from_metrics() {
    auto& reg = obs::MetricsRegistry::global();
    for (const auto& hist_name : reg.histogram_names()) {
      if (hist_name.rfind("stage.", 0) != 0) continue;
      stage(hist_name, reg.histogram(hist_name).summary());
    }
  }

  /// Serialize and write BENCH_<name>.json into DOSAS_BENCH_JSON_DIR (the
  /// working directory when unset). Returns false on I/O failure.
  bool write() const {
    const std::string json = to_json();
    const char* dir = std::getenv("DOSAS_BENCH_JSON_DIR");
    const std::string path =
        (dir != nullptr ? std::string(dir) + "/" : std::string()) + "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote bench telemetry to %s\n", path.c_str());
    return true;
  }

  std::string to_json() const {
    std::string out = "{\n";
    out += "  \"schema\": \"dosas-bench-v1\",\n";
    out += "  \"name\": " + quote(name_) + ",\n";
    out += "  \"git_sha\": " + quote(bench_git_sha()) + ",\n";
    out += "  \"config\": " + object(config_, "    ") + ",\n";
    out += "  \"metrics\": " + object(metrics_, "    ");
    if (has_latency_) {
      out += ",\n  \"latency_us\": {\"p50\": " + num(p50_) + ", \"p95\": " + num(p95_) +
             ", \"p99\": " + num(p99_) + "}";
    }
    if (has_throughput_) out += ",\n  \"throughput\": " + num(throughput_);
    if (has_demotion_) out += ",\n  \"demotion_rate\": " + num(demotion_rate_);
    if (!stages_.empty()) out += ",\n  \"stages\": " + object(stages_, "    ");
    out += "\n}\n";
    return out;
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
      std::snprintf(buf, sizeof buf, "%.0f", v);
    } else {
      std::snprintf(buf, sizeof buf, "%.9g", v);
    }
    return buf;
  }

  /// Render a map of pre-encoded values as a JSON object, keys sorted (maps
  /// iterate sorted), one entry per line for reviewable diffs.
  static std::string object(const std::map<std::string, std::string>& kv,
                            const std::string& indent) {
    if (kv.empty()) return "{}";
    std::string out = "{\n";
    bool first = true;
    for (const auto& [k, v] : kv) {
      if (!first) out += ",\n";
      first = false;
      out += indent + quote(k) + ": " + v;
    }
    out += "\n" + indent.substr(0, indent.size() - 2) + "}";
    return out;
  }

  std::string name_;
  std::map<std::string, std::string> config_;   // key -> encoded JSON value
  std::map<std::string, std::string> metrics_;  // key -> encoded number
  std::map<std::string, std::string> stages_;   // stage -> encoded object
  bool has_latency_ = false, has_throughput_ = false, has_demotion_ = false;
  double p50_ = 0.0, p95_ = 0.0, p99_ = 0.0;
  double throughput_ = 0.0, demotion_rate_ = 0.0;
};

}  // namespace dosas::bench
