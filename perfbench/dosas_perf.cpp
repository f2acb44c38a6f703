// dosas_perf — the repository benchmark program (see README.md beside it).
//
//   dosas_perf --workload scan|contend|hot_rw --seed N --seconds S --trace 0|1
//              [--trace-out FILE]
//
// Three workloads drive the real runtime from one process: `scan` and
// `hot_rw` run closed loops of client threads against a core::Cluster on
// the wall clock; `contend` replays a seed-generated open-loop schedule
// through scale::run_scale under its VirtualClock. Every input is generated
// here from --seed, every result is checked against a reference computed at
// set-up, and nothing sleeps to model latency.
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice — untraced, then with the metrics registry on and benchmark-side
// spans around every call into a layer — reports the per-layer metrics from
// the traced half plus the tracing overhead, then runs the per-layer probes.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. A wrong result makes the exit code nonzero.
#include <sched.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "obs/metrics.hpp"
#include "perf.hpp"
#include "scale/harness.hpp"
#include "scale/traffic.hpp"

namespace perf {
namespace {

using namespace dosas;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

// The metric names BENCHMARK.json declares; every run prints exactly these.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "peak_rss_mb", "ops_s", "read_ex_p50_ms", "read_ex_p99_ms", "cpu_us_per_op"};

const std::vector<std::string> kPerLayer = {
    "bench.requests",
    "kernels.sum.ns_per_byte", "kernels.minmax.ns_per_byte", "kernels.gaussian2d.ns_per_byte",
    "kernels.merge_us",
    "pfs.read_ref.ns_per_byte", "pfs.write.ns_per_byte",
    "common.bytes_copied_per_req",
    "common.bytes_copied.to_vector_per_req", "common.bytes_copied.read_gather_per_req",
    "common.bytes_copied.waiter_fanout_per_req", "common.bytes_copied.kernel_stage_per_req",
    "common.bytes_copied.other_per_req",
    "common.ring_cas_retries_per_req",
    "rpc.kread_rtt_us.p50", "rpc.kread_rtt_us.p99",
    "rpc.submitted_per_req", "rpc.bytes_charged_per_req", "rpc.inflight_hwm",
    "rpc.coalesced_per_req",
    "server.stage_samples", "server.queue_wait_us.p50", "server.queue_wait_us.p99",
    "server.kernel_exec_us.p50",
    "server.submit_active_us",
    "server.cache_lookups", "server.cache_hit_ratio", "server.writes",
    "server.cache_invalidations_per_write",
    "server.active_submissions", "server.rejected_frac", "server.interrupted_frac",
    "sched.optimize_us.k4", "sched.optimize_us.k8", "sched.optimize_us.k16",
    "sched.decisions", "sched.queue_k.p50", "sched.queue_k.max",
    "client.submit_us", "client.wait_us",
    "client.demoted_per_req", "client.resumed_local_per_req", "client.local_kernel_runs_per_req",
    "client.raw_bytes_per_req", "client.result_bytes_per_req",
    "scale.wall_per_virtual_s",
    "trace.overhead_frac", "trace.spans"};

double ratio(double num, double base) { return base > 0.0 ? num / base : 0.0; }

std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

// ---- closed-loop load (scan, hot_rw) ----

enum OpKind : std::uint8_t { kReadEx, kRead, kWrite };

/// One completed op: when it finished (seconds into the phase) and how
/// long it took.
struct Sample {
  double done_s = 0.0;
  double ms = 0.0;
};

/// What an op reports back to the loop that timed it.
struct Timed {
  OpKind kind = kReadEx;
  double ms = 0.0;
};

/// One thread's record of a timed phase.
struct OpLog {
  std::vector<Sample> ops[3];  ///< per OpKind
  std::vector<double> submit_us, wait_us;
  std::uint64_t attempted = 0, failed = 0;
};

struct Phase {
  OpLog all;           ///< merged over threads
  double seconds = 0.0;
  double ops_s = 0.0;  ///< median over one-second windows
  double cpu_s = 0.0;  ///< process CPU over the phase
  std::vector<Span> spans;

  std::size_t count() const {
    return all.ops[kReadEx].size() + all.ops[kRead].size() + all.ops[kWrite].size();
  }

  /// Latency percentile `pct` of `kind`, as the median over equal time
  /// slices of the phase of each slice's percentile. There are as many
  /// slices as give each >= 2,000 samples (at most one per second), so a
  /// slow second on a shared host moves one slice, not the figure.
  double typical_ms(OpKind kind, double pct) const {
    const auto& s = all.ops[kind];
    const std::size_t max_slices = std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
    const std::size_t slices = std::clamp<std::size_t>(s.size() / 2000, 1, max_slices);
    std::vector<std::vector<double>> by_slice(slices);
    for (const Sample& x : s) {
      const auto i = static_cast<std::size_t>(x.done_s / seconds * static_cast<double>(slices));
      by_slice[std::min(i, slices - 1)].push_back(x.ms);
    }
    std::vector<double> per_slice;
    for (auto& v : by_slice) {
      if (!v.empty()) per_slice.push_back(percentile(std::move(v), pct));
    }
    return median(per_slice);
  }
};

/// Run `op(tid, rng, log, spans, index) -> Timed` on `threads` closed-loop
/// client threads for `seconds` of wall time.
template <typename Op>
Phase run_closed_loop(std::size_t threads, double seconds, std::uint64_t stream, bool traced,
                      Op op) {
  std::vector<OpLog> logs(threads);
  std::vector<SpanLog> span_logs;
  for (std::size_t t = 0; t < threads; ++t) {
    span_logs.emplace_back(traced, static_cast<std::uint32_t>(t + 1));
  }
  const double cpu0 = cpu_seconds();
  const double start = now_s();
  const double deadline = start + seconds;
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        Rng rng(mix64(stream * 131 + t));
        for (std::uint64_t i = 0; now_s() < deadline; ++i) {
          const Timed r = op(t, rng, logs[t], span_logs[t], i);
          logs[t].ops[r.kind].push_back(Sample{now_s() - start, r.ms});
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  Phase p;
  p.seconds = seconds;
  p.cpu_s = cpu_seconds() - cpu0;
  for (std::size_t t = 0; t < threads; ++t) {
    OpLog& l = logs[t];
    for (int k = 0; k < 3; ++k) {
      p.all.ops[k].insert(p.all.ops[k].end(), l.ops[k].begin(), l.ops[k].end());
    }
    p.all.submit_us.insert(p.all.submit_us.end(), l.submit_us.begin(), l.submit_us.end());
    p.all.wait_us.insert(p.all.wait_us.end(), l.wait_us.begin(), l.wait_us.end());
    p.all.attempted += l.attempted;
    p.all.failed += l.failed;
    p.spans.insert(p.spans.end(), span_logs[t].spans().begin(), span_logs[t].spans().end());
  }
  // Throughput: median of per-window completion counts (one-second
  // windows; ops finishing after the deadline are not counted).
  const std::size_t windows = std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  const double width = seconds / static_cast<double>(windows);
  std::vector<double> counts(windows, 0.0);
  for (const auto& kind : p.all.ops) {
    for (const Sample& x : kind) {
      const auto w = static_cast<std::size_t>(x.done_s / width);
      if (w < windows) counts[w] += 1.0;
    }
  }
  p.ops_s = median(counts) / width;
  return p;
}

/// Time one client call as a child span of `root` (when tracing).
template <typename Fn>
auto timed(SpanLog& log, const char* name, std::uint64_t trace, std::uint64_t root, double& us,
           Fn&& fn) {
  const double t0 = now_us();
  auto r = fn();
  const double t1 = now_us();
  us = t1 - t0;
  log.add(name, trace, root, t0, t1);
  return r;
}

/// read_ex as its two client calls, each timed (and, when tracing, a child
/// span of `root`); the submit and wait times go to `log`.
Result<std::vector<std::uint8_t>> timed_read_ex(client::ActiveClient& asc,
                                                const pfs::FileMeta& meta, Bytes length,
                                                const std::string& operation, OpLog& log,
                                                SpanLog& spans, std::uint64_t trace,
                                                std::uint64_t root) {
  double sub_us = 0.0, wait_us = 0.0;
  auto pending = timed(spans, "client.read_ex_async", trace, root, sub_us,
                       [&] { return asc.read_ex_async(meta, 0, length, operation); });
  auto r = timed(spans, "client.wait", trace, root, wait_us, [&] { return pending.wait(); });
  log.submit_us.push_back(sub_us);
  log.wait_us.push_back(wait_us);
  return r;
}

/// Runtime counters read before and after the traced phase.
struct Counters {
  std::uint64_t cas_retries = 0;
  rpc::TransportStats transport;
  server::StorageServer::Stats server;  ///< summed over nodes
  client::ActiveClient::Stats client;
};

Counters snapshot(core::Cluster& cluster) {
  Counters c;
  for (std::uint32_t n = 0; n < cluster.storage_node_count(); ++n) {
    const RingStats rs = cluster.storage_server(n).dispatch_ring_stats();
    c.cas_retries += rs.push_cas_retries + rs.pop_cas_retries;
    const auto s = cluster.storage_server(n).stats();
    c.server.active_completed += s.active_completed;
    c.server.active_rejected += s.active_rejected;
    c.server.active_interrupted += s.active_interrupted;
    c.server.active_failed += s.active_failed;
    c.server.cache_hits += s.cache_hits;
    c.server.cache_misses += s.cache_misses;
    c.server.cache_invalidations += s.cache_invalidations;
  }
  c.transport = cluster.asc().transport_stats();
  c.client = cluster.asc().stats();
  return c;
}

/// A copy-ledger reading: the total, then one count per CopySite.
using Ledger = std::array<std::uint64_t, static_cast<std::size_t>(CopySite::kCount) + 1>;

Ledger ledger_now() {
  Ledger v{};
  v[0] = data_bytes_copied();
  for (std::size_t i = 0; i < static_cast<std::size_t>(CopySite::kCount); ++i) {
    v[i + 1] = data_bytes_copied(static_cast<CopySite>(i));
  }
  return v;
}

/// The ledger's per-request deltas (shared by every workload).
void add_ledger_metrics(Metrics& out, const Ledger& before, double requests) {
  const std::uint64_t total = data_bytes_copied() - before[0];
  out.add("common.bytes_copied_per_req", ratio(static_cast<double>(total), requests), "B",
          "base bench.requests");
  for (std::size_t i = 0; i < static_cast<std::size_t>(CopySite::kCount); ++i) {
    const auto site = static_cast<CopySite>(i);
    out.add(std::string("common.bytes_copied.") + copy_site_name(site) + "_per_req",
            ratio(static_cast<double>(data_bytes_copied(site) - before[i + 1]), requests), "B",
            "base bench.requests");
  }
}

obs::Histogram::Summary histogram(const std::string& name) {
  return obs::MetricsRegistry::global().histogram(name).summary();
}

/// Per-layer metrics of a closed-loop traced phase, from counter deltas
/// and the registry's stage histograms.
void cluster_layer_metrics(Metrics& out, const Phase& p, const Counters& a, const Counters& b,
                           const Ledger& ledger0, const std::string& optimizer) {
  const double reqs = static_cast<double>(p.count());
  const std::size_t writes = p.all.ops[kWrite].size();
  out.add("bench.requests", reqs, "count", "ops completed in the traced phase");
  add_ledger_metrics(out, ledger0, reqs);
  out.add("common.ring_cas_retries_per_req",
          ratio(static_cast<double>(b.cas_retries - a.cas_retries), reqs), "count",
          "dispatch rings of all nodes, base bench.requests");
  out.add("rpc.submitted_per_req",
          ratio(static_cast<double>(b.transport.submitted - a.transport.submitted), reqs),
          "count", "base bench.requests");
  out.add("rpc.bytes_charged_per_req",
          ratio(static_cast<double>(b.transport.bytes_charged - a.transport.bytes_charged), reqs),
          "B", "base bench.requests");
  out.add("rpc.inflight_hwm", static_cast<double>(b.transport.inflight_hwm), "count");
  out.add("rpc.coalesced_per_req",
          ratio(static_cast<double>(b.transport.coalesced - a.transport.coalesced), reqs),
          "count", "base bench.requests");

  const auto qw = histogram("stage.queue_wait_us.sum");
  const auto ke = histogram("stage.kernel_exec_us.sum");
  out.add("server.stage_samples", static_cast<double>(qw.count), "count",
          "stage.*_us.sum histogram samples (legs)");
  out.add("server.queue_wait_us.p50", qw.p50, "us", samples(qw.count));
  out.add("server.queue_wait_us.p99", qw.p99, "us", samples(qw.count));
  out.add("server.kernel_exec_us.p50", ke.p50, "us", samples(ke.count));

  const double hits = static_cast<double>(b.server.cache_hits - a.server.cache_hits);
  const double lookups = hits + static_cast<double>(b.server.cache_misses - a.server.cache_misses);
  out.add("server.cache_lookups", lookups, "count", "hits + misses, base of cache_hit_ratio");
  out.add("server.cache_hit_ratio", ratio(hits, lookups), "frac",
          "base server.cache_lookups=" + std::to_string(static_cast<std::uint64_t>(lookups)));
  out.add("server.writes", static_cast<double>(writes), "count", "write ops, base of invalidations");
  out.add("server.cache_invalidations_per_write",
          ratio(static_cast<double>(b.server.cache_invalidations - a.server.cache_invalidations),
                static_cast<double>(writes)),
          "count", "base server.writes");
  auto outcomes = [](const server::StorageServer::Stats& s) {
    return s.active_completed + s.active_rejected + s.active_interrupted + s.active_failed;
  };
  const double subs = static_cast<double>(outcomes(b.server) - outcomes(a.server));
  out.add("server.active_submissions", subs, "count", "per-leg outcomes, base of *_frac");
  out.add("server.rejected_frac",
          ratio(static_cast<double>(b.server.active_rejected - a.server.active_rejected), subs),
          "frac", "base server.active_submissions");
  out.add("server.interrupted_frac",
          ratio(static_cast<double>(b.server.active_interrupted - a.server.active_interrupted),
                subs),
          "frac", "base server.active_submissions");

  const auto qk = histogram("sched.solver_k." + optimizer);
  out.add("sched.decisions", static_cast<double>(qk.count), "count",
          "CE optimizer runs (" + optimizer + ")");
  out.add("sched.queue_k.p50", qk.p50, "count", samples(qk.count));
  out.add("sched.queue_k.max", qk.max, "count", samples(qk.count));

  out.add("client.submit_us", percentile(p.all.submit_us, 50), "us",
          "read_ex_async return, " + samples(p.all.submit_us.size()));
  out.add("client.wait_us", percentile(p.all.wait_us, 50), "us",
          "PendingReadEx::wait, " + samples(p.all.wait_us.size()));
  const auto& ca = a.client;
  const auto& cb = b.client;
  out.add("client.demoted_per_req", ratio(static_cast<double>(cb.demoted - ca.demoted), reqs),
          "count", "base bench.requests");
  out.add("client.resumed_local_per_req",
          ratio(static_cast<double>(cb.resumed_local - ca.resumed_local), reqs), "count",
          "base bench.requests");
  out.add("client.local_kernel_runs_per_req",
          ratio(static_cast<double>(cb.local_kernel_runs - ca.local_kernel_runs), reqs), "count",
          "base bench.requests");
  out.add("client.raw_bytes_per_req",
          ratio(static_cast<double>(cb.raw_bytes_read - ca.raw_bytes_read), reqs), "B",
          "base bench.requests");
  out.add("client.result_bytes_per_req",
          ratio(static_cast<double>(cb.result_bytes_received - ca.result_bytes_received), reqs),
          "B", "base bench.requests");
  out.add("scale.wall_per_virtual_s", 0.0, "s/s", "no virtual clock in this workload");
}

// ---- workloads ----

/// What every workload hands back to main().
struct Outcome {
  Metrics e2e;            ///< the BENCHMARK.json end-to-end set
  Metrics layer;          ///< the per-layer set (traced runs)
  Metrics extra;          ///< the workload's own headline metrics (human-readable)
  std::uint64_t attempted = 0, failed = 0;
};

/// Median of `reps` set-ups, each timed by `build` (which returns the
/// seconds it counts as set-up).
template <typename Build>
double median_setup(int reps, Build&& build) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(build());
  return median(t);
}

constexpr int kSetupReps = 3;

/// Add the end-to-end set for a closed-loop workload.
void closed_loop_e2e(Outcome& o, double setup_s, const Phase& p) {
  const std::string rx = "wall, median of per-slice percentiles, " +
                         samples(p.all.ops[kReadEx].size());
  o.e2e.add("setup_s", setup_s, "s", "median of " + std::to_string(kSetupReps) + " set-ups");
  o.e2e.add("peak_rss_mb", peak_rss_mib(), "MiB", "getrusage ru_maxrss");
  o.e2e.add("ops_s", p.ops_s, "1/s", "median of one-second windows");
  o.e2e.add("read_ex_p50_ms", p.typical_ms(kReadEx, 50), "ms", rx);
  o.e2e.add("read_ex_p99_ms", p.typical_ms(kReadEx, 99), "ms", rx);
  o.e2e.add("cpu_us_per_op",
            ratio(p.cpu_s * 1e6, static_cast<double>(p.count())), "us",
            "process user+sys CPU per op");
}

/// Probe, then report the spans of the traced phase plus the probes'.
void probe_and_report(Outcome& o, const Options& opt, const ProbeTarget& probe,
                      std::vector<Span> spans) {
  SpanLog probe_log(true, 0);
  run_probes(probe, probe_log, o.layer);
  spans.insert(spans.end(), probe_log.spans().begin(), probe_log.spans().end());
  o.layer.add("trace.spans", static_cast<double>(report_spans(spans, opt.trace_out)), "count");
}

/// --trace 1 for a closed-loop workload: untraced half, traced half with
/// the metrics registry on, per-layer metrics, probes.
template <typename RunPhase>
void closed_loop_traced(Outcome& o, const Options& opt, core::Cluster& cluster,
                        RunPhase&& run_phase, const ProbeTarget& probe) {
  const double half = opt.seconds / 2.0;
  const Phase plain = run_phase(half, false);
  const Counters a = snapshot(cluster);
  const Ledger ledger0 = ledger_now();
  obs::MetricsRegistry::global().set_enabled(true);
  Phase traced = run_phase(half, true);
  obs::MetricsRegistry::global().set_enabled(false);
  const Counters b = snapshot(cluster);
  cluster_layer_metrics(o.layer, traced, a, b, ledger0, probe.optimizer);
  o.layer.add("trace.overhead_frac", ratio(plain.ops_s, traced.ops_s) - 1.0, "frac",
              "untraced ops_s / traced ops_s - 1");
  o.attempted += plain.all.attempted + traced.all.attempted;
  o.failed += plain.all.failed + traced.all.failed;
  probe_and_report(o, opt, probe, std::move(traced.spans));
}

// scan: 8 x 32 MiB files striped 1 MiB over 4 single-core nodes, whole-file
// sum / minmax read_ex from 2 closed-loop threads. All-active, no cache.
Outcome run_scan(const Options& opt) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::size_t kFiles = 8;
  constexpr Bytes kFileBytes = 32_MiB;
  constexpr std::size_t kThreads = 2;
  const std::array<const char*, 2> kOps = {"sum", "minmax"};

  std::unique_ptr<core::Cluster> cluster;
  std::vector<pfs::FileMeta> files;
  std::vector<std::array<std::vector<std::uint8_t>, 2>> ref;
  std::vector<std::uint8_t> sample;
  const double setup_s = median_setup(kSetupReps, [&] {
    cluster.reset();
    files.clear();
    ref.assign(kFiles, {});
    double t = 0.0;
    double t0 = now_s();
    core::ClusterConfig cfg;
    cfg.storage_nodes = kNodes;
    cfg.strip_size = 1_MiB;
    cfg.cores_per_node = 1;
    cfg.server_chunk_size = 1_MiB;
    cfg.client_chunk_size = 1_MiB;
    cfg.scheme = core::SchemeKind::kActive;
    cfg.network_rate = mb_per_sec(118.0);  // kVirtual: counts link bytes, never sleeps
    cfg.network_per_node = true;
    cluster = std::make_unique<core::Cluster>(cfg);
    t += now_s() - t0;
    for (std::size_t f = 0; f < kFiles; ++f) {
      const auto bytes = integer_doubles(opt.seed * 1000 + f, kFileBytes);
      for (std::size_t k = 0; k < kOps.size(); ++k) {
        ref[f][k] = local_result(cluster->registry(), kOps[k], bytes);
      }
      if (f == 0) sample.assign(bytes.begin(), bytes.begin() + 4_MiB);
      t0 = now_s();
      auto meta = pfs::write_file(cluster->pfs_client(), "/scan/f" + std::to_string(f), bytes);
      t += now_s() - t0;
      if (!meta.is_ok()) std::abort();
      files.push_back(meta.value());
    }
    t0 = now_s();
    for (std::size_t f = 0; f < kFiles; ++f) {  // warm-up: every file, every op
      for (std::size_t k = 0; k < kOps.size(); ++k) {
        auto r = cluster->asc().read_ex(files[f], 0, kFileBytes, kOps[k]);
        if (!r.is_ok() || r.value() != ref[f][k]) {
          std::fprintf(stderr, "scan: warm-up result mismatch on file %zu %s\n", f, kOps[k]);
          std::exit(1);
        }
      }
    }
    return t + now_s() - t0;
  });

  // Rotating order: thread t starts at a seed-dependent file and walks
  // (file, op) pairs; the op alternates every call.
  const std::uint64_t rot = mix64(opt.seed) % kFiles;
  auto phase = [&](double seconds, bool traced) {
    return run_closed_loop(kThreads, seconds, opt.seed, traced,
                           [&](std::size_t t, Rng&, OpLog& log, SpanLog& spans, std::uint64_t i) {
      const std::size_t f = (rot + t * (kFiles / kThreads) + i / 2) % kFiles;
      const std::size_t k = (i + t) % kOps.size();
      const std::uint64_t trace = (static_cast<std::uint64_t>(t + 1) << 40) | i;
      const std::uint64_t root = spans.reserve_id();
      ++log.attempted;
      const double t0 = now_us();
      auto r = timed_read_ex(cluster->asc(), files[f], kFileBytes, kOps[k], log, spans, trace,
                             root);
      const double t1 = now_us();
      spans.add_with_id("op.read_ex", trace, root, t0, t1);
      if (!r.is_ok() || r.value() != ref[f][k]) ++log.failed;
      return Timed{kReadEx, (t1 - t0) / 1e3};
    });
  };

  Outcome o;
  if (!opt.trace) {
    const Phase p = phase(opt.seconds, false);
    closed_loop_e2e(o, setup_s, p);
    o.attempted = p.all.attempted;
    o.failed = p.all.failed;
    o.extra.add("scan_gb_s", p.ops_s * static_cast<double>(kFileBytes) / 1e9, "GB/s",
                "input bytes reduced per wall second");
    o.extra.add("error_rate", ratio(static_cast<double>(p.all.failed),
                                    static_cast<double>(p.all.attempted)),
                "frac", "base " + std::to_string(p.all.attempted) + " ops");
    return o;
  }
  ProbeTarget probe;
  probe.cluster = cluster.get();
  probe.file = files[0];
  probe.data = sample;
  probe.optimizer = core::scheme_optimizer(cluster->config().scheme);
  probe.contended_op = "sum";
  probe.contended_bytes = kFileBytes / kNodes;
  closed_loop_traced(o, opt, *cluster, phase, probe);
  return o;
}

// hot_rw: 256 x 1 MiB single-strip objects on 4 nodes, Zipf 0.99 keys,
// 70% sum read_ex / 15% read_ref / 15% whole-object writes from 3 threads;
// a 16-entry result cache per node and identical-request coalescing.
Outcome run_hot_rw(const Options& opt) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::size_t kObjects = 256;
  constexpr Bytes kObjBytes = 1_MiB;
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kCacheEntries = 16;  // 64 of 256 objects: the hot set, not the tail

  const auto payload_a = integer_doubles(opt.seed * 1000 + 901, kObjBytes);
  const auto payload_b = integer_doubles(opt.seed * 1000 + 902, kObjBytes);
  const BufferRef ref_a = BufferRef::adopt(payload_a);  // shared by every write
  const BufferRef ref_b = BufferRef::adopt(payload_b);
  std::vector<std::uint8_t> sum_a, sum_b;
  std::vector<std::vector<std::uint8_t>> sum_init(kObjects);
  std::vector<std::uint64_t> hash_init(kObjects);

  std::unique_ptr<core::Cluster> cluster;
  std::vector<pfs::FileMeta> objs;
  const double setup_s = median_setup(kSetupReps, [&] {
    cluster.reset();
    objs.clear();
    double t = 0.0;
    double t0 = now_s();
    core::ClusterConfig cfg;
    cfg.storage_nodes = kNodes;
    cfg.strip_size = kObjBytes;
    cfg.cores_per_node = 1;
    cfg.server_chunk_size = kObjBytes;  // one chunk per object: a kernel sees one version
    cfg.client_chunk_size = kObjBytes;
    cfg.scheme = core::SchemeKind::kActive;
    cfg.result_cache_entries = kCacheEntries;
    cfg.coalesce_identical = true;
    cfg.network_rate = mb_per_sec(118.0);
    cfg.network_per_node = true;
    cluster = std::make_unique<core::Cluster>(cfg);
    t += now_s() - t0;
    sum_a = local_result(cluster->registry(), "sum", payload_a);
    sum_b = local_result(cluster->registry(), "sum", payload_b);
    for (std::size_t k = 0; k < kObjects; ++k) {
      const auto bytes = integer_doubles(opt.seed * 1000 + k, kObjBytes);
      sum_init[k] = local_result(cluster->registry(), "sum", bytes);
      hash_init[k] = hash_bytes(bytes);
      pfs::StripingParams striping;
      striping.strip_size = kObjBytes;
      striping.server_count = 1;
      striping.base_server = static_cast<std::uint32_t>(k % kNodes);
      t0 = now_s();
      auto meta = cluster->pfs_client().create("/hot/o" + std::to_string(k), striping);
      if (!meta.is_ok()) std::abort();
      auto written = cluster->pfs_client().write(meta.value(), 0, bytes);
      t += now_s() - t0;
      if (!written.is_ok()) std::abort();
      objs.push_back(written.value());
    }
    t0 = now_s();
    for (std::size_t k = 0; k < kObjects; ++k) {  // warm-up: every object, both read paths
      auto r = cluster->asc().read_ex(objs[k], 0, kObjBytes, "sum");
      auto n = cluster->asc().read_ref(objs[k], 0, kObjBytes);
      if (!r.is_ok() || r.value() != sum_init[k] || !n.is_ok() ||
          hash_bytes(n.value().span()) != hash_init[k]) {
        std::fprintf(stderr, "hot_rw: warm-up result mismatch on object %zu\n", k);
        std::exit(1);
      }
    }
    return t + now_s() - t0;
  });

  const scale::ScrambledZipf zipf(kObjects, 0.99);
  auto phase = [&](double seconds, bool traced) {
    return run_closed_loop(kThreads, seconds, opt.seed, traced,
                           [&](std::size_t t, Rng& rng, OpLog& log, SpanLog& spans,
                               std::uint64_t i) {
      const std::size_t k = zipf.sample(rng);
      const double u = rng.uniform();
      const std::uint64_t trace = (static_cast<std::uint64_t>(t + 1) << 40) | i;
      const std::uint64_t root = spans.reserve_id();
      ++log.attempted;
      const double t0 = now_us();
      bool ok = false;
      OpKind kind;
      if (u < 0.70) {
        kind = kReadEx;
        auto r = timed_read_ex(cluster->asc(), objs[k], kObjBytes, "sum", log, spans, trace, root);
        ok = r.is_ok() &&
             (r.value() == sum_a || r.value() == sum_b || r.value() == sum_init[k]);
      } else if (u < 0.85) {
        kind = kRead;
        double us = 0.0;
        auto r = timed(spans, "client.read_ref", trace, root, us,
                       [&] { return cluster->asc().read_ref(objs[k], 0, kObjBytes); });
        ok = r.is_ok() && (r.value() == payload_a || r.value() == payload_b ||
                           hash_bytes(r.value().span()) == hash_init[k]);
      } else {
        kind = kWrite;
        // Each thread alternates the two precomputed payloads.
        const BufferRef& payload = (i + t) % 2 == 0 ? ref_a : ref_b;
        double us = 0.0;
        auto r = timed(spans, "client.write", trace, root, us,
                       [&] { return cluster->asc().write(objs[k], 0, payload); });
        ok = r.is_ok() && r.value().size == kObjBytes;
      }
      const double t1 = now_us();
      static const char* const kRootNames[] = {"op.read_ex", "op.read", "op.write"};
      spans.add_with_id(kRootNames[kind], trace, root, t0, t1);
      if (!ok) ++log.failed;
      return Timed{kind, (t1 - t0) / 1e3};
    });
  };

  Outcome o;
  if (!opt.trace) {
    const Phase p = phase(opt.seconds, false);
    closed_loop_e2e(o, setup_s, p);
    o.attempted = p.all.attempted;
    o.failed = p.all.failed;
    const std::string rd = "read_ref, " + samples(p.all.ops[kRead].size());
    const std::string wr = "write, " + samples(p.all.ops[kWrite].size());
    o.extra.add("read_p50_ms", p.typical_ms(kRead, 50), "ms", rd);
    o.extra.add("read_p99_ms", p.typical_ms(kRead, 99), "ms", rd);
    o.extra.add("write_p50_ms", p.typical_ms(kWrite, 50), "ms", wr);
    o.extra.add("write_p99_ms", p.typical_ms(kWrite, 99), "ms", wr);
    o.extra.add("error_rate", ratio(static_cast<double>(p.all.failed),
                                    static_cast<double>(p.all.attempted)),
                "frac", "base " + std::to_string(p.all.attempted) + " ops");
    return o;
  }
  ProbeTarget probe;
  probe.cluster = cluster.get();
  probe.file = objs[0];
  probe.data = payload_a;
  probe.optimizer = core::scheme_optimizer(cluster->config().scheme);
  probe.contended_op = "sum";
  probe.contended_bytes = kObjBytes;
  closed_loop_traced(o, opt, *cluster, phase, probe);
  return o;
}

// contend: the paper's scenario on scale::run_scale — 16 paced nodes under
// the VirtualClock, a Zipf 0.99 gaussian2d tenant and a Zipf 0.6 sum
// tenant, Poisson arrivals from one submitter, 3 node-affine completers.
// At 4,500 arrivals/s the hot nodes pass the ~4-deep crossover and the CE
// hands ~12% of requests back, while the schedule still drains as fast as
// it arrives (virtual makespan ~ schedule horizon: no growing backlog).
scale::ScaleScenario contend_scenario() {
  scale::ScaleScenario s;
  s.name = "contend";
  s.nodes = 16;
  s.scheme = core::SchemeKind::kDosas;
  s.file_bytes = 128_KiB;
  s.chunk_size = 32_KiB;
  s.completer_threads = 3;
  s.affinity = scale::CompleterAffinity::kNode;
  s.traffic.clients = 160;
  s.traffic.keys = 64;
  s.traffic.requests = 10000;
  s.traffic.arrival_rate = 4500.0;
  scale::TenantSpec analytics;
  analytics.name = "analytics";
  analytics.weight = 0.8;
  analytics.operation = "gaussian2d:width=128";
  analytics.zipf_theta = 0.99;
  analytics.request_bytes = 128_KiB;
  scale::TenantSpec interactive;
  interactive.name = "interactive";
  interactive.weight = 0.2;
  interactive.operation = "sum";
  interactive.zipf_theta = 0.6;
  interactive.request_bytes = 64_KiB;
  s.traffic.tenants = {analytics, interactive};
  return s;
}

/// Distinct schedules per contend run, each generated from its own
/// sub-seed of --seed. One schedule's virtual p99 varies ~25% with its
/// bursts; the median over 30 varies ~5%, so a run's figures are steady.
constexpr std::size_t kSchedules = 30;

/// Confine this thread, and every thread it creates from now on, to the
/// highest-numbered CPU it may run on.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &set)) cpu = i;
  }
  if (cpu < 0) return;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

Outcome run_contend(const Options& opt) {
  // Under the VirtualClock extra CPUs buy no speed, and in a VM every
  // cross-CPU wakeup costs a host-dependent interrupt. On one CPU a
  // replay's wall time is the stack's own CPU cost, which is what ops_s
  // and cpu_us_per_op measure here.
  pin_to_one_cpu();
  const scale::ScaleScenario scenario = contend_scenario();
  std::vector<scale::Schedule> schedules;
  for (std::size_t j = 0; j < kSchedules; ++j) {
    schedules.push_back(
        scale::generate_traffic(scenario.traffic, mix64(opt.seed * kSchedules + j)));
  }
  // The first replay of each schedule is its reference: a later replay is
  // correct when every request completed and it reproduces the reference
  // bit for bit.
  std::vector<std::optional<scale::ScaleReport>> first(kSchedules);
  Outcome o;
  auto record = [&](std::size_t j, scale::ScaleReport r) {
    o.attempted += r.requests;
    o.failed += r.failed;
    r.records.clear();
    if (!first[j]) {
      first[j] = std::move(r);
    } else if (r.fingerprint != first[j]->fingerprint) {
      o.failed += r.requests - r.failed;
      std::fprintf(stderr, "contend: schedule %zu fingerprint %016llx != first run %016llx\n", j,
                   static_cast<unsigned long long>(r.fingerprint),
                   static_cast<unsigned long long>(first[j]->fingerprint));
    }
  };

  struct Replays {
    std::vector<double> wall_s;
    double cpu_s = 0.0;
    std::uint64_t demoted = 0, resumed_local = 0, local_kernel_runs = 0;
    std::vector<Span> spans;
  };
  // Replay schedules round-robin, at least `min_replays` of them and until
  // `seconds` have passed. Each run_scale call builds its own cluster,
  // writes the key files and replays one schedule.
  std::size_t next = 0;
  auto replay = [&](double seconds, bool traced, std::size_t min_replays) {
    Replays out;
    SpanLog log(traced, 1);
    const double cpu0 = cpu_seconds();
    const double deadline = now_s() + seconds;
    while (out.wall_s.size() < min_replays || now_s() < deadline) {
      const std::size_t j = next++ % kSchedules;
      const double t0 = now_us();
      scale::ScaleReport r = scale::run_scale(scenario, schedules[j]);
      const double t1 = now_us();
      log.add("scale.run_scale", j + 1, 0, t0, t1);
      out.wall_s.push_back((t1 - t0) * 1e-6);
      out.demoted += r.demoted;
      out.resumed_local += r.resumed_local;
      out.local_kernel_runs += r.local_kernel_runs;
      record(j, std::move(r));
    }
    out.cpu_s = cpu_seconds() - cpu0;
    out.spans = log.spans();
    return out;
  };
  // Set-up: the reference replays of the first schedules (cluster build,
  // key-file writes and a full replay each), timed one by one.
  const double setup_s = median_setup(kSetupReps, [&] { return replay(0.0, false, 1).wall_s[0]; });

  const double n = static_cast<double>(scenario.traffic.requests);
  auto ops_s = [&](const Replays& r) { return n / median(r.wall_s); };
  // Median of `field` over the schedules replayed so far.
  auto over_schedules = [&](auto field) {
    std::vector<double> v;
    for (const auto& r : first) {
      if (r) v.push_back(field(*r));
    }
    return median(v);
  };
  auto makespan = [&] {
    return over_schedules([](const scale::ScaleReport& r) { return r.virtual_makespan; });
  };

  if (!opt.trace) {
    // Every schedule is replayed at least once, so the virtual figures
    // cover all of them whatever the machine's speed.
    next = 0;
    const Replays r = replay(opt.seconds, false, kSchedules);
    const double virt_p50 = over_schedules([](const scale::ScaleReport& x) { return x.p50_ms; });
    const double virt_p99 = over_schedules([](const scale::ScaleReport& x) { return x.p99_ms; });
    const std::string reps = std::to_string(r.wall_s.size()) + " replays";
    const std::string virt = "virtual, median of " + std::to_string(kSchedules) +
                             " schedules x " + samples(scenario.traffic.requests);
    std::uint64_t handed_back = 0, digest = scale::kFnvOffset;
    for (const auto& f : first) {
      handed_back += f->demoted + f->resumed_local;
      digest = scale::fnv1a_u64(f->fingerprint, digest);
    }
    o.e2e.add("setup_s", setup_s, "s", "median of " + std::to_string(kSetupReps) + " set-ups");
    o.e2e.add("peak_rss_mb", peak_rss_mib(), "MiB", "getrusage ru_maxrss");
    o.e2e.add("ops_s", ops_s(r), "1/s", "requests / median replay wall time, " + reps);
    o.e2e.add("read_ex_p50_ms", virt_p50, "ms", virt);
    o.e2e.add("read_ex_p99_ms", virt_p99, "ms", virt);
    o.e2e.add("cpu_us_per_op", r.cpu_s * 1e6 / (n * static_cast<double>(r.wall_s.size())), "us",
              "process user+sys CPU per request");
    o.extra.add("virt_p50_ms", virt_p50, "ms", virt);
    o.extra.add("virt_p99_ms", virt_p99, "ms", virt);
    o.extra.add("virt_makespan_s", makespan(), "s",
                "virtual, median; schedule horizon " +
                    std::to_string(n / scenario.traffic.arrival_rate) + " s");
    o.extra.add("wall_us_per_req", median(r.wall_s) * 1e6 / n, "us", reps);
    o.extra.add("demoted_or_interrupted_frac",
                static_cast<double>(handed_back) / (n * kSchedules), "frac",
                "base " + std::to_string(kSchedules * scenario.traffic.requests) + " requests");
    o.extra.add("error_rate", ratio(static_cast<double>(o.failed), static_cast<double>(o.attempted)),
                "frac", "base " + std::to_string(o.attempted) + " requests");
    std::printf("contend: seed %llu, %zu schedules, fingerprint digest %016llx\n",
                static_cast<unsigned long long>(opt.seed), kSchedules,
                static_cast<unsigned long long>(digest));
    return o;
  }

  const double half = opt.seconds / 2.0;
  const Replays plain = replay(half, false, 1);
  const Ledger ledger0 = ledger_now();
  const Replays traced = replay(half, true, 1);
  const double reqs = n * static_cast<double>(traced.wall_s.size());
  Metrics& L = o.layer;
  const char* kHidden = "not exposed by run_scale";
  L.add("bench.requests", reqs, "count", "requests replayed in the traced phase");
  add_ledger_metrics(L, ledger0, reqs);
  L.add("common.ring_cas_retries_per_req", 0.0, "count", kHidden);
  L.add("rpc.submitted_per_req", 0.0, "count", kHidden);
  L.add("rpc.bytes_charged_per_req", 0.0, "B", kHidden);
  L.add("rpc.inflight_hwm", 0.0, "count", kHidden);
  L.add("rpc.coalesced_per_req", 0.0, "count", kHidden);
  L.add("server.stage_samples", 0.0, "count", "run_scale forces metrics off");
  L.add("server.queue_wait_us.p50", 0.0, "us", "run_scale forces metrics off");
  L.add("server.queue_wait_us.p99", 0.0, "us", "run_scale forces metrics off");
  L.add("server.kernel_exec_us.p50", 0.0, "us", "run_scale forces metrics off");
  L.add("server.cache_lookups", 0.0, "count", "result cache off");
  L.add("server.cache_hit_ratio", 0.0, "frac", "base server.cache_lookups=0");
  L.add("server.writes", 0.0, "count", "no writes");
  L.add("server.cache_invalidations_per_write", 0.0, "count", "base server.writes=0");
  L.add("server.active_submissions", reqs, "count", "single-strip requests, one leg each");
  L.add("server.rejected_frac", ratio(static_cast<double>(traced.demoted), reqs), "frac",
        "client-observed rejections, base server.active_submissions");
  L.add("server.interrupted_frac", ratio(static_cast<double>(traced.resumed_local), reqs),
        "frac", "client-observed interruptions, base server.active_submissions");
  L.add("sched.decisions", 0.0, "count", "run_scale forces metrics off");
  L.add("sched.queue_k.p50", 0.0, "count", "run_scale forces metrics off");
  L.add("sched.queue_k.max", 0.0, "count", "run_scale forces metrics off");
  L.add("client.submit_us", 0.0, "us", "submission is inside run_scale");
  L.add("client.wait_us", 0.0, "us", "completion is inside run_scale");
  L.add("client.demoted_per_req", ratio(static_cast<double>(traced.demoted), reqs), "count",
        "base bench.requests");
  L.add("client.resumed_local_per_req", ratio(static_cast<double>(traced.resumed_local), reqs),
        "count", "base bench.requests");
  L.add("client.local_kernel_runs_per_req",
        ratio(static_cast<double>(traced.local_kernel_runs), reqs), "count",
        "base bench.requests");
  L.add("client.raw_bytes_per_req", 0.0, "B", kHidden);
  L.add("client.result_bytes_per_req", 0.0, "B", kHidden);
  L.add("scale.wall_per_virtual_s", median(traced.wall_s) / makespan(), "s/s",
        "median replay wall s / median virtual makespan s");
  L.add("trace.overhead_frac", ratio(ops_s(plain), ops_s(traced)) - 1.0, "frac",
        "untraced ops_s / traced ops_s - 1");

  // Probes run on a wall-clock cluster shaped like the scenario's (16
  // single-core nodes, the same solver, pacing off: nothing may sleep).
  core::ClusterConfig cfg;
  cfg.storage_nodes = scenario.nodes;
  cfg.strip_size = scenario.file_bytes;
  cfg.cores_per_node = 1;
  cfg.server_chunk_size = scenario.chunk_size;
  cfg.client_chunk_size = scenario.chunk_size;
  cfg.scheme = scenario.scheme;
  cfg.optimizer_override = "sortmin";  // what run_scale installs for kDosas
  core::Cluster cluster(cfg);
  const auto data = integer_doubles(opt.seed * 1000 + 7, scenario.file_bytes);
  pfs::StripingParams striping;
  striping.strip_size = scenario.file_bytes;
  striping.server_count = 1;
  auto meta = cluster.pfs_client().create("/contend/probe", striping);
  if (!meta.is_ok()) std::abort();
  auto written = cluster.pfs_client().write(meta.value(), 0, data);
  if (!written.is_ok()) std::abort();
  ProbeTarget probe;
  probe.cluster = &cluster;
  probe.file = written.value();
  probe.data = data;
  probe.optimizer = cfg.optimizer_override;
  probe.contended_op = scenario.traffic.tenants[0].operation;
  probe.contended_bytes = scenario.traffic.tenants[0].request_bytes;
  probe_and_report(o, opt, probe, traced.spans);
  return o;
}

/// Reorder `m` into `names` order; false if a name is missing or extra.
bool conform(Metrics& m, const std::vector<std::string>& names) {
  Metrics out;
  for (const std::string& name : names) {
    const Metric* found = nullptr;
    for (const Metric& x : m.items()) {
      if (x.name == name) found = &x;
    }
    if (found == nullptr || !std::isfinite(found->value)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n", name.c_str());
      return false;
    }
    out.add(found->name, found->value, found->unit, found->note);
  }
  if (m.items().size() != names.size()) {
    std::fprintf(stderr, "perfbench: %zu metrics produced, %zu declared\n", m.items().size(),
                 names.size());
    return false;
  }
  m = out;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: dosas_perf --workload scan|contend|hot_rw --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n");
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") opt.workload = val;
    else if (flag == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::strtod(val.c_str(), nullptr);
    else if (flag == "--trace") opt.trace = val == "1";
    else if (flag == "--trace-out") opt.trace_out = val;
    else return usage();
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0) return usage();

  Outcome o;
  if (opt.workload == "scan") o = run_scan(opt);
  else if (opt.workload == "hot_rw") o = run_hot_rw(opt);
  else if (opt.workload == "contend") o = run_contend(opt);
  else return usage();

  Metrics& reported = opt.trace ? o.layer : o.e2e;
  if (!conform(reported, opt.trace ? kPerLayer : kEndToEnd)) return 3;
  if (!opt.trace) o.extra.print(("workload metrics: " + opt.workload).c_str());
  reported.print(opt.trace ? "per-layer metrics" : "end-to-end metrics");
  const bool correct = o.failed == 0 && o.attempted > 0;
  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed), reported.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) { return perf::run(argc, argv); }
