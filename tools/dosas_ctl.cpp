// dosas_ctl — command-line driver for the DOSAS experiment models.
//
//   dosas_ctl sweep     --kernel gaussian --size 128MiB [--ios 1,2,4,...]
//                       [--no-dosas] [--csv out.csv]
//   dosas_ctl bandwidth --kernel gaussian --size 256MiB [--csv out.csv]
//   dosas_ctl accuracy  [--seed 2012]
//   dosas_ctl multinode --nodes 4 --per-node 8 --size 128MiB
//                       [--dedicated-links] [--naive-ce]
//   dosas_ctl replay    --trace workload.trace [--scheme ts|as|dosas]
//   dosas_ctl runtime   --trace workload.trace [--scheme ts|as|dosas]
//                       [--strip 64KiB] [--chunk 1MiB]
//                       [--fault-spec seed=7,read_fault=0.05,...] [--retries 3]
//                       [--timeout-ms 500] [--circuit 3] [--virtual-clock]
//   dosas_ctl calibrate [--mb 64]
//   dosas_ctl trace-gen --ios 32 --size 128MiB [--gap 0.25] [--nodes 4]
//                       [--out workload.trace]
//
// Global flags (any command): --metrics prints a metrics snapshot at exit;
// --trace-out=<file> writes a Chrome trace_event JSON (load it in
// chrome://tracing or https://ui.perfetto.dev). See docs/OBSERVABILITY.md.
//
// Everything the bench binaries do, parameterized — the entry point for
// users running their own what-if studies.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/clock.hpp"

#include "core/cluster.hpp"
#include "core/experiments.hpp"
#include "core/multi_node.hpp"
#include "core/runner.hpp"
#include "core/trace.hpp"
#include "kernels/calibrate.hpp"
#include "kernels/registry.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace dosas;
using namespace dosas::core;

/// Minimal --flag / --flag=value / --flag value parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
        ok_ = false;
        continue;
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "";  // boolean flag
      }
    }
  }

  bool ok() const { return ok_; }
  bool has(const std::string& key) const { return values_.count(key) != 0; }

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  long get_int(const std::string& key, long fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtol(it->second.c_str(), nullptr, 10);
  }
  double get_double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

ModelConfig config_for_kernel(const std::string& kernel) {
  if (kernel == "sum") return ModelConfig::sum();
  return ModelConfig::gaussian();
}

std::vector<std::size_t> parse_ios(const std::string& text) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    out.push_back(static_cast<std::size_t>(
        std::strtoul(text.substr(pos, comma - pos).c_str(), nullptr, 10)));
    pos = comma + 1;
  }
  return out;
}

void write_csv_if_requested(const Args& args, const Table& table) {
  if (!args.has("csv")) return;
  const std::string path = args.get("csv", "");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    const auto csv = table.to_csv();
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

int cmd_sweep(const Args& args) {
  const auto cfg = config_for_kernel(args.get("kernel", "gaussian"));
  auto size = parse_size(args.get("size", "128MiB"));
  if (!size.is_ok()) {
    std::fprintf(stderr, "%s\n", size.status().to_string().c_str());
    return 1;
  }
  const auto ios =
      args.has("ios") ? parse_ios(args.get("ios", "")) : paper_io_counts();
  const bool with_dosas = !args.has("no-dosas");
  const auto points = scheme_sweep(cfg, ios, size.value(), with_dosas);
  const auto table = sweep_table(points, with_dosas);
  table.print(std::cout);
  write_csv_if_requested(args, table);
  return 0;
}

int cmd_bandwidth(const Args& args) {
  const auto cfg = config_for_kernel(args.get("kernel", "gaussian"));
  auto size = parse_size(args.get("size", "256MiB"));
  if (!size.is_ok()) {
    std::fprintf(stderr, "%s\n", size.status().to_string().c_str());
    return 1;
  }
  const auto ios =
      args.has("ios") ? parse_ios(args.get("ios", "")) : paper_io_counts();
  const auto table = bandwidth_table(bandwidth_sweep(cfg, ios, size.value()));
  table.print(std::cout);
  write_csv_if_requested(args, table);
  return 0;
}

int cmd_accuracy(const Args& args) {
  const auto report =
      scheduler_accuracy(static_cast<std::uint64_t>(args.get_int("seed", 2012)));
  const auto table = accuracy_table(report);
  table.print(std::cout);
  std::printf("\noverall accuracy: %.1f%%\n", 100.0 * report.accuracy);
  write_csv_if_requested(args, table);
  return 0;
}

int cmd_multinode(const Args& args) {
  MultiNodeConfig cfg;
  cfg.node = config_for_kernel(args.get("kernel", "gaussian"));
  cfg.storage_nodes = static_cast<std::uint32_t>(args.get_int("nodes", 4));
  cfg.shared_link = !args.has("dedicated-links");
  cfg.ce_bandwidth_aware = !args.has("naive-ce");
  auto size = parse_size(args.get("size", "128MiB"));
  if (!size.is_ok()) {
    std::fprintf(stderr, "%s\n", size.status().to_string().c_str());
    return 1;
  }
  const auto per_node = static_cast<std::size_t>(args.get_int("per-node", 8));
  const auto workload = balanced_workload(cfg.storage_nodes, per_node, size.value());

  Table table({"scheme", "makespan (s)", "agg bw (MiB/s)", "active", "demoted",
               "interrupted"});
  for (auto scheme : {SchemeKind::kTraditional, SchemeKind::kActive, SchemeKind::kDosas}) {
    const auto r = simulate_multi_node(scheme, cfg, workload);
    table.add_row({scheme_name(scheme), fmt(r.makespan), fmt(r.aggregate_bandwidth_mbps),
                   std::to_string(r.served_active), std::to_string(r.demoted),
                   std::to_string(r.interrupted)});
  }
  table.print(std::cout);
  write_csv_if_requested(args, table);
  return 0;
}

int cmd_replay(const Args& args) {
  if (!args.has("trace")) {
    std::fprintf(stderr, "replay requires --trace <file>\n");
    return 1;
  }
  auto trace = Trace::load(args.get("trace", ""));
  if (!trace.is_ok()) {
    std::fprintf(stderr, "%s\n", trace.status().to_string().c_str());
    return 1;
  }
  MultiNodeConfig cfg;
  cfg.node = config_for_kernel(args.get("kernel", "gaussian"));
  cfg.storage_nodes = std::max(1u, trace.value().node_count());
  cfg.shared_link = !args.has("dedicated-links");

  const std::string scheme_s = args.get("scheme", "all");
  std::vector<SchemeKind> schemes;
  if (scheme_s == "ts") {
    schemes = {SchemeKind::kTraditional};
  } else if (scheme_s == "as") {
    schemes = {SchemeKind::kActive};
  } else if (scheme_s == "dosas") {
    schemes = {SchemeKind::kDosas};
  } else {
    schemes = {SchemeKind::kTraditional, SchemeKind::kActive, SchemeKind::kDosas};
  }

  std::printf("replaying %zu request(s) over %u storage node(s)\n\n",
              trace.value().records.size(), cfg.storage_nodes);
  Table table({"scheme", "makespan (s)", "mean completion (s)", "demoted", "interrupted"});
  for (auto scheme : schemes) {
    const auto r = simulate_multi_node(scheme, cfg, trace.value().to_multi_node_requests());
    table.add_row({scheme_name(scheme), fmt(r.makespan), fmt(r.mean_completion),
                   std::to_string(r.demoted), std::to_string(r.interrupted)});
  }
  table.print(std::cout);
  write_csv_if_requested(args, table);
  return 0;
}

int cmd_runtime(const Args& args) {
  if (!args.has("trace")) {
    std::fprintf(stderr, "runtime requires --trace <file>\n");
    return 1;
  }
  auto trace = Trace::load(args.get("trace", ""));
  if (!trace.is_ok()) {
    std::fprintf(stderr, "%s\n", trace.status().to_string().c_str());
    return 1;
  }
  auto strip = parse_size(args.get("strip", "64KiB"));
  auto chunk = parse_size(args.get("chunk", "1MiB"));
  if (!strip.is_ok() || !chunk.is_ok()) {
    std::fprintf(stderr, "bad --strip/--chunk size\n");
    return 1;
  }

  ClusterConfig cfg;
  cfg.storage_nodes = std::max(1u, trace.value().node_count());
  cfg.strip_size = strip.value();
  cfg.server_chunk_size = chunk.value();
  cfg.client_chunk_size = chunk.value();
  const std::string scheme_s = args.get("scheme", "dosas");
  if (scheme_s == "ts") {
    cfg.scheme = SchemeKind::kTraditional;
  } else if (scheme_s == "as") {
    cfg.scheme = SchemeKind::kActive;
  } else if (scheme_s == "dosas") {
    cfg.scheme = SchemeKind::kDosas;
  } else {
    std::fprintf(stderr, "unknown --scheme '%s' (expected ts|as|dosas)\n", scheme_s.c_str());
    return 1;
  }

  // Fault-injection + recovery knobs (see docs/RESILIENCE.md).
  if (args.has("fault-spec")) {
    auto spec = fault::FaultSpec::parse(args.get("fault-spec", ""));
    if (!spec.is_ok()) {
      std::fprintf(stderr, "%s\n", spec.status().to_string().c_str());
      return 1;
    }
    cfg.faults = std::make_shared<fault::FaultInjector>(spec.value());
    std::printf("fault spec: %s\n", cfg.faults->spec().to_string().c_str());
  }
  const int retries = static_cast<int>(args.get_int("retries", 0));
  if (retries > 0) cfg.client.chain.retry.max_attempts = 1 + retries;
  const double timeout_ms = args.get_double("timeout-ms", 0.0);
  if (timeout_ms > 0.0) cfg.client.request_timeout = timeout_ms / 1000.0;
  cfg.client.chain.circuit_threshold = static_cast<int>(args.get_int("circuit", 0));

  // --virtual-clock: run the workload in DST mode — backoff, deadlines and
  // probe ticks jump instead of sleeping. Declared before the Cluster so
  // the clock outlives every participant it spawned, and installed before
  // construction so the cluster's participants are its fibers.
  std::unique_ptr<VirtualClock> vclock;
  std::unique_ptr<ScopedClockOverride> clock_override;
  if (args.has("virtual-clock")) {
    vclock = std::make_unique<VirtualClock>();
    clock_override = std::make_unique<ScopedClockOverride>(*vclock);
  }

  Cluster cluster(cfg);

  // Materialize each trace record as a file pinned to its node (a one-server
  // stripe group based at that data server), filled with deterministic data.
  std::vector<WorkloadRequest> requests;
  requests.reserve(trace.value().records.size());
  for (std::size_t i = 0; i < trace.value().records.size(); ++i) {
    const auto& rec = trace.value().records[i];
    pfs::StripingParams striping;
    striping.strip_size = cfg.strip_size;
    striping.server_count = 1;
    striping.base_server = rec.node % cfg.storage_nodes;
    const std::string path = "/runtime/req" + std::to_string(i);
    auto meta = cluster.pfs_client().create(path, striping);
    if (!meta.is_ok()) {
      std::fprintf(stderr, "%s\n", meta.status().to_string().c_str());
      return 1;
    }
    auto written = pfs::write_doubles(cluster.pfs_client(), path, rec.size / sizeof(double),
                                      [&](std::size_t j) {
                                        return std::sin(static_cast<double>(i + j) * 0.001);
                                      });
    if (!written.is_ok()) {
      std::fprintf(stderr, "%s\n", written.status().to_string().c_str());
      return 1;
    }
    requests.push_back({path, 0, 0, rec.operation});
  }

  std::printf("running %zu request(s) against the real %u-node cluster (%s scheme)\n\n",
              requests.size(), cluster.storage_node_count(), scheme_name(cfg.scheme));
  const auto report = run_workload(cluster, requests);

  Table table({"request", "node", "op", "size", "outcome", "latency (s)"});
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& rec = trace.value().records[i];
    const auto& out = report.outcomes[i];
    table.add_row({std::to_string(i), std::to_string(rec.node), rec.operation,
                   size_to_text(rec.size), out.ok ? "ok" : out.error, fmt(out.latency, 3)});
  }
  table.print(std::cout);

  Table servers({"server", "completed", "demoted", "interrupted", "failed", "coalesced",
                 "timed out", "cancelled", "cache hits", "normal I/O"});
  for (std::uint32_t s = 0; s < cluster.storage_node_count(); ++s) {
    const auto st = cluster.storage_server(s).stats();
    servers.add_row({std::to_string(s), std::to_string(st.active_completed),
                     std::to_string(st.active_rejected), std::to_string(st.active_interrupted),
                     std::to_string(st.active_failed), std::to_string(st.active_coalesced),
                     std::to_string(st.active_timed_out), std::to_string(st.active_cancelled),
                     std::to_string(st.cache_hits), std::to_string(st.normal_requests)});
  }
  std::printf("\n");
  servers.print(std::cout);

  const auto cst = cluster.asc().stats();
  const auto tst = cluster.asc().transport_stats();
  std::printf(
      "\nclient recovery: %llu remote retries (%llu exhausted), %llu timed out,\n"
      "  %llu demoted, %llu resumed, %llu node-down demotes, %llu checkpoint restarts,\n"
      "  %.3f s accrued backoff\n",
      static_cast<unsigned long long>(tst.retries),
      static_cast<unsigned long long>(tst.retries_exhausted),
      static_cast<unsigned long long>(cst.timed_out),
      static_cast<unsigned long long>(cst.demoted),
      static_cast<unsigned long long>(cst.resumed_local),
      static_cast<unsigned long long>(cst.node_down_demotes),
      static_cast<unsigned long long>(cst.checkpoint_corrupt_restarts), tst.backoff_total);
  std::printf(
      "transport: %llu submitted, %llu completed, %llu cancelled, %llu timed out,\n"
      "  %llu batched (%llu coalesced), in-flight hwm %llu, "
      "active RPC p50 %.1f us / p99 %.1f us\n",
      static_cast<unsigned long long>(tst.submitted),
      static_cast<unsigned long long>(tst.completed),
      static_cast<unsigned long long>(tst.cancelled),
      static_cast<unsigned long long>(tst.timed_out),
      static_cast<unsigned long long>(tst.batched),
      static_cast<unsigned long long>(tst.coalesced),
      static_cast<unsigned long long>(tst.inflight_hwm),
      tst.active_latency_p50_us, tst.active_latency_p99_us);
  // Data-plane ledger: the zero-copy story's receipts. Owning copies by
  // charge site name the layer that duplicated bytes (reads copy nothing;
  // `other` is copy-on-write carry-over); the data servers' version slabs
  // show how many object versions writes created and how many are live
  // (current, or pinned by a reader's view); dispatch-ring CAS retries
  // show what the lock-free queues absorbed instead of a mutex.
  {
    std::printf("data plane: %llu byte(s) copied",
                static_cast<unsigned long long>(data_bytes_copied()));
    const char* sep = " (";
    for (std::size_t i = 0; i < static_cast<std::size_t>(CopySite::kCount); ++i) {
      const auto site = static_cast<CopySite>(i);
      const auto n = data_bytes_copied(site);
      if (n == 0) continue;
      std::printf("%s%s %llu", sep, copy_site_name(site),
                  static_cast<unsigned long long>(n));
      sep = ", ";
    }
    if (std::strcmp(sep, ", ") == 0) std::printf(")");
    BufferArena::Stats arena{};
    for (std::uint32_t s = 0; s < cluster.storage_node_count(); ++s) {
      const auto a = cluster.fs().data_server(s).arena_stats();
      arena.slabs_created += a.slabs_created;
      arena.slabs_recycled += a.slabs_recycled;
      arena.slabs_in_use += a.slabs_in_use;
      arena.bytes_in_use += a.bytes_in_use;
    }
    RingStats rings{};
    for (std::uint32_t s = 0; s < cluster.storage_node_count(); ++s) {
      rings += cluster.storage_server(s).dispatch_ring_stats();
    }
    std::printf(
        "\n  object versions: %llu slab(s) created, %llu recycled, %llu live "
        "(%llu byte(s));  dispatch rings: %llu push / %llu pop CAS retries\n",
        static_cast<unsigned long long>(arena.slabs_created),
        static_cast<unsigned long long>(arena.slabs_recycled),
        static_cast<unsigned long long>(arena.slabs_in_use),
        static_cast<unsigned long long>(arena.bytes_in_use),
        static_cast<unsigned long long>(rings.push_cas_retries),
        static_cast<unsigned long long>(rings.pop_cas_retries));
  }
  if (cluster.fault_injector() != nullptr) {
    const auto fst = cluster.fault_injector()->stats();
    std::printf(
        "faults injected: %llu read, %llu kernel-throw, %llu corrupt-ckpt, %llu net,\n"
        "  %llu stall, %llu crash-rejection (total %llu)\n",
        static_cast<unsigned long long>(fst.read_faults),
        static_cast<unsigned long long>(fst.kernel_throws),
        static_cast<unsigned long long>(fst.checkpoints_corrupted),
        static_cast<unsigned long long>(fst.net_errors),
        static_cast<unsigned long long>(fst.stalls),
        static_cast<unsigned long long>(fst.crash_rejections),
        static_cast<unsigned long long>(fst.total()));
  }
  // Per-stage latency decomposition: where each request class spent its
  // time (transport -> admission queue -> kernel, plus client e2e), with
  // an exemplar trace id per histogram linking the worst sample to its
  // causal tree in the --trace-out dump.
  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    Table stages({"stage", "count", "mean (us)", "p50 (us)", "p99 (us)", "exemplar"});
    std::size_t rows = 0;
    for (const auto& name : reg.histogram_names()) {
      if (name.rfind("stage.", 0) != 0) continue;
      const auto s = reg.histogram(name).summary();
      stages.add_row({name, std::to_string(s.count), fmt(s.mean, 1), fmt(s.p50, 1),
                      fmt(s.p99, 1),
                      s.exemplar_trace_id != 0
                          ? "trace:" + std::to_string(s.exemplar_trace_id)
                          : "-"});
      ++rows;
    }
    if (rows > 0) {
      std::printf("\nper-stage latency decomposition:\n");
      stages.print(std::cout);
    }
  }

  if (args.has("dump-flight-recorder")) {
    auto& fr = obs::FlightRecorder::global();
    std::printf("\nflight recorder: %llu event(s) recorded, %llu dump(s) triggered\n",
                static_cast<unsigned long long>(fr.events_recorded()),
                static_cast<unsigned long long>(fr.dumps_triggered()));
    std::fputs(fr.dump_text().c_str(), stdout);
  }

  const auto cs = dosas::clock().status();
  std::printf("\nclock: %s  now=%.6f s  participants=%d  blocked=%d  timed_waiters=%d",
              cs.virtual_time ? "virtual" : "wall", cs.now, cs.participants, cs.blocked,
              cs.timed_waiters);
  if (cs.virtual_time) {
    std::printf("  advances=%llu", static_cast<unsigned long long>(cs.advances));
  }
  std::printf("\n%s time: %.3f s  (%zu failure(s))\n",
              cs.virtual_time ? "virtual" : "wall", report.wall_time, report.failures);
  write_csv_if_requested(args, table);
  return report.failures == 0 ? 0 : 1;
}

int cmd_calibrate(const Args& args) {
  const auto mb = static_cast<Bytes>(args.get_int("mb", 64));
  kernels::CalibrationOptions opts;
  opts.total_bytes = mb * 1_MiB;
  const auto registry = kernels::Registry::with_builtins();
  Table table({"kernel", "rate (MiB/s)"});
  for (const auto& name : registry.names()) {
    auto kernel = registry.create(name);
    if (!kernel.is_ok()) continue;
    const auto r = kernels::calibrate(*kernel.value(), opts);
    table.add_row({name, fmt(to_mib_per_sec(r.rate), 1)});
  }
  table.print(std::cout);
  write_csv_if_requested(args, table);
  return 0;
}

int cmd_trace_gen(const Args& args) {
  auto size = parse_size(args.get("size", "128MiB"));
  if (!size.is_ok()) {
    std::fprintf(stderr, "%s\n", size.status().to_string().c_str());
    return 1;
  }
  const auto ios = static_cast<std::size_t>(args.get_int("ios", 32));
  const auto nodes = static_cast<std::uint32_t>(args.get_int("nodes", 1));
  const double gap = args.get_double("gap", 0.0);
  const std::string op = args.get("op", "gaussian2d");

  Trace trace;
  for (std::size_t i = 0; i < ios; ++i) {
    TraceRecord rec;
    rec.arrival = gap * static_cast<double>(i);
    rec.node = static_cast<std::uint32_t>(i % nodes);
    rec.size = size.value();
    rec.operation = op;
    trace.records.push_back(rec);
  }
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fputs(trace.to_text().c_str(), stdout);
  } else {
    Status st = trace.save(out);
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("wrote %zu request(s) to %s\n", trace.records.size(), out.c_str());
  }
  return 0;
}

int usage() {
  std::fputs(
      "usage: dosas_ctl <command> [flags]\n"
      "  sweep      --kernel gaussian|sum --size 128MiB [--ios 1,2,4] [--no-dosas] [--csv f]\n"
      "  bandwidth  --kernel gaussian|sum --size 256MiB [--ios ...] [--csv f]\n"
      "  accuracy   [--seed 2012] [--csv f]\n"
      "  multinode  --nodes 4 --per-node 8 --size 128MiB [--dedicated-links] [--naive-ce]\n"
      "  replay     --trace file [--scheme ts|as|dosas|all] [--kernel ...]\n"
      "  runtime    --trace file [--scheme ts|as|dosas] [--strip 64KiB] [--chunk 1MiB]\n"
      "             [--fault-spec k=v,...] [--retries N] [--timeout-ms T] [--circuit N]\n"
      "             [--virtual-clock]  (deterministic virtual time: sleeps become jumps)\n"
      "             [--dump-flight-recorder]  (print the event ring after the run)\n"
      "  calibrate  [--mb 64]\n"
      "  trace-gen  --ios 32 --size 128MiB [--gap 0.25] [--nodes 4] [--out file]\n"
      "global flags: --metrics (snapshot at exit)  --trace-out=<file> (Chrome trace)\n",
      stderr);
  return 2;
}

}  // namespace

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "bandwidth") return cmd_bandwidth(args);
  if (cmd == "accuracy") return cmd_accuracy(args);
  if (cmd == "multinode") return cmd_multinode(args);
  if (cmd == "replay") return cmd_replay(args);
  if (cmd == "runtime") return cmd_runtime(args);
  if (cmd == "calibrate") return cmd_calibrate(args);
  if (cmd == "trace-gen") return cmd_trace_gen(args);
  return usage();
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args args(argc, argv);
  if (!args.ok()) return usage();

  // Global observability flags: enable BEFORE the command runs so every
  // instrumentation site along the way records.
  const bool want_metrics = args.has("metrics");
  const std::string trace_out = args.get("trace-out", "");
  if (want_metrics) obs::MetricsRegistry::global().set_enabled(true);
  if (!trace_out.empty()) obs::Tracer::global().set_enabled(true);

  const int rc = dispatch(cmd, args);

  if (want_metrics) {
    std::printf("\n-- metrics snapshot --\n%s",
                obs::MetricsRegistry::global().to_text().c_str());
  }
  if (!trace_out.empty()) {
    Status st = obs::Tracer::global().write(trace_out);
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return rc == 0 ? 1 : rc;
    }
    std::printf("wrote %zu trace event(s) to %s\n", obs::Tracer::global().event_count(),
                trace_out.c_str());
  }
  return rc;
}
