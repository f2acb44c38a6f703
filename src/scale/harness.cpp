#include "scale/harness.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/clock.hpp"
#include "common/ring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pfs/client.hpp"

namespace dosas::scale {

namespace {

/// Nearest-rank-interpolated percentile over raw samples, p in [0, 100].
double percentile_of(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

/// Deterministic per-key file contents: doubles any kernel can digest,
/// cheap to regenerate, distinct across keys.
std::vector<std::uint8_t> key_payload(std::uint64_t key, Bytes size) {
  const std::size_t count = size / sizeof(double);
  std::vector<double> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t mix = fnv1a_u64(key * 2654435761ULL + i);
    values[i] = static_cast<double>(mix % 100000) / 1000.0;
  }
  std::vector<std::uint8_t> bytes(count * sizeof(double));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  bytes.resize(size, 0);
  return bytes;
}

/// One queued unit of completer work.
struct PendingItem {
  client::ActiveClient::PendingReadEx pending;
  std::size_t index = 0;
};

}  // namespace

Schedule burst_schedule(std::uint32_t nodes, std::uint32_t per_node, Seconds window,
                        Seconds stagger) {
  Schedule schedule;
  schedule.ops.reserve(static_cast<std::size_t>(nodes) * per_node);
  for (std::uint32_t node = 0; node < nodes; ++node) {
    for (std::uint32_t i = 0; i < per_node; ++i) {
      TrafficOp op;
      op.arrival = static_cast<double>(node) * window + static_cast<double>(i) * stagger;
      op.client = node * per_node + i;
      op.tenant = 0;
      op.key = node;
      schedule.ops.push_back(op);
    }
  }
  return schedule;
}

Seconds mean_node_makespan(const ScaleReport& report) {
  struct Span {
    Seconds first_arrival = 0.0, last_completion = 0.0;
    bool seen = false;
  };
  std::map<std::uint64_t, Span> per_node;
  for (const auto& rec : report.records) {
    auto& span = per_node[rec.key];
    if (!span.seen || rec.arrival < span.first_arrival) span.first_arrival = rec.arrival;
    if (!span.seen || rec.completion > span.last_completion) {
      span.last_completion = rec.completion;
    }
    span.seen = true;
  }
  if (per_node.empty()) return 0.0;
  Seconds total = 0.0;
  for (const auto& [node, span] : per_node) total += span.last_completion - span.first_arrival;
  return total / static_cast<double>(per_node.size());
}

ScaleReport run_scale(const ScaleScenario& scenario) {
  return run_scale(scenario, generate_traffic(scenario.traffic, scenario.seed));
}

ScaleReport run_scale(const ScaleScenario& scenario, const Schedule& schedule) {
  assert(!scenario.traffic.tenants.empty());
  // Quantile sketches and the trace buffer ingest in completion-scheduling
  // order, which is not part of the deterministic surface — force both off
  // for the fingerprinted run (same rule as the striped DST scenario).
  obs::MetricsRegistry::global().set_enabled(false);
  obs::Tracer::global().set_enabled(false);

  ScaleReport report;
  report.requests = schedule.ops.size();
  report.records.resize(schedule.ops.size());

  const Seconds wall_start = wall_clock().now();
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  {
    core::ClusterConfig cfg;
    cfg.storage_nodes = scenario.nodes;
    cfg.strip_size = scenario.file_bytes;
    // One schedulable core per node: the rate table's S is one core's
    // worth (the second physical core serves PFS I/O — DESIGN.md §5), and
    // serialized per-node kernel execution is also what keeps each node's
    // virtual timeline a pure function of its arrival order.
    cfg.cores_per_node = 1;
    cfg.server_chunk_size = scenario.chunk_size;
    cfg.client_chunk_size = scenario.chunk_size;
    cfg.scheme = scenario.scheme;
    // DOSAS at scale uses the exact polynomial optimizer: the default
    // exhaustive search is 2^k per CE evaluation.
    if (scenario.scheme == core::SchemeKind::kDosas) cfg.optimizer_override = "sortmin";
    // The paper calibration (cfg.rates defaults to the paper's table):
    // kernels at S_{C,op}, local kernels at C_{C,op}, and a 118 MB/s
    // uplink per node.
    cfg.server.pace_kernel_rates = true;
    cfg.client.pace_compute_rates = true;
    cfg.network_rate = mb_per_sec(118.0);
    cfg.network_mode = TokenBucket::Mode::kReal;  // sleeps -> virtual jumps
    cfg.network_per_node = true;
    cfg.faults = scenario.faults;
    core::Cluster cluster(cfg);

    // One single-strip file per key, placed whole on node (key % nodes) —
    // deterministic placement, non-mergeable kernels stay single-leg.
    std::vector<pfs::FileMeta> files;
    files.reserve(scenario.traffic.keys);
    Bytes max_request = 0;
    for (const auto& t : scenario.traffic.tenants) max_request = std::max(max_request, t.request_bytes);
    const Bytes file_bytes = std::max(scenario.file_bytes, max_request);
    for (std::uint64_t key = 0; key < scenario.traffic.keys; ++key) {
      pfs::StripingParams striping;
      striping.strip_size = file_bytes;
      striping.server_count = 1;
      striping.base_server = static_cast<std::uint32_t>(key % scenario.nodes);
      auto meta = cluster.pfs_client().create("/scale/key" + std::to_string(key), striping);
      assert(meta.is_ok());
      const auto payload = key_payload(key, file_bytes);
      auto written = cluster.pfs_client().write(meta.value(), 0, payload);
      assert(written.is_ok());
      files.push_back(written.value());
    }

    // Completers are sharded per scenario.affinity (see CompleterAffinity):
    // node affinity serializes all client-side users of one node's token
    // bucket (demoted reads, interrupt resume) on one thread, so two
    // completers never race for the same link when tied at one virtual
    // instant — the one scheduler-order dependence a shared work queue
    // exhibits at hot keys. Client affinity instead gives each logical
    // client its own CPU slot, the paper's cost-model assumption.
    const std::size_t pool = std::max<std::size_t>(1, scenario.completer_threads);
    // Lock-free rings sized for the whole schedule, so the open-loop
    // generator never blocks on a queue hop: a delayed send would distort
    // the arrival process the scenario exists to model.
    const std::size_t ring_cap = std::max<std::size_t>(2, schedule.ops.size());
    // Each per-completer queue has exactly one producer (the open-loop
    // generator below) and one consumer (completer i), so the SPSC ring
    // specialization applies: plain releases on the cursors, no CAS claim
    // loop to retry under contention.
    std::vector<std::unique_ptr<SpscRing<PendingItem>>> queues;
    queues.reserve(pool);
    for (std::size_t i = 0; i < pool; ++i) {
      queues.push_back(std::make_unique<SpscRing<PendingItem>>(ring_cap));
    }
    Ring<std::uint8_t> completions(ring_cap);  // one token per resolved request
    std::vector<Participant> completers;
    completers.reserve(pool);
    for (std::size_t i = 0; i < pool; ++i) {
      completers.push_back(clock().spawn([&, i] {
        SpscRing<PendingItem>& queue = *queues[i];
        while (auto item = queue.receive()) {
          auto result = item->pending.wait();
          RequestRecord& rec = report.records[item->index];
          rec.completion = clock().now();
          rec.ok = result.is_ok();
          if (result.is_ok()) {
            rec.result_hash = fnv1a(result.value().data(), result.value().size());
          } else {
            const std::string& msg = result.status().message();
            rec.result_hash = fnv1a(msg.data(), msg.size());
          }
          completions.send(1);
        }
      }, "completer " + std::to_string(i)));
    }

    // Open loop: sleep to each scheduled arrival, submit, hand off. Under
    // the quiescence rule the virtual submit time equals the scheduled
    // arrival exactly — the generator's Poisson process IS the cluster's
    // arrival process.
    for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
      const TrafficOp& op = schedule.ops[i];
      const Seconds now = clock().now();
      if (op.arrival > now) clock().sleep(op.arrival - now);
      const TenantSpec& tenant = scenario.traffic.tenants.at(op.tenant);
      const pfs::FileMeta& meta = files.at(op.key % files.size());
      const Bytes length = std::min<Bytes>(tenant.request_bytes, meta.size);
      RequestRecord& rec = report.records[i];
      rec.arrival = op.arrival;
      rec.submitted = clock().now();
      rec.key = op.key;
      rec.tenant = op.tenant;
      const std::size_t shard = scenario.affinity == CompleterAffinity::kNode
                                    ? (op.key % scenario.nodes) % pool
                                    : op.client % pool;
      queues[shard]->send(
          PendingItem{cluster.asc().read_ex_async(meta, 0, length, tenant.operation), i});
    }

    // Drain: one completion token per request, received through the clock
    // seam so virtual time keeps advancing while we wait.
    for (std::size_t i = 0; i < schedule.ops.size(); ++i) completions.receive();
    for (auto& q : queues) q->close();
    for (auto& t : completers) t.join();

    const auto stats = cluster.asc().stats();
    report.completed_remote = stats.completed_remote;
    report.demoted = stats.demoted;
    report.resumed_local = stats.resumed_local;
    report.local_kernel_runs = stats.local_kernel_runs;
    report.virtual_end = clock().now();
  }
  report.wall_seconds = wall_clock().now() - wall_start;

  // Aggregates.
  std::vector<double> latencies_ms;
  latencies_ms.reserve(report.records.size());
  Seconds first_arrival = 0.0, last_completion = 0.0;
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const RequestRecord& rec = report.records[i];
    if (rec.ok) ++report.ok; else ++report.failed;
    latencies_ms.push_back((rec.completion - rec.arrival) * 1e3);
    if (i == 0 || rec.arrival < first_arrival) first_arrival = rec.arrival;
    if (i == 0 || rec.completion > last_completion) last_completion = rec.completion;
  }
  report.virtual_makespan = report.records.empty() ? 0.0 : last_completion - first_arrival;
  if (report.virtual_makespan > 0.0) {
    report.throughput_rps =
        static_cast<double>(report.requests) / report.virtual_makespan;
  }
  if (report.requests > 0) {
    report.demotion_rate = static_cast<double>(report.demoted + report.resumed_local) /
                           static_cast<double>(report.requests);
  }
  report.p50_ms = percentile_of(latencies_ms, 50.0);
  report.p95_ms = percentile_of(latencies_ms, 95.0);
  report.p99_ms = percentile_of(latencies_ms, 99.0);

  // Bit-exact determinism probe: schedule, every record, counters, final
  // virtual time. Two same-seed runs must agree on all of it.
  std::uint64_t h = schedule.fingerprint();
  for (const auto& rec : report.records) {
    h = fnv1a(&rec.arrival, sizeof rec.arrival, h);
    h = fnv1a(&rec.submitted, sizeof rec.submitted, h);
    h = fnv1a(&rec.completion, sizeof rec.completion, h);
    h = fnv1a(&rec.key, sizeof rec.key, h);
    h = fnv1a(&rec.tenant, sizeof rec.tenant, h);
    const std::uint8_t ok = rec.ok ? 1 : 0;
    h = fnv1a(&ok, sizeof ok, h);
    h = fnv1a(&rec.result_hash, sizeof rec.result_hash, h);
  }
  h = fnv1a_u64(report.completed_remote, h);
  h = fnv1a_u64(report.demoted, h);
  h = fnv1a_u64(report.resumed_local, h);
  h = fnv1a_u64(report.local_kernel_runs, h);
  h = fnv1a(&report.virtual_end, sizeof report.virtual_end, h);
  report.fingerprint = h;
  return report;
}

}  // namespace dosas::scale
