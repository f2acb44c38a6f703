// bench_scale — cluster-size sweep on the scale harness: hundreds of real
// StorageServer instances + thousands of open-loop clients per point, all
// under one VirtualClock, with kernel/client pacing and per-node links at
// the paper's calibrated rates. Emits BENCH_scale.json (dosas-bench-v1):
// throughput, latency quantiles, and demotion rate vs cluster size. CI
// runs the full sweep and gates its fingerprints exactly against
// bench/trajectory/BENCH_scale.json (tools/check_bench_json.sh).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "scale/harness.hpp"
#include "scale/traffic.hpp"

namespace dosas {
namespace {

scale::ScaleScenario sweep_point(std::uint32_t nodes) {
  scale::ScaleScenario scenario;
  scenario.name = "scale-n" + std::to_string(nodes);
  scenario.nodes = nodes;
  scenario.scheme = core::SchemeKind::kDosas;
  scenario.file_bytes = 128_KiB;
  scenario.chunk_size = 32_KiB;
  scenario.completer_threads = 32;
  scenario.seed = 1;
  // Load scales with the cluster so per-node pressure stays constant:
  // 10 clients, 20 requests and 30 arrivals/s per node, with a skewed
  // analytics tenant supplying the hot-node contention DOSAS demotes.
  scenario.traffic.clients = nodes * 10;
  scenario.traffic.keys = std::max<std::uint64_t>(64, nodes * 2ull);
  scenario.traffic.requests = nodes * 20;
  scenario.traffic.arrival_rate = 30.0 * nodes;
  scale::TenantSpec analytics;
  analytics.name = "analytics";
  analytics.weight = 0.45;
  analytics.operation = "gaussian2d:width=128";
  analytics.zipf_theta = 0.99;
  analytics.request_bytes = 128_KiB;
  scale::TenantSpec interactive;
  interactive.name = "interactive";
  interactive.weight = 0.55;
  interactive.operation = "sum";
  interactive.zipf_theta = 0.6;
  interactive.request_bytes = 64_KiB;
  scenario.traffic.tenants = {analytics, interactive};
  return scenario;
}

int run() {
  bench::banner("Scale harness sweep",
                "throughput / latency / demotion rate vs cluster size at "
                "paper-calibrated rates (100x the testbed at n=200)");
  const std::vector<std::uint32_t> sizes = {50, 100, 200};

  bench::BenchJson out("scale");
  out.config("mode", "full");
  out.config("scheme", "dosas");
  out.config("file_kib", 128.0);
  out.config("chunk_kib", 32.0);
  out.config("clients_per_node", 10.0);
  out.config("requests_per_node", 20.0);
  out.config("arrivals_per_node_per_s", 30.0);
  out.config("max_nodes", static_cast<double>(sizes.back()));

  std::printf("%8s %8s %9s %12s %9s %9s %9s %9s %9s\n", "nodes", "clients", "requests",
              "thrpt(r/s)", "p50(ms)", "p95(ms)", "p99(ms)", "demote", "wall(s)");
  bool all_ok = true;
  scale::ScaleReport last;
  for (const std::uint32_t nodes : sizes) {
    const scale::ScaleScenario scenario = sweep_point(nodes);
    const scale::ScaleReport report = scale::run_scale(scenario);
    all_ok = all_ok && report.ok == report.requests;
    std::printf("%8u %8u %9zu %12.1f %9.3f %9.3f %9.3f %9.4f %9.2f\n", nodes,
                scenario.traffic.clients, report.requests, report.throughput_rps, report.p50_ms,
                report.p95_ms, report.p99_ms, report.demotion_rate, report.wall_seconds);
    const std::string suffix = "_n" + std::to_string(nodes);
    out.metric("throughput_rps" + suffix, report.throughput_rps);
    out.metric("p50_ms" + suffix, report.p50_ms);
    out.metric("p95_ms" + suffix, report.p95_ms);
    out.metric("p99_ms" + suffix, report.p99_ms);
    out.metric("demotion_rate" + suffix, report.demotion_rate);
    out.metric("virtual_makespan_s" + suffix, report.virtual_makespan);
    out.metric("wall_seconds" + suffix, report.wall_seconds);
    out.metric("fingerprint" + suffix, static_cast<double>(report.fingerprint % 1000000007ull));
    last = report;
  }
  // Headline fields from the largest point (the 100x-the-paper cluster).
  out.throughput(last.throughput_rps);
  out.latency_us(last.p50_ms * 1000.0, last.p95_ms * 1000.0, last.p99_ms * 1000.0);
  out.demotion_rate(last.demotion_rate);
  out.metric("requests", static_cast<double>(last.requests));
  out.metric("ok", static_cast<double>(last.ok));
  out.write();

  if (!all_ok) {
    std::fprintf(stderr, "error: some scale requests failed\n");
    return 1;
  }
  std::printf("\nall points completed every request; virtual seconds simulated at n=%u: %.2f\n",
              sizes.back(), last.virtual_makespan);
  return 0;
}

}  // namespace
}  // namespace dosas

int main() { return dosas::run(); }
