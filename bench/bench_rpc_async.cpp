// Extension — async transport pipelining. The ASC's read_ex used to
// resolve a striped request's per-node extents one blocking RPC at a time;
// the rpc transport submits them all up front and waits once. This bench
// measures that difference end to end on the real runtime: N concurrent
// clients issuing striped active reads, sequential-per-extent vs pipelined
// fan-out, with a bit-identical result check between the two modes.
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/arena.hpp"
#include "common/clock.hpp"
#include "common/ring.hpp"
#include "core/cluster.hpp"
#include "obs/contention.hpp"
#include "pfs/layout.hpp"
#include "rpc/transport.hpp"

namespace {

using namespace dosas;

/// The pre-transport behaviour: one blocking RPC per server extent, merged
/// in stripe order as each reply arrives.
std::vector<std::uint8_t> read_ex_sequential(client::ActiveClient& asc,
                                             const pfs::FileMeta& meta,
                                             const std::string& operation) {
  const pfs::Layout layout(meta.striping);
  std::map<pfs::ServerId, std::pair<Bytes, Bytes>> extents;  // server -> (offset, length)
  for (const auto& seg : layout.map_extent(0, meta.size)) {
    auto [it, inserted] = extents.try_emplace(seg.server,
                                              std::make_pair(seg.object_offset, seg.length));
    if (!inserted) it->second.second += seg.length;
  }
  auto master = asc.registry().create(operation);
  assert(master.is_ok());
  master.value()->reset();
  for (const auto& [server, ext] : extents) {
    rpc::Envelope env;
    env.target = server;
    env.kind = rpc::OpKind::kActiveIo;
    env.active.handle = meta.handle;
    env.active.object_offset = ext.first;
    env.active.length = ext.second;
    env.active.operation = operation;
    auto reply = asc.transport().submit(std::move(env)).wait();  // <- the serialization
    assert(reply.active.outcome == server::ActiveOutcome::kCompleted);
    [[maybe_unused]] Status st = master.value()->merge(reply.active.result);
    assert(st.is_ok());
  }
  return master.value()->finalize();
}

double run_clients(std::size_t clients, std::size_t rounds,
                   const std::function<std::vector<std::uint8_t>(std::size_t)>& one_read,
                   std::vector<std::vector<std::uint8_t>>& last_results,
                   std::vector<double>* read_latencies_us = nullptr) {
  const Seconds t0 = wall_clock().now();  // bench: physical time on purpose
  std::mutex lat_mu;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t r = 0; r < rounds; ++r) {
        const Seconds r0 = wall_clock().now();
        last_results[c] = one_read(c);
        if (read_latencies_us != nullptr) {
          const double us = (wall_clock().now() - r0) * 1e6;
          std::lock_guard lock(lat_mu);
          read_latencies_us->push_back(us);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return wall_clock().now() - t0;
}

/// One straggler run for the hedging point: a fresh 4-node cluster, a
/// warm-up that fills the per-node latency quantiles, then a guaranteed
/// per-chunk stall on the last node and `kReads` measured striped reads.
struct StragglerRun {
  std::vector<double> latencies_us;
  std::vector<std::uint8_t> result;
  client::ActiveClient::Stats stats;
  rpc::TransportStats transport;
};

StragglerRun run_straggler(bool hedge) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::size_t kWarmup = 12;
  constexpr std::size_t kReads = 8;
  constexpr std::size_t kDoubles = 32 * 1024;  // 256 KiB: one 64 KiB strip per node

  core::ClusterConfig cfg;
  cfg.storage_nodes = kNodes;
  cfg.strip_size = 64_KiB;
  cfg.cores_per_node = 1;
  cfg.server_chunk_size = 16_KiB;
  cfg.client_chunk_size = 64_KiB;
  cfg.scheme = core::SchemeKind::kActive;
  // Below the stalled leg's ~200 ms completion time: the unhedged client
  // times out and recovers locally, pulling the straggler's strip over the
  // wire exactly as the hedge's local twin does — so the byte comparison
  // isolates the hedge's cost, and the latency comparison its win.
  cfg.client.request_timeout = 0.15;
  // Virtual (never-sleeping) per-node link buckets: pure byte accounting,
  // so bytes_charged shows the hedge's extra-byte cost without slowing the
  // wall-clock measurement.
  cfg.network_rate = mb_per_sec(118.0);
  cfg.network_per_node = true;
  cfg.client.hedge_reads = hedge;
  core::Cluster cluster(cfg);

  auto meta = pfs::write_doubles(cluster.pfs_client(), "/straggler", kDoubles,
                                 [](std::size_t i) { return static_cast<double>(i % 61); });
  assert(meta.is_ok());

  StragglerRun out;
  for (std::size_t r = 0; r < kWarmup; ++r) {
    auto res = cluster.asc().read_ex(meta.value(), 0, meta.value().size, "sum");
    assert(res.is_ok());
    out.result = res.value();
  }

  // The straggler onset: every kernel chunk on the last node now stalls
  // 50 ms (wall time — this bench runs on the physical clock), so the
  // unhedged client pays ~200 ms per read waiting out that leg while the
  // hedged one races a local twin after its ~2 ms p99-derived delay.
  fault::FaultSpec stall_spec;
  stall_spec.seed = 7;
  stall_spec.stall = 1.0;
  stall_spec.stall_delay = 50e-3;
  cluster.storage_server(kNodes - 1)
      .set_fault_injector(std::make_shared<fault::FaultInjector>(stall_spec));

  for (std::size_t r = 0; r < kReads; ++r) {
    const Seconds t0 = wall_clock().now();
    auto res = cluster.asc().read_ex(meta.value(), 0, meta.value().size, "sum");
    out.latencies_us.push_back((wall_clock().now() - t0) * 1e6);
    assert(res.is_ok());
    assert(res.value() == out.result);  // hedging never changes WHAT is computed
  }
  out.stats = cluster.asc().stats();
  out.transport = cluster.asc().transport_stats();
  return out;
}

}  // namespace

int main() {
  using namespace dosas;
  bench::banner("Extension: async transport pipelining",
                "striped read_ex fan-out, sequential-per-extent vs pipelined, real runtime");

  constexpr std::uint32_t kNodes = 4;
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRounds = 6;
  constexpr std::size_t kDoubles = 2 * 1024 * 1024;  // 16 MiB per file, 4 MiB per node

  core::ClusterConfig cfg;
  cfg.storage_nodes = kNodes;
  cfg.strip_size = 256_KiB;
  cfg.cores_per_node = 8;  // headroom: the win is per-request leg parallelism
  cfg.server_chunk_size = 256_KiB;
  cfg.scheme = core::SchemeKind::kActive;  // all-active: no demotion noise
  // Per-chunk service latency at every node, modelled with the straggler
  // injector (a deterministic 1 ms sleep per kernel chunk). Within one leg
  // the chunk latencies are serial in both modes; across a read's legs the
  // sequential client pays all four nodes back to back while the pipelined
  // client overlaps them — which is the effect under test, and the only one
  // visible on a host whose core count can't absorb 32 concurrent kernels.
  fault::FaultSpec stall_spec;
  stall_spec.seed = 11;
  stall_spec.stall = 1.0;
  stall_spec.stall_delay = 1e-3;
  cfg.faults = std::make_shared<fault::FaultInjector>(stall_spec);
  core::Cluster cluster(cfg);

  std::vector<pfs::FileMeta> metas;
  for (std::size_t c = 0; c < kClients; ++c) {
    auto meta = pfs::write_doubles(cluster.pfs_client(), "/rpc" + std::to_string(c), kDoubles,
                                   [c](std::size_t i) { return static_cast<double>((i + c) % 61); });
    assert(meta.is_ok());
    metas.push_back(meta.value());
  }
  client::ActiveClient& asc = cluster.asc();

  std::vector<std::vector<std::uint8_t>> seq_results(kClients), pipe_results(kClients);
  auto sequential = [&](std::size_t c) { return read_ex_sequential(asc, metas[c], "sum"); };
  auto pipelined = [&](std::size_t c) {
    auto r = asc.read_ex(metas[c], 0, metas[c].size, "sum");
    assert(r.is_ok());
    return r.value();
  };

  auto dispatch_cas_retries = [&] {
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < kNodes; ++s) {
      const RingStats rs = cluster.storage_server(s).dispatch_ring_stats();
      total += rs.push_cas_retries + rs.pop_cas_retries;
    }
    return total;
  };

  // Warm both paths (page in the data, spin up pools), then measure.
  run_clients(kClients, 1, sequential, seq_results);
  run_clients(kClients, 1, pipelined, pipe_results);
  const double seq_s = run_clients(kClients, kRounds, sequential, seq_results);
  // Collect per-stage histograms (queue-wait / transport / kernel / e2e)
  // over the measured pipelined run for the telemetry record, plus the
  // data-plane deltas: owning copies (the zero-copy claim) and dispatch-
  // ring CAS retries across all storage nodes.
  obs::MetricsRegistry::global().set_enabled(true);
  const std::uint64_t ledger0 = data_bytes_copied();
  const std::uint64_t cas0 = dispatch_cas_retries();
  std::vector<double> pipe_lat_us;
  const double pipe_s = run_clients(kClients, kRounds, pipelined, pipe_results, &pipe_lat_us);
  const double bytes_copied_per_req = static_cast<double>(data_bytes_copied() - ledger0) /
                                      static_cast<double>(kClients * kRounds);
  const double cas_retries_per_req = static_cast<double>(dispatch_cas_retries() - cas0) /
                                     static_cast<double>(kClients * kRounds);

  bool identical = true;
  for (std::size_t c = 0; c < kClients; ++c) identical &= seq_results[c] == pipe_results[c];

  core::Table t({"mode", "clients", "rounds", "total (s)", "per read (ms)"});
  const double n = static_cast<double>(kClients * kRounds);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", seq_s);
  t.add_row({"sequential per extent", std::to_string(kClients), std::to_string(kRounds), buf,
             std::to_string(seq_s / n * 1e3)});
  std::snprintf(buf, sizeof buf, "%.4f", pipe_s);
  t.add_row({"pipelined fan-out", std::to_string(kClients), std::to_string(kRounds), buf,
             std::to_string(pipe_s / n * 1e3)});
  t.print(std::cout);
  bench::maybe_write_csv("rpc_async_pipelining", t);

  std::printf("\nbit-identical results: %s\n", identical ? "yes" : "NO");
  std::printf("speedup (sequential / pipelined): %.2fx\n", seq_s / pipe_s);

  // Zero-copy check: an active striped read moves kernel RESULTS, not raw
  // extents — with BufferRefs end to end, the owning copies left per
  // 16 MiB request are bounded by result/cache traffic (a few KiB), not
  // the data size. A regression that re-copies extents shows up as MiBs.
  const double req_bytes = static_cast<double>(kDoubles * sizeof(double));
  const bool zero_copy = bytes_copied_per_req < req_bytes * 0.01;
  std::printf("data plane: %.0f bytes copied per %.0f-byte request (%s), "
              "%.2f dispatch-ring CAS retries per request\n",
              bytes_copied_per_req, req_bytes, zero_copy ? "~zero-copy" : "COPY REGRESSION",
              cas_retries_per_req);

  // Striped WRITE point: the request direction of the zero-copy claim.
  // Each client ships a 4 MiB BufferRef through ActiveClient::write — the
  // envelope carries per-strip slices of the same slab, so the ledger
  // delta per request must stay at ~0 (the store memcpy is the terminal
  // materialization and is deliberately uncharged).
  constexpr Bytes kWriteBytes = 4_MiB;
  std::vector<BufferRef> payloads;
  payloads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    std::vector<std::uint8_t> raw(kWriteBytes);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      raw[i] = static_cast<std::uint8_t>((i * 131 + c * 17) & 0xff);
    }
    payloads.push_back(BufferRef::adopt(std::move(raw)));
  }
  const std::uint64_t wledger0 = data_bytes_copied();
  const Seconds w0 = wall_clock().now();
  {
    std::vector<std::thread> writers;
    writers.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      writers.emplace_back([&, c] {
        for (std::size_t r = 0; r < kRounds; ++r) {
          auto w = asc.write(metas[c], 0, payloads[c]);
          assert(w.is_ok());
          (void)w;
        }
      });
    }
    for (auto& t : writers) t.join();
  }
  const double write_s = wall_clock().now() - w0;
  const double write_bytes_copied_per_req =
      static_cast<double>(data_bytes_copied() - wledger0) /
      static_cast<double>(kClients * kRounds);
  const bool write_zero_copy =
      write_bytes_copied_per_req < static_cast<double>(kWriteBytes) * 0.01;
  // The bytes actually landed: spot-check one client's head through the
  // zero-copy read path.
  {
    auto back = cluster.pfs_client().read_ref(metas[0], 0, 4096);
    assert(back.is_ok());
    assert(std::equal(back.value().span().begin(), back.value().span().end(),
                      payloads[0].span().begin()));
    (void)back;
  }
  std::printf("striped writes: %zu x %zu x %llu bytes in %.3f s — %.0f bytes copied "
              "per request (%s)\n",
              kClients, kRounds, static_cast<unsigned long long>(kWriteBytes), write_s,
              write_bytes_copied_per_req, write_zero_copy ? "~zero-copy" : "COPY REGRESSION");

  // Repeat-read cache-hit point: with the slab-backed result cache on, a
  // repeated active read shares the cached ref — the per-hit ledger delta
  // is the client's h(d)-sized materialization, never the extent.
  double cache_hit_bytes_copied_per_req = 0.0;
  bool cache_zero_copy = true;
  {
    constexpr std::size_t kHits = 16;
    core::ClusterConfig ccfg;
    ccfg.storage_nodes = 1;
    ccfg.scheme = core::SchemeKind::kActive;
    ccfg.result_cache_entries = 4;
    core::Cluster cache_cluster(ccfg);
    auto cmeta = pfs::write_doubles(cache_cluster.pfs_client(), "/cache", 1024 * 1024,
                                    [](std::size_t i) { return static_cast<double>(i % 13); });
    assert(cmeta.is_ok());
    auto first = cache_cluster.asc().read_ex(cmeta.value(), 0, cmeta.value().size, "sum");
    assert(first.is_ok());  // the one kernel run; everything after hits
    const std::uint64_t cledger0 = data_bytes_copied();
    for (std::size_t r = 0; r < kHits; ++r) {
      auto res = cache_cluster.asc().read_ex(cmeta.value(), 0, cmeta.value().size, "sum");
      assert(res.is_ok());
      assert(res.value() == first.value());
      (void)res;
    }
    cache_hit_bytes_copied_per_req =
        static_cast<double>(data_bytes_copied() - cledger0) / static_cast<double>(kHits);
    cache_zero_copy = cache_hit_bytes_copied_per_req <
                      static_cast<double>(cmeta.value().size) * 0.01;
    std::printf("cache hits: %llu of %zu repeat reads served from the slab cache — "
                "%.0f bytes copied per hit (%s)\n",
                static_cast<unsigned long long>(
                    cache_cluster.storage_server(0).stats().cache_hits),
                kHits, cache_hit_bytes_copied_per_req,
                cache_zero_copy ? "~zero-copy" : "COPY REGRESSION");
  }

  // Straggler hedging: the same fan-out with one chronically stalled node,
  // unhedged vs hedged (p99-derived delay, cancel the loser). The paired
  // runs share the result check inside run_straggler.
  const StragglerRun unhedged = run_straggler(/*hedge=*/false);
  const StragglerRun hedged = run_straggler(/*hedge=*/true);
  const bool hedge_identical = unhedged.result == hedged.result;
  const double straggler_p99_ms = percentile(unhedged.latencies_us, 99) / 1e3;
  const double hedged_p99_ms = percentile(hedged.latencies_us, 99) / 1e3;
  const double hedge_speedup = hedged_p99_ms > 0 ? straggler_p99_ms / hedged_p99_ms : 0.0;
  const double hedge_extra_bytes =
      unhedged.transport.bytes_charged > 0
          ? static_cast<double>(hedged.transport.bytes_charged) /
                    static_cast<double>(unhedged.transport.bytes_charged) -
                1.0
          : 0.0;
  std::printf("\nstraggler p99: unhedged %.1f ms, hedged %.1f ms (%.1fx); "
              "hedges fired=%llu won=%llu wasted=%llu, extra bytes %+.1f%%\n",
              straggler_p99_ms, hedged_p99_ms, hedge_speedup,
              static_cast<unsigned long long>(hedged.stats.hedges_fired),
              static_cast<unsigned long long>(hedged.stats.hedges_won),
              static_cast<unsigned long long>(hedged.stats.hedges_wasted),
              hedge_extra_bytes * 100.0);

  // BENCH_rpc_async.json: the machine-readable record of this run.
  bench::BenchJson out("rpc_async");
  out.config("nodes", static_cast<double>(kNodes));
  out.config("clients", static_cast<double>(kClients));
  out.config("rounds", static_cast<double>(kRounds));
  out.config("file_mib", static_cast<double>(kDoubles * sizeof(double)) / (1 << 20));
  out.config("strip_kib", 256);
  out.config("scheme", "as");
  out.config("operation", "sum");
  out.metric("sequential_total_s", seq_s);
  out.metric("pipelined_total_s", pipe_s);
  out.metric("speedup", seq_s / pipe_s);
  out.metric("reads", n);
  out.metric("straggler_p99_ms", straggler_p99_ms);
  out.metric("hedged_p99_ms", hedged_p99_ms);
  out.metric("hedge_p99_speedup", hedge_speedup);
  out.metric("hedge_extra_bytes_frac", hedge_extra_bytes);
  out.metric("hedges_fired", static_cast<double>(hedged.stats.hedges_fired));
  out.metric("hedges_won", static_cast<double>(hedged.stats.hedges_won));
  out.metric("hedges_wasted", static_cast<double>(hedged.stats.hedges_wasted));
  out.metric("bytes_copied_per_req", bytes_copied_per_req);
  out.metric("cas_retries_per_req", cas_retries_per_req);
  out.metric("write_total_s", write_s);
  out.metric("write_bytes_copied_per_req", write_bytes_copied_per_req);
  out.metric("cache_hit_bytes_copied_per_req", cache_hit_bytes_copied_per_req);
  out.latency_us(percentile(pipe_lat_us, 50), percentile(pipe_lat_us, 95),
                 percentile(pipe_lat_us, 99));
  out.throughput(n / pipe_s);
  const auto st = asc.stats();
  out.demotion_rate(st.reads_ex > 0 ? static_cast<double>(st.demoted + st.node_down_demotes) /
                                          static_cast<double>(st.reads_ex)
                                    : 0.0);
  // Publish the schedule-dependent data-plane gauges explicitly (they are
  // never auto-emitted: DST fingerprints must not see them) so the metrics
  // dump alongside this record carries ring.*, arena.* and
  // data.bytes_copied for eyeballing.
  RingStats ring_total;
  for (std::uint32_t s = 0; s < kNodes; ++s) {
    ring_total += cluster.storage_server(s).dispatch_ring_stats();
  }
  obs::publish_ring_stats(ring_total);
  obs::publish_bytes_copied();
  out.stages_from_metrics();
  out.write();
  std::printf(
      "\nReading: each striped read touches all %u nodes; the async transport keeps\n"
      "every node busy for the whole request instead of one at a time, so the\n"
      "per-request critical path drops toward the slowest single leg. With one\n"
      "node stalled, hedging caps that leg at the p99-derived delay instead.\n",
      kNodes);

  if (!identical || !hedge_identical) return 1;
  if (!zero_copy || !write_zero_copy || !cache_zero_copy) return 3;
  return seq_s > pipe_s && straggler_p99_ms > hedged_p99_ms ? 0 : 2;
}
