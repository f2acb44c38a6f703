// Deterministic simulation tests (DST): the full real runtime — ASC,
// transport chain, storage servers, worker pools, probe timers, deadline
// watchdog, fault injection, retries — executed under a VirtualClock with a
// seeded fault spec, twice, asserting bit-identical outcomes.
//
// Two scenario shapes:
//
//   * serialized — one storage node, one core, one application thread
//     issuing requests sequentially. Everything that can race is
//     serialized by the virtual clock's quiescence rule, so the ENTIRE
//     observable state is compared: kernel results, every counter, the
//     full metrics text snapshot, the canonical trace projection, the
//     final virtual time and advance count.
//
//   * striped — four storage nodes, striped files, pipelined async reads
//     (read_ex_async) fanned out from one application thread, with
//     injected kernel throws, stragglers, and network loss recovered by
//     the retry interceptor. Results, counter totals, the full metrics
//     text (histograms are order-independent), the sorted trace
//     projection, and the virtual timeline are bit-identical.
//
// A third test asserts the economic point of virtual time: a scenario
// whose injected delays span seconds of virtual time completes an order
// of magnitude faster in physical time. A fourth pins the fingerprints to
// recorded FNV-1a digests, so they hold across builds, not just runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "core/cluster.hpp"
#include "core/runner.hpp"
#include "fault/fault.hpp"
#include "kernels/sum.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pfs/client.hpp"
#include "scale/traffic.hpp"

namespace dosas::core {
namespace {

// Sorted canonical projection of the trace buffer: every field except tid
// (assigned per-thread in registration order, which legitimately races)
// and buffer position (emission order races at completion edges).
// Timestamps and durations are VIRTUAL time, so they are part of the
// determinism contract — and so are the causal ids: root trace ids are
// allocated in the single app thread's issue order and every child span id
// is derived by hashing, so the full id triple must reproduce bit-exactly.
std::string canonical_trace() {
  std::vector<std::string> lines;
  for (const auto& e : obs::Tracer::global().snapshot()) {
    std::ostringstream os;
    os << e.name << '|' << e.cat << '|' << e.ph << '|' << e.pid << '|' << std::fixed
       << std::setprecision(3) << e.ts_us << '|' << e.dur_us << '|' << e.value << '|'
       << e.trace_id << '|' << e.span_id << '|' << e.parent_span_id;
    lines.push_back(os.str());
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream os;
  for (const auto& l : lines) os << l << '\n';
  return os.str();
}

// Every field of the four Stats structs, by name. Adding a field changes
// the struct's size, which stops these asserts until it is printed below.
static_assert(sizeof(client::ActiveClient::Stats) == 17 * 8);
static_assert(sizeof(server::StorageServer::Stats) == 19 * 8);
static_assert(sizeof(fault::FaultInjector::Stats) == 6 * 8);
static_assert(sizeof(rpc::TransportStats) == 16 * 8);

void append_common_counters(std::ostringstream& fp, Cluster& cluster, const VirtualClock& vc) {
  fp << std::fixed << std::setprecision(9);
  const auto cs = cluster.asc().stats();
  fp << "client reads_ex=" << cs.reads_ex << " completed_remote=" << cs.completed_remote
     << " demoted=" << cs.demoted << " resumed_local=" << cs.resumed_local
     << " local_kernel_runs=" << cs.local_kernel_runs << " striped_fanouts=" << cs.striped_fanouts
     << " failed_remote_retries=" << cs.failed_remote_retries << " timed_out=" << cs.timed_out
     << " raw_bytes=" << cs.raw_bytes_read << " result_bytes=" << cs.result_bytes_received
     << " resubmitted=" << cs.resubmitted << " raw_bytes_written=" << cs.raw_bytes_written
     << " node_down_demotes=" << cs.node_down_demotes
     << " checkpoint_corrupt_restarts=" << cs.checkpoint_corrupt_restarts
     << " hedges_fired=" << cs.hedges_fired << " hedges_won=" << cs.hedges_won
     << " hedges_wasted=" << cs.hedges_wasted << '\n';
  for (std::uint32_t i = 0; i < cluster.storage_node_count(); ++i) {
    const auto ss = cluster.storage_server(i).stats();
    fp << "server" << i << " completed=" << ss.active_completed
       << " rejected=" << ss.active_rejected << " interrupted=" << ss.active_interrupted
       << " failed=" << ss.active_failed << " bytes=" << ss.active_bytes_processed
       << " kernel_exceptions=" << ss.kernel_exceptions << " probe_ticks=" << ss.probe_ticks
       << " normal_bytes_served=" << ss.normal_bytes_served
       << " normal_bytes_written=" << ss.normal_bytes_written
       << " normal_requests=" << ss.normal_requests << " cache_hits=" << ss.cache_hits
       << " cache_misses=" << ss.cache_misses << " cache_evictions=" << ss.cache_evictions
       << " cache_invalidations=" << ss.cache_invalidations
       << " timed_out=" << ss.active_timed_out << " cancelled=" << ss.active_cancelled
       << " coalesced=" << ss.active_coalesced << " pool_rejections=" << ss.pool_rejections
       << " crash_rejections=" << ss.crash_rejections << '\n';
  }
  if (cluster.fault_injector() != nullptr) {
    const auto fs = cluster.fault_injector()->stats();
    fp << "faults read=" << fs.read_faults << " throws=" << fs.kernel_throws
       << " ckpt=" << fs.checkpoints_corrupted << " net=" << fs.net_errors
       << " stalls=" << fs.stalls << " crash_rej=" << fs.crash_rejections << '\n';
  }
  const auto ts = cluster.asc().transport_stats();
  fp << "transport submitted=" << ts.submitted << " completed=" << ts.completed
     << " cancelled=" << ts.cancelled << " timed_out=" << ts.timed_out
     << " retries=" << ts.retries << " retries_exhausted=" << ts.retries_exhausted
     << " net_faults=" << ts.net_faults_injected << " batched=" << ts.batched
     << " coalesced=" << ts.coalesced << " backoff_total=" << ts.backoff_total
     << " breaker_fast_fails=" << ts.breaker_fast_fails << " bytes_charged=" << ts.bytes_charged
     << " inflight=" << ts.inflight << " inflight_hwm=" << ts.inflight_hwm
     << " active_latency_p50_us=" << ts.active_latency_p50_us
     << " active_latency_p99_us=" << ts.active_latency_p99_us << '\n';
  const auto st = vc.status();
  fp << "clock now=" << st.now << " advances=" << st.advances << '\n';
}

struct ScenarioOutput {
  std::vector<std::vector<std::uint8_t>> results;
  std::string fingerprint;  ///< everything compared across runs
  Seconds virtual_end = 0.0;
  Seconds wall_elapsed = 0.0;  ///< physical seconds (wall_clock())
};

// ------------------------------------------------------------- serialized

ScenarioOutput run_serialized(std::uint64_t seed, Seconds stall_ms = 40.0) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  obs::MetricsRegistry::global().clear();
  obs::Tracer::global().clear();
  obs::MetricsRegistry::global().set_enabled(true);
  obs::Tracer::global().set_enabled(true);

  ScenarioOutput out;
  const Seconds wall_start = wall_clock().now();
  {
    ClusterConfig cfg;
    cfg.storage_nodes = 1;
    cfg.cores_per_node = 1;
    cfg.server_chunk_size = 8_KiB;
    cfg.client_chunk_size = 64_KiB;
    cfg.scheme = SchemeKind::kActive;
    cfg.optimizer_override = "all-active";  // admission independent of timing
    cfg.server.probe_interval = 0.05;       // periodic CE tick, virtual jumps
    std::ostringstream spec_text;
    spec_text << "seed=" << seed << ",kernel_throw=0.15,stall=0.25,stall_ms=" << stall_ms;
    auto spec = fault::FaultSpec::parse(spec_text.str());
    EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
    cfg.faults = std::make_shared<fault::FaultInjector>(spec.value());
    cfg.client.chain.retry.max_attempts = 6;
    cfg.client.chain.retry.base_delay = 0.02;
    cfg.client.chain.retry.sleep_real = true;  // backoff advances virtual time
    cfg.client.request_timeout = 30.0;         // armed on every envelope, never fires
    Cluster cluster(cfg);

    auto meta = pfs::write_doubles(cluster.pfs_client(), "/dst", 32'768,
                                   [](std::size_t i) { return static_cast<double>(i % 11); });
    EXPECT_TRUE(meta.is_ok());

    for (int r = 0; r < 12; ++r) {
      auto res = cluster.asc().read_ex(meta.value(), 0, meta.value().size, "sum");
      EXPECT_TRUE(res.is_ok()) << "request " << r << ": " << res.status().to_string();
      out.results.push_back(res.is_ok() ? res.value() : std::vector<std::uint8_t>{});
    }

    std::ostringstream fp;
    append_common_counters(fp, cluster, vc);
    fp << "--- metrics ---\n" << obs::MetricsRegistry::global().to_text();
    fp << "--- trace ---\n" << canonical_trace();
    out.fingerprint = fp.str();
    out.virtual_end = vc.now();
  }
  out.wall_elapsed = wall_clock().now() - wall_start;
  obs::MetricsRegistry::global().set_enabled(false);
  obs::Tracer::global().set_enabled(false);
  obs::MetricsRegistry::global().clear();
  obs::Tracer::global().clear();
  return out;
}

// --------------------------------------------------------------- striped

ScenarioOutput run_striped(std::uint64_t seed) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  obs::MetricsRegistry::global().clear();
  obs::Tracer::global().clear();
  obs::MetricsRegistry::global().set_enabled(true);
  obs::Tracer::global().set_enabled(true);

  ScenarioOutput out;
  const Seconds wall_start = wall_clock().now();
  {
    ClusterConfig cfg;
    cfg.storage_nodes = 4;
    cfg.strip_size = 64_KiB;
    cfg.cores_per_node = 1;  // serializes each node's kernel (and RNG) order
    cfg.server_chunk_size = 16_KiB;
    cfg.client_chunk_size = 64_KiB;
    cfg.scheme = SchemeKind::kActive;
    cfg.optimizer_override = "all-active";
    cfg.server.probe_interval = 0.05;
    std::ostringstream spec_text;
    spec_text << "seed=" << seed << ",kernel_throw=0.08,stall=0.10,stall_ms=30,net_error=0.04";
    auto spec = fault::FaultSpec::parse(spec_text.str());
    EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
    cfg.faults = std::make_shared<fault::FaultInjector>(spec.value());
    cfg.client.chain.retry.max_attempts = 6;
    cfg.client.chain.retry.base_delay = 0.005;
    Cluster cluster(cfg);

    constexpr std::size_t kFiles = 6;
    constexpr std::size_t kCount = 262'144;  // 2 MiB striped over all 4 nodes
    std::vector<pfs::FileMeta> metas;
    for (std::size_t f = 0; f < kFiles; ++f) {
      auto meta = pfs::write_doubles(
          cluster.pfs_client(), "/dst" + std::to_string(f), kCount,
          [f](std::size_t i) { return static_cast<double>((i * (f + 3)) % 13); });
      EXPECT_TRUE(meta.is_ok());
      metas.push_back(meta.value());
    }

    // Pipelined striped fan-out: all legs of all files are in flight
    // before the first wait — per-node arrival order is the (single)
    // submitting thread's order, so each node's RNG draws line up.
    std::vector<client::ActiveClient::PendingReadEx> pending;
    pending.reserve(kFiles);
    for (std::size_t f = 0; f < kFiles; ++f) {
      pending.push_back(cluster.asc().read_ex_async(metas[f], 0, metas[f].size, "sum"));
    }
    for (std::size_t f = 0; f < kFiles; ++f) {
      auto res = pending[f].wait();
      EXPECT_TRUE(res.is_ok()) << "file " << f << ": " << res.status().to_string();
      out.results.push_back(res.is_ok() ? res.value() : std::vector<std::uint8_t>{});
    }

    // Sanity: the sums are the arithmetic truth, not just run-consistent.
    for (std::size_t f = 0; f < kFiles; ++f) {
      auto sum = kernels::SumResult::decode(out.results[f]);
      EXPECT_TRUE(sum.is_ok());
      if (!sum.is_ok()) continue;
      double expect = 0.0;
      for (std::size_t i = 0; i < kCount; ++i) {
        expect += static_cast<double>((i * (f + 3)) % 13);
      }
      EXPECT_DOUBLE_EQ(sum.value().sum, expect) << "file " << f;
      EXPECT_EQ(sum.value().count, kCount) << "file " << f;
    }

    std::ostringstream fp;
    append_common_counters(fp, cluster, vc);
    fp << "--- metrics ---\n" << obs::MetricsRegistry::global().to_text();
    fp << "--- trace ---\n" << canonical_trace();
    out.fingerprint = fp.str();
    out.virtual_end = vc.now();
  }
  out.wall_elapsed = wall_clock().now() - wall_start;
  obs::MetricsRegistry::global().set_enabled(false);
  obs::Tracer::global().set_enabled(false);
  obs::MetricsRegistry::global().clear();
  obs::Tracer::global().clear();
  return out;
}

// ---------------------------------------------------------------- causal

struct CausalOutput {
  std::vector<obs::TraceEvent> events;
  std::uint64_t coalesced = 0;
  std::uint64_t demoted = 0;
  std::uint64_t retries = 0;
};

// One storage node under the contention-aware DOSAS admission path, with a
// guaranteed-stall fault so every kernel is still in flight while the single
// app thread finishes submitting: the duplicate pair coalesces
// deterministically, the burst overflows the CE's knee into demote-to-local,
// and seeded network errors force transport retries. Every recovery path a
// request can take must still hang off its client-side root span.
CausalOutput run_causal(std::uint64_t seed) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  obs::MetricsRegistry::global().clear();
  obs::Tracer::global().clear();
  obs::Tracer::global().set_enabled(true);

  CausalOutput out;
  {
    ClusterConfig cfg;
    cfg.storage_nodes = 1;
    cfg.cores_per_node = 1;
    cfg.server_chunk_size = 64_KiB;
    cfg.client_chunk_size = 256_KiB;
    cfg.scheme = SchemeKind::kDosas;  // real admission: the burst demotes
    cfg.coalesce_identical = true;
    std::ostringstream spec_text;
    spec_text << "seed=" << seed << ",net_error=0.10,stall=1.0,stall_ms=20";
    auto spec = fault::FaultSpec::parse(spec_text.str());
    EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
    cfg.faults = std::make_shared<fault::FaultInjector>(spec.value());
    cfg.client.chain.retry.max_attempts = 6;
    cfg.client.chain.retry.base_delay = 0.005;
    Cluster cluster(cfg);

    constexpr std::size_t kCount = 1'048'576;  // 8 MiB per file, single extent
    std::vector<pfs::FileMeta> metas;
    for (std::size_t f = 0; f < 10; ++f) {
      auto meta = pfs::write_doubles(
          cluster.pfs_client(), "/causal" + std::to_string(f), kCount,
          [f](std::size_t i) { return static_cast<double>((i + f) % 7); });
      EXPECT_TRUE(meta.is_ok());
      metas.push_back(meta.value());
    }

    // The duplicate pair first (identical file/range/op -> the second
    // coalesces onto the first's in-flight entry), then the distinct burst
    // that pushes the queue past the admission knee.
    std::vector<client::ActiveClient::PendingReadEx> pending;
    pending.push_back(cluster.asc().read_ex_async(metas[0], 0, metas[0].size, "sum"));
    pending.push_back(cluster.asc().read_ex_async(metas[0], 0, metas[0].size, "sum"));
    for (std::size_t f = 1; f < 10; ++f) {
      pending.push_back(cluster.asc().read_ex_async(metas[f], 0, metas[f].size, "gaussian2d"));
    }
    for (std::size_t i = 0; i < pending.size(); ++i) {
      auto res = pending[i].wait();
      EXPECT_TRUE(res.is_ok()) << "request " << i << ": " << res.status().to_string();
    }

    out.events = obs::Tracer::global().snapshot();
    out.coalesced = cluster.storage_server(0).stats().active_coalesced;
    out.demoted = cluster.asc().stats().demoted;
    out.retries = cluster.asc().transport_stats().retries;
  }
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().clear();
  return out;
}

// ----------------------------------------------------------------- tests

TEST(Dst, SerializedScenarioIsBitIdenticalAcrossRuns) {
  const auto a = run_serialized(2012);
  const auto b = run_serialized(2012);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i], b.results[i]) << "request " << i;
  }
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_DOUBLE_EQ(a.virtual_end, b.virtual_end);
  EXPECT_GT(a.virtual_end, 0.0) << "scenario should consume virtual time";
}

TEST(Dst, SerializedScenariosDivergeAcrossSeeds) {
  // The flip side of determinism: a different seed gives a different
  // fault history (otherwise the fingerprint comparison proves nothing).
  const auto a = run_serialized(2012);
  const auto b = run_serialized(7777);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(Dst, StripedAsyncScenarioIsBitIdenticalAcrossRuns) {
  const auto a = run_striped(424242);
  const auto b = run_striped(424242);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i], b.results[i]) << "file " << i;
  }
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_DOUBLE_EQ(a.virtual_end, b.virtual_end);
}

TEST(Dst, EveryServerSpanHangsOffAClientRoot) {
  const auto out = run_causal(31337);

  // The scenario must actually exercise the recovery paths it claims to:
  // a coalesced duplicate, contention demotions, and transport retries.
  EXPECT_GE(out.coalesced, 1u) << "duplicate request did not coalesce";
  EXPECT_GE(out.demoted, 1u) << "burst did not overflow the admission knee";
  EXPECT_GE(out.retries, 1u) << "seeded net faults produced no retries";

  // Group the causal events (those carrying a trace id) per request.
  std::map<std::uint64_t, std::vector<const obs::TraceEvent*>> traces;
  for (const auto& e : out.events) {
    if (e.trace_id != 0) traces[e.trace_id].push_back(&e);
  }
  ASSERT_EQ(traces.size(), 11u) << "one trace per issued request";

  std::size_t multi_thread_trees = 0;
  for (const auto& [trace_id, events] : traces) {
    // Exactly one root span id, and the root must be client-side: the
    // request was born on the application thread, so whatever the server
    // did to it (queue, coalesce, demote, retry) must trace back there.
    std::set<std::uint64_t> root_spans;
    std::set<std::uint64_t> span_ids;
    std::set<std::uint32_t> tids;
    std::set<std::string> cats;
    for (const auto* e : events) {
      span_ids.insert(e->span_id);
      tids.insert(e->tid);
      cats.insert(e->cat);
      if (e->parent_span_id == 0) {
        root_spans.insert(e->span_id);
        EXPECT_EQ(e->cat, "client")
            << "trace " << trace_id << ": root span '" << e->name << "' is not client-side";
      }
    }
    EXPECT_EQ(root_spans.size(), 1u) << "trace " << trace_id << " must have exactly one root";

    // Connectivity: every non-root event's parent span was itself emitted
    // in the same trace, so the spans form one connected causal tree.
    for (const auto* e : events) {
      if (e->parent_span_id == 0) continue;
      EXPECT_TRUE(span_ids.count(e->parent_span_id))
          << "trace " << trace_id << ": span '" << e->name << "' (" << e->cat
          << ") is orphaned from its parent";
    }

    // Server-side work must always be claimed by a client-rooted trace.
    const bool server_side = cats.count("server") || cats.count("kernel") || cats.count("ce");
    if (server_side) {
      EXPECT_EQ(root_spans.size(), 1u);
    }
    if (tids.size() >= 2 && cats.count("client") && cats.count("rpc") && server_side) {
      ++multi_thread_trees;
    }
  }
  // At least one request's tree spans the app thread and a worker thread
  // end to end (client issue -> rpc -> server queue/kernel).
  EXPECT_GE(multi_thread_trees, 1u);
}

TEST(Dst, FingerprintsMatchRecordedDigests) {
  // The bit-identity tests above compare two runs of one build. These
  // digests pin the fingerprints across builds and commits: a change that
  // moves any counter, metric, trace span or virtual instant fails here.
  // They were identical in Release, Debug and TSan builds.
  const auto digest = [](const std::string& fp) { return scale::fnv1a(fp.data(), fp.size()); };
  const auto serialized_2012 = run_serialized(2012).fingerprint;
  EXPECT_EQ(digest(serialized_2012), 0x9732ac58e34d8839ULL) << serialized_2012;
  const auto serialized_7777 = run_serialized(7777).fingerprint;
  EXPECT_EQ(digest(serialized_7777), 0x8bb0036db98e5337ULL) << serialized_7777;
  const auto striped = run_striped(424242).fingerprint;
  EXPECT_EQ(digest(striped), 0x42e4115140a881f3ULL) << striped;
}

TEST(Dst, VirtualTimeBeatsWallClockTenfold) {
  // The scenario's injected stragglers and backoffs span seconds of
  // virtual time; under the VirtualClock they are O(1) jumps, so the
  // physical runtime must be at least 10x shorter than the virtual span.
  const auto a = run_serialized(2012, /*stall_ms=*/80.0);
  EXPECT_GT(a.virtual_end, 1.0) << "expected seconds of injected virtual delay";
  EXPECT_GE(a.virtual_end, 10.0 * a.wall_elapsed)
      << "virtual span " << a.virtual_end << "s took " << a.wall_elapsed << "s of wall time";
}

}  // namespace
}  // namespace dosas::core
