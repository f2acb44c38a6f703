// Unit tests for the hedged-read machinery and the fan-out cancellation
// fixes:
//
//   * a hedge loser is cancelled, never merged, and never double-charged
//     (the link model charges exactly one leg's bytes),
//   * a failed fan-out leg cancels its still-outstanding siblings instead
//     of abandoning them on the storage nodes,
//   * a PendingReadEx dropped without wait() withdraws its legs and closes
//     the request's root span,
//   * the transport tracks per-target-node latency quantiles, excluding
//     cancelled completions (time-to-cancel must not make a straggler look
//     fast).
//
// The DST scenario in tests/dst/test_straggler.cpp proves the end-to-end
// latency/byte/determinism contract; these tests pin the mechanisms.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/active_client.hpp"
#include "common/clock.hpp"
#include "core/cluster.hpp"
#include "fault/fault.hpp"
#include "kernels/registry.hpp"
#include "kernels/sum.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pfs/client.hpp"
#include "server/storage_server.hpp"

namespace dosas::client {
namespace {

double value_at(std::size_t i) { return static_cast<double>(i % 23); }

double expected_sum(std::size_t count) {
  double expect = 0.0;
  for (std::size_t i = 0; i < count; ++i) expect += value_at(i);
  return expect;
}

std::shared_ptr<fault::FaultInjector> stall_injector(const std::string& spec_text) {
  auto spec = fault::FaultSpec::parse(spec_text);
  EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
  return std::make_shared<fault::FaultInjector>(spec.value());
}

// ------------------------------------------------------------------ hedging

// The core hedge contract on a single stalled node: the local twin wins,
// the remote leg is cancelled (withdrawn server-side, excluded from the
// per-node quantiles), and the link model charges exactly the bytes of the
// winning path — a double charge or a double merge would break the
// equation / the arithmetic below.
TEST(Hedge, LoserIsCancelledAndNeverDoubleCharged) {
  constexpr std::size_t kCount = 8192;  // 64 KiB: one strip, one leg
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  {
    core::ClusterConfig cfg;
    cfg.storage_nodes = 1;
    cfg.strip_size = 64_KiB;
    cfg.cores_per_node = 1;
    cfg.server_chunk_size = 16_KiB;
    cfg.client_chunk_size = 64_KiB;
    cfg.scheme = core::SchemeKind::kActive;
    cfg.optimizer_override = "all-active";
    cfg.network_rate = mb_per_sec(118.0);
    cfg.network_per_node = true;
    cfg.client.hedge_reads = true;
    cfg.client.hedge_min_samples = 1000;  // quantiles never warm: stay on the cold path
    cfg.client.hedge_cold_delay = 0.01;   // hedge a cold leg after 10ms
    core::Cluster cluster(cfg);

    auto meta = pfs::write_doubles(cluster.pfs_client(), "/hedge", kCount, value_at);
    ASSERT_TRUE(meta.is_ok());

    // Every kernel chunk stalls 200ms (virtual); the data path is NOT
    // faulted, so the hedge's local twin reads at full speed while the
    // remote kernel crawls.
    cluster.storage_server(0).set_fault_injector(
        stall_injector("seed=1,stall=1.0,stall_ms=200"));

    auto res = cluster.asc().read_ex(meta.value(), 0, meta.value().size, "sum");
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    auto sum = kernels::SumResult::decode(res.value());
    ASSERT_TRUE(sum.is_ok());
    EXPECT_DOUBLE_EQ(sum.value().sum, expected_sum(kCount));
    EXPECT_EQ(sum.value().count, kCount);

    // Drain: the cancelled kernel notices its interrupt at the next stall
    // slice; sleep past it so the counters below are quiescent.
    clock().sleep(2.0);

    const auto cs = cluster.asc().stats();
    const auto ts = cluster.asc().transport_stats();
    const auto ss = cluster.storage_server(0).stats();

    EXPECT_EQ(cs.hedges_fired, 1u);
    EXPECT_EQ(cs.hedges_won, 1u);
    EXPECT_EQ(cs.hedges_wasted, 0u);
    EXPECT_EQ(cs.completed_remote, 0u);

    // The loser was withdrawn, not abandoned: the cancel completes the
    // reply (submitted == completed, nothing in flight) and the server
    // counts the withdrawn waiter; its kernel never completes.
    EXPECT_EQ(ts.cancelled, 1u);
    EXPECT_EQ(ts.submitted, ts.completed);
    EXPECT_EQ(ts.inflight, 0u);
    EXPECT_EQ(ss.active_cancelled, 1u);
    EXPECT_EQ(ss.active_completed, 0u);

    // No double charge: a cancelled reply carries no payload, so the link
    // model charged exactly the twin's raw reads (and the zero result
    // bytes of a read with no remote completion).
    EXPECT_GT(cs.raw_bytes_read, 0u);
    EXPECT_EQ(ts.bytes_charged, cs.raw_bytes_read + cs.result_bytes_received);

    // The cancelled completion is excluded from the per-node quantiles:
    // its time-to-cancel would understate the straggler's true latency.
    EXPECT_EQ(cluster.asc().transport().node_latency(0).samples, 0u);
  }
}

// ------------------------------------------------------- fan-out bugfixes

// A failed leg must withdraw its siblings before propagating: server 0 has
// an EMPTY kernel registry (its leg fails kNotFound, a non-transient
// error), server 1 stalls mid-kernel — without the fix its leg would burn
// kernel time on a request nobody will merge.
TEST(Hedge, FailedLegCancelsSiblings) {
  server::ContentionEstimator::Config ce;
  ce.bandwidth = mb_per_sec(118.0);
  ce.optimizer = "all-active";
  server::StorageServer::Config sc;
  sc.cores = 1;
  sc.chunk_size = 16_KiB;

  constexpr std::size_t kCount = 16384;  // 128 KiB across two 64 KiB strips
  pfs::FileSystem fs(2, 64_KiB);
  pfs::Client pfs_client(fs);
  auto meta = pfs::write_doubles(pfs_client, "/striped", kCount, value_at);
  ASSERT_TRUE(meta.is_ok());

  server::StorageServer broken(fs, 0, kernels::Registry{}, ce,
                               server::RateTable::paper_rates(), sc);
  server::StorageServer stalled(fs, 1, kernels::Registry::with_builtins(), ce,
                                server::RateTable::paper_rates(), sc);
  stalled.set_fault_injector(stall_injector("seed=1,stall=1.0,stall_ms=100"));

  kernels::Registry registry = kernels::Registry::with_builtins();
  ActiveClient asc(pfs_client, registry, {&broken, &stalled});

  auto res = asc.read_ex(meta.value(), 0, meta.value().size, "sum");
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kNotFound);

  // The sibling on the stalled node was withdrawn the moment leg 0's
  // failure propagated: cancelled at the transport, counted by the server,
  // nothing left in flight.
  const auto ts = asc.transport_stats();
  EXPECT_EQ(ts.cancelled, 1u);
  EXPECT_EQ(ts.submitted, ts.completed);
  EXPECT_EQ(ts.inflight, 0u);
  EXPECT_EQ(stalled.stats().active_cancelled, 1u);
  EXPECT_EQ(stalled.stats().active_completed, 0u);
}

// Dropping an unawaited PendingReadEx must not leak: both legs are
// cancelled (queued server work never starts, running work is interrupted)
// and the request's root span is closed as if the read had completed.
TEST(Hedge, AbandonedPendingReadCancelsLegsAndClosesRootSpan) {
  obs::Tracer::global().clear();
  obs::Tracer::global().set_enabled(true);

  constexpr std::size_t kCount = 16384;
  core::ClusterConfig cfg;
  cfg.storage_nodes = 2;
  cfg.strip_size = 64_KiB;
  cfg.cores_per_node = 1;
  cfg.server_chunk_size = 16_KiB;
  cfg.scheme = core::SchemeKind::kActive;
  cfg.optimizer_override = "all-active";
  cfg.faults = stall_injector("seed=1,stall=1.0,stall_ms=100");
  core::Cluster cluster(cfg);

  auto meta = pfs::write_doubles(cluster.pfs_client(), "/dropped", kCount, value_at);
  ASSERT_TRUE(meta.is_ok());

  {
    auto pending = cluster.asc().read_ex_async(meta.value(), 0, meta.value().size, "sum");
    // Dropped without wait().
  }

  const auto ts = cluster.asc().transport_stats();
  EXPECT_EQ(ts.cancelled, 2u);
  EXPECT_EQ(ts.submitted, ts.completed);
  EXPECT_EQ(ts.inflight, 0u);
  std::uint64_t withdrawn = 0;
  for (std::uint32_t i = 0; i < 2; ++i) {
    withdrawn += cluster.storage_server(i).stats().active_cancelled;
  }
  EXPECT_EQ(withdrawn, 2u);

  // The causal tree has a root: the "client.read_ex" complete span was
  // emitted by the destructor, exactly as wait() would have.
  bool root_closed = false;
  for (const auto& e : obs::Tracer::global().snapshot()) {
    if (e.name == "client.read_ex") root_closed = true;
  }
  EXPECT_TRUE(root_closed);

  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().clear();
}

// ------------------------------------------------------ per-node latency

TEST(Hedge, NodeLatencyIsTrackedPerTarget) {
  obs::MetricsRegistry::global().clear();
  obs::MetricsRegistry::global().set_enabled(true);

  constexpr std::size_t kCount = 16384;
  core::ClusterConfig cfg;
  cfg.storage_nodes = 2;
  cfg.strip_size = 64_KiB;
  cfg.cores_per_node = 1;
  cfg.scheme = core::SchemeKind::kActive;
  cfg.optimizer_override = "all-active";
  core::Cluster cluster(cfg);

  auto meta = pfs::write_doubles(cluster.pfs_client(), "/latency", kCount, value_at);
  ASSERT_TRUE(meta.is_ok());

  constexpr std::size_t kReads = 10;
  for (std::size_t r = 0; r < kReads; ++r) {
    auto res = cluster.asc().read_ex(meta.value(), 0, meta.value().size, "sum");
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  }

  // Every striped read put one genuine active completion on each node.
  for (std::uint32_t node = 0; node < 2; ++node) {
    const auto nl = cluster.asc().transport().node_latency(node);
    EXPECT_EQ(nl.samples, kReads) << "node " << node;
    EXPECT_GE(nl.p99_us, nl.p50_us) << "node " << node;
  }
  // Unknown targets read as empty, not as an error.
  const auto none = cluster.asc().transport().node_latency(99);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.p50_us, 0.0);

  // The same signal is exported as per-node metrics series.
  const std::string text = obs::MetricsRegistry::global().to_text();
  EXPECT_NE(text.find("rpc.node_latency_us.0"), std::string::npos);
  EXPECT_NE(text.find("rpc.node_latency_us.1"), std::string::npos);

  obs::MetricsRegistry::global().set_enabled(false);
  obs::MetricsRegistry::global().clear();
}

}  // namespace
}  // namespace dosas::client
