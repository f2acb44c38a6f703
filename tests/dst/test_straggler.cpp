// DST straggler scenario: hedged striped reads under the VirtualClock.
//
// Four storage nodes on the TokenBucket per-node link model, kernel pacing
// at paper rates, with node 3 built chronically slower
// (node_capacity_factor, the real-runtime twin of the DES straggler knob)
// and then — after a warm-up that fills the transport's per-node latency
// quantiles — hit with a guaranteed per-chunk stall fault, so every
// measured striped read has one leg stuck on a straggler.
//
// The baseline run (hedging off) waits each straggler leg out to its
// request deadline before recovering locally; the hedged run races a local
// twin after a p99-derived delay and cancels the losing RPC. The scenario
// asserts the tentpole's whole contract at once:
//
//   * p99 read_ex latency improves >= 2x (it improves ~100x here),
//   * at < 10% extra bytes on the link model (both runs raw-read the
//     straggler's extent exactly once per request),
//   * the hedge loser is provably cancelled: transport submitted ==
//     completed, inflight == 0, cancelled == hedges won, and the straggler
//     node counts the withdrawn work — no orphaned server work,
//   * same-seed runs are bit-identical (results, counters, virtual
//     timeline, canonical trace projection).
#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "core/cluster.hpp"
#include "fault/fault.hpp"
#include "kernels/sum.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pfs/client.hpp"

namespace dosas::core {
namespace {

constexpr std::uint32_t kStraggler = 3;
constexpr std::size_t kWarmupReads = 12;
constexpr std::size_t kMeasuredReads = 12;
constexpr std::size_t kCount = 32'768;  // 256 KiB: one 64 KiB strip per node

// Sorted canonical projection of the trace buffer (same contract as
// tests/dst/test_dst.cpp): everything except tid and buffer order.
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

struct StragglerOutput {
  std::vector<std::vector<std::uint8_t>> results;  ///< measured-phase results
  std::vector<Seconds> latencies;                  ///< per measured read_ex
  std::string fingerprint;
  Seconds virtual_end = 0.0;
  Bytes bytes_charged = 0;
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t hedges_wasted = 0;
  std::uint64_t transport_cancelled = 0;
  std::uint64_t transport_timed_out = 0;
  std::uint64_t transport_submitted = 0;
  std::uint64_t transport_completed = 0;
  std::size_t transport_inflight = 0;
  std::uint64_t straggler_withdrawn = 0;  ///< node 3 cancelled + timed out
  rpc::NodeLatency warm_node0;            ///< per-node quantiles after warm-up
  rpc::NodeLatency warm_straggler;
};

Seconds percentile(std::vector<Seconds> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

StragglerOutput run_straggler(std::uint64_t seed, bool hedge) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  obs::MetricsRegistry::global().clear();
  obs::Tracer::global().clear();
  obs::Tracer::global().set_enabled(true);

  StragglerOutput out;
  {
    ClusterConfig cfg;
    cfg.storage_nodes = 4;
    cfg.strip_size = 64_KiB;
    cfg.cores_per_node = 1;  // serializes each node's kernel order
    cfg.server_chunk_size = 16_KiB;
    cfg.client_chunk_size = 64_KiB;
    cfg.scheme = SchemeKind::kActive;
    cfg.optimizer_override = "all-active";  // admission independent of timing
    cfg.server.pace_kernel_rates = true;    // legs take calibrated virtual time
    cfg.node_capacity_factor = {1.0, 1.0, 1.0, 0.5};  // node 3: half-speed CPU
    cfg.network_rate = mb_per_sec(118.0);   // the TokenBucket link model,
    cfg.network_per_node = true;            // one bucket per node uplink
    cfg.client.request_timeout = 0.5;       // the baseline's only straggler escape
    cfg.client.hedge_reads = hedge;
    Cluster cluster(cfg);

    auto meta = pfs::write_doubles(cluster.pfs_client(), "/straggler", kCount,
                                   [](std::size_t i) { return static_cast<double>(i % 17); });
    EXPECT_TRUE(meta.is_ok());

    // Warm-up: no faults yet. Fills every node's latency quantiles (the
    // hedge delay and the slowest-node-last wait order feed on them) with
    // the chronic capacity skew already visible on node 3.
    for (std::size_t r = 0; r < kWarmupReads; ++r) {
      auto res = cluster.asc().read_ex(meta.value(), 0, meta.value().size, "sum");
      EXPECT_TRUE(res.is_ok()) << "warm-up " << r << ": " << res.status().to_string();
    }
    out.warm_node0 = cluster.asc().transport().node_latency(0);
    out.warm_straggler = cluster.asc().transport().node_latency(kStraggler);

    // The straggler onset: a guaranteed per-chunk stall, wired into node 3
    // ONLY. Every measured read now has one leg stuck far past the other
    // three.
    std::ostringstream spec_text;
    spec_text << "seed=" << seed << ",stall=1.0,stall_ms=150";
    auto spec = fault::FaultSpec::parse(spec_text.str());
    EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
    cluster.storage_server(kStraggler)
        .set_fault_injector(std::make_shared<fault::FaultInjector>(spec.value()));

    for (std::size_t r = 0; r < kMeasuredReads; ++r) {
      const Seconds t0 = clock().now();
      auto res = cluster.asc().read_ex(meta.value(), 0, meta.value().size, "sum");
      out.latencies.push_back(clock().now() - t0);
      EXPECT_TRUE(res.is_ok()) << "measured " << r << ": " << res.status().to_string();
      out.results.push_back(res.is_ok() ? res.value() : std::vector<std::uint8_t>{});
    }

    // Drain: cancelled kernels notice their interrupt at the next stall
    // slice; sleep past that so the final counters (and the virtual
    // timeline) are quiescent, not racing the zombies.
    clock().sleep(2.0);

    const auto cs = cluster.asc().stats();
    const auto ts = cluster.asc().transport_stats();
    const auto ss = cluster.storage_server(kStraggler).stats();
    out.hedges_fired = cs.hedges_fired;
    out.hedges_won = cs.hedges_won;
    out.hedges_wasted = cs.hedges_wasted;
    out.transport_cancelled = ts.cancelled;
    out.transport_timed_out = ts.timed_out;
    out.transport_submitted = ts.submitted;
    out.transport_completed = ts.completed;
    out.transport_inflight = ts.inflight;
    out.bytes_charged = ts.bytes_charged;
    out.straggler_withdrawn = ss.active_cancelled + ss.active_timed_out;

    std::ostringstream fp;
    fp << "client reads_ex=" << cs.reads_ex << " completed_remote=" << cs.completed_remote
       << " demoted=" << cs.demoted << " local_kernel_runs=" << cs.local_kernel_runs
       << " striped_fanouts=" << cs.striped_fanouts
       << " failed_remote_retries=" << cs.failed_remote_retries
       << " timed_out=" << cs.timed_out << " hedges_fired=" << cs.hedges_fired
       << " hedges_won=" << cs.hedges_won << " hedges_wasted=" << cs.hedges_wasted
       << " raw_bytes=" << cs.raw_bytes_read << " result_bytes=" << cs.result_bytes_received
       << '\n';
    for (std::uint32_t i = 0; i < cluster.storage_node_count(); ++i) {
      const auto s = cluster.storage_server(i).stats();
      fp << "server" << i << " completed=" << s.active_completed
         << " interrupted=" << s.active_interrupted << " failed=" << s.active_failed
         << " cancelled=" << s.active_cancelled << " timed_out=" << s.active_timed_out
         << " bytes=" << s.active_bytes_processed << '\n';
    }
    fp << "transport submitted=" << ts.submitted << " completed=" << ts.completed
       << " cancelled=" << ts.cancelled << " timed_out=" << ts.timed_out
       << " bytes_charged=" << ts.bytes_charged << '\n';
    fp << "latencies";
    for (const Seconds l : out.latencies) {
      fp << ' ' << std::fixed << std::setprecision(9) << l;
    }
    fp << '\n';
    const auto st = vc.status();
    fp << "clock now=" << std::fixed << std::setprecision(9) << st.now
       << " advances=" << st.advances << '\n';
    fp << "--- trace ---\n" << canonical_trace();
    out.fingerprint = fp.str();
    out.virtual_end = vc.now();
  }
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().clear();
  return out;
}

double expected_sum() {
  double expect = 0.0;
  for (std::size_t i = 0; i < kCount; ++i) expect += static_cast<double>(i % 17);
  return expect;
}

// ----------------------------------------------------------------- tests

TEST(DstStraggler, HedgingCutsTailLatencyCheaply) {
  const auto baseline = run_straggler(2024, /*hedge=*/false);
  const auto hedged = run_straggler(2024, /*hedge=*/true);

  // Both runs return the arithmetic truth, bit-identically to each other:
  // hedging must never change WHAT is computed, only where.
  ASSERT_EQ(baseline.results.size(), hedged.results.size());
  for (std::size_t i = 0; i < baseline.results.size(); ++i) {
    EXPECT_EQ(baseline.results[i], hedged.results[i]) << "read " << i;
    auto sum = kernels::SumResult::decode(hedged.results[i]);
    ASSERT_TRUE(sum.is_ok());
    EXPECT_DOUBLE_EQ(sum.value().sum, expected_sum());
    EXPECT_EQ(sum.value().count, kCount);
  }

  // The acceptance ratio: >= 2x p99 improvement. The hedge fires after the
  // ~2ms p99-derived delay instead of the 500ms request deadline, so the
  // actual margin is orders of magnitude.
  const Seconds p99_base = percentile(baseline.latencies, 0.99);
  const Seconds p99_hedge = percentile(hedged.latencies, 0.99);
  EXPECT_GT(p99_hedge, 0.0);
  EXPECT_GE(p99_base, 2.0 * p99_hedge)
      << "baseline p99 " << p99_base << "s vs hedged " << p99_hedge << "s";

  // ...at < 10% extra bytes on the link model: both runs pull the
  // straggler's strip over the wire exactly once per measured read (the
  // baseline via its deadline fallback, the hedge via its local twin), so
  // the hedged run's charged bytes stay within noise of the baseline's.
  EXPECT_GT(baseline.bytes_charged, 0u);
  EXPECT_LE(static_cast<double>(hedged.bytes_charged),
            1.10 * static_cast<double>(baseline.bytes_charged))
      << "hedged " << hedged.bytes_charged << "B vs baseline " << baseline.bytes_charged << "B";

  // Every measured read hedged exactly once, the local twin always beat the
  // stalled leg, and every loser was cancelled: one result, one charge.
  EXPECT_EQ(hedged.hedges_fired, kMeasuredReads);
  EXPECT_EQ(hedged.hedges_won, kMeasuredReads);
  EXPECT_EQ(hedged.hedges_wasted, 0u);
  EXPECT_EQ(hedged.transport_cancelled, hedged.hedges_won);
  EXPECT_EQ(hedged.transport_timed_out, 0u) << "hedges must beat the watchdog";

  // No orphaned server work: every submission completed (the cancelled
  // legs complete kCancelled), nothing left in flight, and the straggler
  // node itself accounts for the withdrawn requests.
  EXPECT_EQ(hedged.transport_submitted, hedged.transport_completed);
  EXPECT_EQ(hedged.transport_inflight, 0u);
  EXPECT_GE(hedged.straggler_withdrawn, hedged.hedges_won);

  // The baseline recovers too — but only at the deadline, via the watchdog.
  EXPECT_EQ(baseline.hedges_fired, 0u);
  EXPECT_EQ(baseline.transport_timed_out, kMeasuredReads);
}

TEST(DstStraggler, WarmupQuantilesSeeTheChronicSkew) {
  // The per-node latency tracking (rpc::NodeLatency) is the hedge's whole
  // sensory system: after warm-up each node has a full sample set and the
  // half-capacity straggler's quantiles sit visibly above a healthy node's.
  const auto out = run_straggler(7, /*hedge=*/true);
  EXPECT_GE(out.warm_node0.samples, kWarmupReads);
  EXPECT_GE(out.warm_straggler.samples, kWarmupReads);
  EXPECT_GT(out.warm_straggler.p50_us, out.warm_node0.p50_us);
  EXPECT_GT(out.warm_straggler.p99_us, 0.0);
}

TEST(DstStraggler, HedgedScenarioIsBitIdenticalAcrossRuns) {
  const auto a = run_straggler(2024, /*hedge=*/true);
  const auto b = run_straggler(2024, /*hedge=*/true);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i], b.results[i]) << "read " << i;
  }
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_DOUBLE_EQ(a.virtual_end, b.virtual_end);
  EXPECT_GT(a.virtual_end, 0.0);
}

}  // namespace
}  // namespace dosas::core
