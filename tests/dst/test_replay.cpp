// test_replay.cpp — replayability of contend-shaped traffic under both
// completer affinities.
//
// run_scale replays a schedule on a VirtualClock whose participants are
// fibers on one OS thread, scheduled by a fixed run rule, so a replay is a
// pure function of (scenario, schedule) whichever way requests map onto
// completers. kNode was fingerprint-grade before because it kept every
// client-side user of a node's link on one completer; kClient (the
// paper's one-CPU-per-client shape) let OS scheduling pick who got a hot
// link at tied virtual instants. Both must now give one fingerprint, and
// turning metrics and tracing on must not change it.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scale/harness.hpp"
#include "scale/traffic.hpp"

namespace dosas::scale {
namespace {

// perfbench's contend shape (16 nodes, 160 clients, 3 completers, 80%
// gaussian2d / 20% sum over 64 keys at 4,500 arrivals/s), cut to 1,000
// requests so 40 replays take a few seconds.
ScaleScenario contend_shaped(CompleterAffinity affinity) {
  ScaleScenario s;
  s.name = "replay";
  s.nodes = 16;
  s.scheme = core::SchemeKind::kDosas;
  s.file_bytes = 128_KiB;
  s.chunk_size = 32_KiB;
  s.completer_threads = 3;
  s.affinity = affinity;
  s.traffic.clients = 160;
  s.traffic.keys = 64;
  s.traffic.requests = 1000;
  s.traffic.arrival_rate = 4500.0;
  TenantSpec analytics;
  analytics.name = "analytics";
  analytics.weight = 0.8;
  analytics.operation = "gaussian2d:width=128";
  analytics.zipf_theta = 0.99;
  analytics.request_bytes = 128_KiB;
  TenantSpec interactive;
  interactive.name = "interactive";
  interactive.weight = 0.2;
  interactive.operation = "sum";
  interactive.zipf_theta = 0.6;
  interactive.request_bytes = 64_KiB;
  s.traffic.tenants = {analytics, interactive};
  return s;
}

TEST(Replay, ContendShapedScheduleHasOneFingerprintPerAffinity) {
  constexpr int kRuns = 20;
  for (const CompleterAffinity affinity : {CompleterAffinity::kNode, CompleterAffinity::kClient}) {
    const std::string name = affinity == CompleterAffinity::kNode ? "kNode" : "kClient";
    const ScaleScenario scenario = contend_shaped(affinity);
    const Schedule schedule = generate_traffic(scenario.traffic, 1);
    std::set<std::uint64_t> fingerprints;
    std::uint64_t handed_back = 0;
    for (int run = 0; run < kRuns; ++run) {
      const ScaleReport r = run_scale(scenario, schedule);
      EXPECT_EQ(r.failed, 0u) << name << " run " << run;
      fingerprints.insert(r.fingerprint);
      handed_back = r.demoted + r.resumed_local;
    }
    EXPECT_EQ(fingerprints.size(), 1u) << name << ": " << fingerprints.size() << " distinct in "
                                       << kRuns << " runs";
    // The CE hands work back to the completers, so the link arbitration
    // kClient used to leave to the OS is exercised.
    EXPECT_GT(handed_back, 0u) << name;
  }
}

TEST(Replay, MetricsAndTracingLeaveTheFingerprintAlone) {
  ScaleScenario scenario = contend_shaped(CompleterAffinity::kNode);
  scenario.traffic.requests = 300;
  const Schedule schedule = generate_traffic(scenario.traffic, 1);
  auto& metrics = obs::MetricsRegistry::global();
  auto& tracer = obs::Tracer::global();
  const ScaleReport off = run_scale(scenario, schedule);

  std::string snapshots[2];
  for (std::string& snapshot : snapshots) {
    metrics.clear();
    tracer.clear();
    metrics.set_enabled(true);
    tracer.set_enabled(true);
    const ScaleReport on = run_scale(scenario, schedule);
    metrics.set_enabled(false);
    tracer.set_enabled(false);
    EXPECT_EQ(on.fingerprint, off.fingerprint);
    EXPECT_GT(tracer.event_count(), 0u);
    snapshot = metrics.to_text();
  }
  EXPECT_NE(snapshots[0].find("stage.e2e_us.gaussian2d"), std::string::npos) << snapshots[0];
  EXPECT_EQ(snapshots[0], snapshots[1]);
  metrics.clear();
  tracer.clear();
}

}  // namespace
}  // namespace dosas::scale
