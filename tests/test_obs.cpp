// Tests for the observability subsystem: metrics registry thread safety,
// the log-linear histogram's accuracy and order independence, the
// disabled-path no-op guarantee, and the Chrome trace JSON export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dosas::obs {
namespace {

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set(-1.0);  // last value wins
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, ConcurrentObservesKeepTotalCount) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>((t * kPerThread + i) % 100));
      }
    });
  }
  for (auto& w : workers) w.join();
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) total += h.bucket(b);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.summary().count, static_cast<std::size_t>(kThreads) * kPerThread);
}

/// Every Summary field, doubles as exact hex floats.
std::string exact(const Histogram::Summary& s) {
  std::ostringstream out;
  out << std::hexfloat << s.count << ' ' << s.mean << ' ' << s.min << ' ' << s.max << ' '
      << s.p50 << ' ' << s.p90 << ' ' << s.p99 << ' ' << s.exemplar_trace_id;
  return out.str();
}

struct Sample {
  double value;
  std::uint64_t trace_id;
};

TEST(Histogram, SummaryAndTextDependOnlyOnTheSampleMultiset) {
  // Lognormal latencies, a tail of exact ties at the maximum (so the
  // exemplar tie-break is exercised), zeros, and samples without a trace.
  std::mt19937_64 rng(2012);
  std::lognormal_distribution<double> lognormal(5.0, 1.5);
  std::vector<Sample> samples;
  for (std::uint64_t i = 0; i < 20000; ++i) samples.push_back({lognormal(rng), i % 7 == 0 ? 0 : i});
  for (std::uint64_t i = 0; i < 50; ++i) samples.push_back({0.0, 100000 + i});
  for (std::uint64_t i = 0; i < 8; ++i) samples.push_back({1e8, 200000 + (i * 37) % 11});

  const auto render = [](const std::vector<Sample>& order, int threads) {
    MetricsRegistry reg;
    Histogram& h = reg.histogram("lat");
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < order.size(); i += threads) {
          h.observe(order[i].value, order[i].trace_id);
        }
      });
    }
    for (auto& w : workers) w.join();
    return exact(h.summary()) + "\n" + reg.to_text();
  };

  std::vector<Sample> order = samples;
  const std::string reference = render(order, 1);
  std::reverse(order.begin(), order.end());
  EXPECT_EQ(render(order, 1), reference) << "reversed";
  std::sort(order.begin(), order.end(),
            [](const Sample& a, const Sample& b) { return a.value < b.value; });
  EXPECT_EQ(render(order, 1), reference) << "ascending";
  std::shuffle(order.begin(), order.end(), rng);
  EXPECT_EQ(render(order, 1), reference) << "shuffled";
  EXPECT_EQ(render(order, 4), reference) << "four threads";
  EXPECT_NE(reference.find("exemplar=trace:200009"), std::string::npos) << reference;
}

/// The ceil(pct% * n)-th smallest sample.
double nearest_rank(std::vector<double> v, int pct) {
  std::sort(v.begin(), v.end());
  return v[(static_cast<std::size_t>(pct) * v.size() + 99) / 100 - 1];
}

TEST(Histogram, QuantilesStayWithinTheStatedErrorOfNearestRank) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::lognormal_distribution<double> lognormal(4.0, 2.0);
  std::normal_distribution<double> fast(200.0, 10.0), slow(50000.0, 2000.0);
  std::bernoulli_distribution coin(0.3);
  std::vector<std::pair<std::string, std::vector<double>>> inputs(3);
  inputs[0].first = "uniform 0..1";  // sim.util.* is a 0..1 series
  inputs[1].first = "lognormal";
  inputs[2].first = "bimodal";
  for (int i = 0; i < 10000; ++i) {
    inputs[0].second.push_back(i % 10 == 0 ? 0.0 : unit(rng));
    inputs[1].second.push_back(lognormal(rng));
    inputs[2].second.push_back(coin(rng) ? slow(rng) : fast(rng));
  }
  // Below 2^kMinExponent a sample reads as 0 (clamped to [min, max]).
  const double floor = std::ldexp(1.0, Histogram::kMinExponent);
  for (const auto& [name, values] : inputs) {
    Histogram h;
    for (double v : values) h.observe(v);
    const auto s = h.summary();
    ASSERT_EQ(s.count, values.size()) << name;
    EXPECT_EQ(s.min, *std::min_element(values.begin(), values.end())) << name;
    EXPECT_EQ(s.max, *std::max_element(values.begin(), values.end())) << name;
    const std::pair<int, double> quantiles[] = {{50, s.p50}, {90, s.p90}, {99, s.p99}};
    for (const auto& [pct, got] : quantiles) {
      const double want = nearest_rank(values, pct);
      EXPECT_LE(std::abs(got - want), Histogram::kRelativeError * want + (want < floor ? floor : 0))
          << name << " p" << pct << ": " << got << " vs exact " << want;
    }
    double sum = 0.0;
    for (double v : values) sum += v;
    const double mean = sum / static_cast<double>(values.size());
    EXPECT_LE(std::abs(s.mean - mean), Histogram::kRelativeError * mean + floor) << name;
    EXPECT_LE(s.min, s.p50) << name;
    EXPECT_LE(s.p50, s.p90) << name;
    EXPECT_LE(s.p90, s.p99) << name;
    EXPECT_LE(s.p99, s.max) << name;
  }
}

TEST(Histogram, BucketsSpanTheRegistrysRangeAtTheStatedResolution) {
  // Zero lands in the underflow bucket and reads back as exactly 0.
  Histogram zeros;
  zeros.observe(0.0);
  zeros.observe(0.0);
  EXPECT_EQ(zeros.bucket(0), 2u);
  EXPECT_EQ(zeros.summary().p99, 0.0);
  EXPECT_EQ(zeros.summary().mean, 0.0);

  // 1e-3 to ~1.1e9 (sub-millisecond latencies to byte counts) fall in
  // log-linear buckets, not in the open-ended ones at either end.
  for (const double v : {1e-3, 0.25, 1.0, 1.5, 118.0, 4096.0, 1.1e9}) {
    Histogram h;
    h.observe(v);
    std::size_t hit = Histogram::kBucketCount;
    for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
      if (h.bucket(i) != 0) hit = i;
    }
    ASSERT_GT(hit, 0u) << v;
    ASSERT_LT(hit, Histogram::kBucketCount - 1) << v;
    const double lo = Histogram::bucket_lower(hit), hi = Histogram::bucket_upper(hit);
    EXPECT_LE(lo, v);
    EXPECT_LT(v, hi);
    EXPECT_LE((hi - lo) / lo, 2.0 * Histogram::kRelativeError) << v;
  }

  // Bounds are exact dyadic values: 0.5 lands in [2^-1, 2^-1 * 33/32).
  Histogram half;
  half.observe(0.5);
  std::size_t hit = 0;
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    if (half.bucket(i) != 0) hit = i;
  }
  EXPECT_EQ(half.bucket(hit), 1u);
  EXPECT_EQ(Histogram::bucket_lower(hit), 0.5);
  EXPECT_EQ(Histogram::bucket_upper(hit), 0.515625);
  EXPECT_EQ(Histogram::bucket_lower(0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(Histogram::bucket_upper(Histogram::kBucketCount - 1),
            std::numeric_limits<double>::infinity());
}

TEST(Histogram, ExemplarTieGoesToTheLargerTraceId) {
  const std::vector<Sample> samples = {{5.0, 42}, {9.0, 55}, {9.0, 77}, {7.0, 99}, {9.0, 3},
                                       {20.0, 0}};  // the max carries no trace
  for (int reversed = 0; reversed < 2; ++reversed) {
    Histogram h;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& x = samples[reversed ? samples.size() - 1 - i : i];
      h.observe(x.value, x.trace_id);
    }
    EXPECT_EQ(h.summary().exemplar_trace_id, 77u) << "reversed=" << reversed;
    EXPECT_EQ(h.summary().max, 20.0);
  }
}

TEST(Registry, FindOrCreateAndSnapshots) {
  MetricsRegistry reg;
  reg.gauge("a.depth").set(7.0);
  reg.histogram("a.lat").observe(0.5);
  EXPECT_EQ(&reg.gauge("a.depth"), &reg.gauge("a.depth"));
  EXPECT_EQ(&reg.histogram("a.lat"), &reg.histogram("a.lat"));

  const std::string text = reg.to_text();
  EXPECT_NE(text.find("a.depth"), std::string::npos);
  EXPECT_NE(text.find("a.lat"), std::string::npos);

  reg.clear();
  EXPECT_EQ(reg.to_text(), "");
}

TEST(Registry, DisabledHelpersAreNoOps) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(false);
  gauge_set("test_obs.disabled_gauge", 1.0);
  observe("test_obs.disabled_hist", 1.0);
  EXPECT_FALSE(metrics_enabled());
  EXPECT_EQ(reg.to_text().find("test_obs.disabled_"), std::string::npos);
}

TEST(Registry, EnabledHelpersRecord) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(true);
  gauge_set("test_obs.enabled_gauge", 4.0);
  observe("test_obs.enabled_hist", 8.0);
  EXPECT_DOUBLE_EQ(reg.gauge("test_obs.enabled_gauge").value(), 4.0);
  EXPECT_EQ(reg.histogram("test_obs.enabled_hist").summary().count, 1u);
  reg.set_enabled(false);
}

TEST(Registry, TextOutputIsDeterministicallySorted) {
  // DST fingerprints embed the full metrics text, so the rendering must be
  // one global lexicographic order over all kinds — not creation order, not
  // per-kind sections whose interleave could drift.
  MetricsRegistry reg;
  reg.histogram("z.lat").observe(1.0);
  reg.gauge("m.depth").set(1.0);
  reg.histogram("a.lat").observe(1.0);
  reg.gauge("b.depth").set(2.0);

  const std::string text = reg.to_text();
  const auto pa = text.find("a.lat");
  const auto pb = text.find("b.depth");
  const auto pm = text.find("m.depth");
  const auto pz = text.find("z.lat");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pb, std::string::npos);
  ASSERT_NE(pm, std::string::npos);
  ASSERT_NE(pz, std::string::npos);
  EXPECT_LT(pa, pb);
  EXPECT_LT(pb, pm);
  EXPECT_LT(pm, pz);
  EXPECT_EQ(text, reg.to_text());  // stable across renders
}

TEST(Histogram, ExemplarTracksTheMaxSample) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("stage.e2e_us.sum");
  h.observe(5.0, 42);
  h.observe(9.0, 77);
  h.observe(7.0, 99);
  EXPECT_EQ(h.summary().exemplar_trace_id, 77u);

  const std::string text = reg.to_text();
  EXPECT_NE(text.find("exemplar=trace:77"), std::string::npos);
}

TEST(FlightRecorder, RecordSnapshotAndTraceFilteredDump) {
  FlightRecorder fr;
  fr.record(FlightEventKind::kStateTransition, 7, 0, 1, "queued");
  fr.record(FlightEventKind::kRetry, 9, 1, 2, "attempt 2");
  fr.record(FlightEventKind::kDemotion, 7, 0, 1, "knee exceeded");
  EXPECT_EQ(fr.events_recorded(), 3u);

  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].trace_id, 7u);
  EXPECT_EQ(events[1].kind, FlightEventKind::kRetry);
  EXPECT_STREQ(events[2].note, "knee exceeded");

  // Trace filter keeps only trace 7's history; the retry drops out.
  const std::string filtered = fr.dump_text(/*only_trace_id=*/7);
  EXPECT_NE(filtered.find("queued"), std::string::npos);
  EXPECT_NE(filtered.find("knee exceeded"), std::string::npos);
  EXPECT_EQ(filtered.find("attempt 2"), std::string::npos);

  // Tail keeps the newest line only.
  const std::string tail = fr.dump_text(0, /*tail=*/1);
  EXPECT_EQ(tail.find("queued"), std::string::npos);
  EXPECT_NE(tail.find("knee exceeded"), std::string::npos);
}

TEST(FlightRecorder, RingWrapKeepsTheNewestEvents) {
  FlightRecorder fr;
  const std::size_t total = FlightRecorder::kSlots + 10;
  for (std::size_t i = 0; i < total; ++i) {
    fr.record(FlightEventKind::kStateTransition, 0, 0, i, "e");
  }
  EXPECT_EQ(fr.events_recorded(), total);
  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kSlots);
  EXPECT_EQ(events.front().detail, 10u);  // the 10 oldest were overwritten
  EXPECT_EQ(events.back().detail, total - 1);
}

TEST(FlightRecorder, DumpsAreCappedAndGoToTheSink) {
  FlightRecorder fr;
  fr.record(FlightEventKind::kDeadlineMiss, 3, 0, 0, "watchdog fired");
  int dumps = 0;
  std::string last;
  fr.set_sink([&](const std::string& text) {
    ++dumps;
    last = text;
  });
  for (int i = 0; i < 20; ++i) fr.trigger_dump("test reason", 3);
  fr.set_sink(nullptr);
  EXPECT_EQ(dumps, 8) << "dump cascade must be capped";
  EXPECT_EQ(fr.dumps_triggered(), 20u);
  EXPECT_NE(last.find("test reason"), std::string::npos);
  EXPECT_NE(last.find("(trace 3)"), std::string::npos);
  EXPECT_NE(last.find("watchdog fired"), std::string::npos);
}

TEST(Trace, ChildContextDerivationIsDeterministicAndCollisionResistant) {
  Tracer tracer;
  const TraceContext root = tracer.new_root();
  EXPECT_TRUE(root.valid());
  EXPECT_EQ(root.parent_span_id, 0u);

  const TraceContext a = root.child("queue");
  const TraceContext b = root.child("kernel");
  EXPECT_EQ(a.trace_id, root.trace_id);
  EXPECT_EQ(a.parent_span_id, root.span_id);
  EXPECT_NE(a.span_id, b.span_id) << "different salts must derive different spans";
  EXPECT_EQ(a.span_id, root.child("queue").span_id) << "derivation must be pure";
}

TEST(Trace, ChromeJsonRoundTrip) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.complete("kernel:gaussian2d", "kernel", 10.0, 25.0);
  tracer.instant("demote", "ce");
  tracer.counter("queue_depth", 3.0);
  tracer.counter_at("link.util", 0.75, 1.5e6, Tracer::kSimPid);
  EXPECT_EQ(tracer.event_count(), 4u);

  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);  // pid metadata
  EXPECT_NE(json.find("kernel:gaussian2d"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  // Structurally balanced (no trailing-comma truncation).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.back(), '}');

  const std::string path = ::testing::TempDir() + "test_obs_trace.json";
  ASSERT_TRUE(tracer.write(path).is_ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string back(json.size() + 1, '\0');
  back.resize(std::fread(back.data(), 1, back.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(back, json);
}

TEST(Trace, JsonStringsAreEscaped) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.instant("quote\"back\\slash", "cat\n");
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("cat\\n"), std::string::npos);
}

TEST(Trace, DisabledEmissionsAndScopesAreDropped) {
  Tracer tracer;
  tracer.complete("x", "y", 0.0, 1.0);
  tracer.instant("x", "y");
  tracer.counter("x", 1.0);
  EXPECT_EQ(tracer.event_count(), 0u);

  auto& global = Tracer::global();
  global.set_enabled(false);
  const std::size_t before = global.event_count();
  { ScopedTrace scope("test_obs.scope", "test"); }
  EXPECT_EQ(global.event_count(), before);
}

TEST(Trace, ScopedTraceRecordsWhenEnabled) {
  auto& global = Tracer::global();
  global.set_enabled(true);
  const std::size_t before = global.event_count();
  { ScopedTrace scope("test_obs.scope", "test"); }
  EXPECT_EQ(global.event_count(), before + 1);
  const std::string json = global.to_chrome_json();
  EXPECT_NE(json.find("test_obs.scope"), std::string::npos);
  global.set_enabled(false);
  global.clear();
}

}  // namespace
}  // namespace dosas::obs
