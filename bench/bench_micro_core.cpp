// Micro-benchmarks of the substrate hot paths: DES event queue, fluid
// resource membership churn, PFS layout math and read path, checkpoint
// codec, ring throughput, and kernel consume loops.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/arena.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "kernels/gaussian2d.hpp"
#include "kernels/minmax.hpp"
#include "kernels/registry.hpp"
#include "kernels/topk.hpp"
#include "kernels/sum.hpp"
#include "pfs/client.hpp"
#include "pfs/file_system.hpp"
#include "sim/fluid_resource.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace dosas;

// Cross-benchmark accumulators for the per-request data-plane telemetry
// (bytes_copied_per_req, cas_retries_per_req) emitted in the JSON record.
// "Request" means one benchmark operation: a whole-file PFS read for the
// copy ledger, one queue transfer for the CAS counters.
std::atomic<std::uint64_t> g_ring_transfers{0};
std::atomic<std::uint64_t> g_ring_cas_retries{0};
std::atomic<std::uint64_t> g_copy_reqs{0};
std::atomic<std::uint64_t> g_copy_bytes{0};

void BM_SimulatorScheduleFire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    for (std::size_t i = 0; i < n; ++i) {
      s.schedule_at(static_cast<double>(i % 97), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.executed_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatorScheduleFire)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FluidResourceChurn(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    sim::FluidResource link(s, {.capacity = 100.0, .per_job_cap = 1.0});
    std::size_t done = 0;
    for (std::size_t i = 0; i < jobs; ++i) {
      s.schedule_at(static_cast<double>(i) * 0.01, [&link, &done] {
        link.submit(1.0, [&done](sim::Time) { ++done; });
      });
    }
    s.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_FluidResourceChurn)->Arg(100)->Arg(1000);

void BM_LayoutMapExtent(benchmark::State& state) {
  pfs::Layout layout({.strip_size = 64_KiB, .server_count = 8, .first_server = 3});
  Rng rng(5);
  for (auto _ : state) {
    const Bytes off = rng.uniform_index(1_GiB);
    auto segs = layout.map_extent(off, 16_MiB);
    benchmark::DoNotOptimize(segs.data());
  }
}
BENCHMARK(BM_LayoutMapExtent);

void BM_PfsReadPath(benchmark::State& state) {
  const auto size = static_cast<Bytes>(state.range(0));
  pfs::FileSystem fs(4, 64_KiB);
  pfs::Client client(fs);
  std::vector<std::uint8_t> data(size, 0x5A);
  auto meta = pfs::write_file(client, "/bench", data);
  const std::uint64_t ledger0 = data_bytes_copied();
  for (auto _ : state) {
    auto out = client.read_all(meta.value());
    benchmark::DoNotOptimize(out.value().data());
  }
  g_copy_bytes += data_bytes_copied() - ledger0;
  g_copy_reqs += static_cast<std::uint64_t>(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_PfsReadPath)->Arg(1 << 20)->Arg(16 << 20);

void BM_CheckpointRoundTrip(benchmark::State& state) {
  Checkpoint ck;
  ck.set_string("kernel", "gaussian2d");
  ck.set_i64("consumed", 1234567);
  ck.set_f64("sum", 3.14);
  ck.set_blob("rows", std::vector<std::uint8_t>(static_cast<std::size_t>(state.range(0)), 7));
  for (auto _ : state) {
    auto bytes = ck.encode();
    auto back = Checkpoint::decode(bytes);
    benchmark::DoNotOptimize(back.is_ok());
  }
}
BENCHMARK(BM_CheckpointRoundTrip)->Arg(1024)->Arg(65536);

void BM_RingThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Ring<int> ring(1024);
    for (int i = 0; i < 1000; ++i) ring.try_send(i);
    int sum = 0;
    std::optional<int> v;
    while (ring.poll(v) == QueuePoll::kItem) sum += *v;
    benchmark::DoNotOptimize(sum);
    const RingStats rs = ring.stats();
    g_ring_cas_retries += rs.push_cas_retries + rs.pop_cas_retries;
    g_ring_transfers += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RingThroughput);

void BM_RingSpscThroughput(benchmark::State& state) {
  // Same shape as BM_RingThroughput on the SPSC specialization: the delta
  // between the two rows is what removing the CAS claim loop buys a queue
  // that really has one producer and one consumer (the scale harness's
  // completer queues).
  for (auto _ : state) {
    SpscRing<int> ring(1024);
    for (int i = 0; i < 1000; ++i) ring.try_send(i);
    int sum = 0;
    std::optional<int> v;
    while (ring.poll(v) == QueuePoll::kItem) sum += *v;
    benchmark::DoNotOptimize(sum);
    const RingStats rs = ring.stats();
    g_ring_cas_retries += rs.push_cas_retries + rs.pop_cas_retries;  // 0 by construction
    g_ring_transfers += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RingSpscThroughput);

void BM_RingMpmcContended(benchmark::State& state) {
  // The contended path the storage-server dispatch ring actually runs:
  // multiple producers CASing the tail against multiple draining
  // consumers. CAS retries observed here feed cas_retries_per_req.
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 10'000;
  for (auto _ : state) {
    Ring<int> ring(256);
    std::atomic<long> sum{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        while (auto v = ring.receive()) sum.fetch_add(*v, std::memory_order_relaxed);
      });
    }
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) ring.send(i);
      });
    }
    for (int t = 0; t < kProducers; ++t) threads[static_cast<std::size_t>(kConsumers + t)].join();
    ring.close();
    for (int c = 0; c < kConsumers; ++c) threads[static_cast<std::size_t>(c)].join();
    benchmark::DoNotOptimize(sum.load());
    const RingStats rs = ring.stats();
    g_ring_cas_retries += rs.push_cas_retries + rs.pop_cas_retries;
    g_ring_transfers += kProducers * kPerProducer;
  }
  state.SetItemsProcessed(state.iterations() * kProducers * kPerProducer);
}
BENCHMARK(BM_RingMpmcContended);

void BM_SumKernelConsume(benchmark::State& state) {
  kernels::SumKernel k;
  std::vector<std::uint8_t> chunk(1_MiB, 0x3C);
  for (auto _ : state) {
    k.reset();
    k.consume(chunk);
    benchmark::DoNotOptimize(k.consumed());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_SumKernelConsume);

void BM_SumKernelConsumeMisaligned(benchmark::State& state) {
  // The staging path: a chunk starting one byte off item alignment cannot
  // be processed in place, so consume() pays the bounded scratch copy.
  // The delta against BM_SumKernelConsume is the in-place fast path's win.
  kernels::SumKernel k;
  std::vector<std::uint8_t> backing(1_MiB + 1, 0x3C);
  const std::span<const std::uint8_t> chunk(backing.data() + 1, 1_MiB);
  for (auto _ : state) {
    k.reset();
    k.consume(chunk);
    benchmark::DoNotOptimize(k.consumed());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_SumKernelConsumeMisaligned);

void BM_MinMaxKernelConsume(benchmark::State& state) {
  // Arg 0: random values, where new extremes are rare and almost every
  // 64-item block passes the vector check untouched. Arg 1: strictly
  // descending values, the worst case — every block moves the minimum and
  // pays the check plus the ordered updates.
  const bool descending = state.range(0) == 1;
  kernels::MinMaxKernel k;
  std::vector<double> values(1_MiB / sizeof(double));
  Rng rng(11);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = descending ? -static_cast<double>(i) : rng.uniform(-1e6, 1e6);
  }
  std::vector<std::uint8_t> chunk(values.size() * sizeof(double));
  std::memcpy(chunk.data(), values.data(), chunk.size());
  for (auto _ : state) {
    k.reset();
    k.consume(chunk);
    benchmark::DoNotOptimize(k.consumed());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_MinMaxKernelConsume)->Arg(0)->Arg(1);

void BM_GaussianKernelConsume(benchmark::State& state) {
  kernels::Gaussian2dKernel k(1024);
  std::vector<std::uint8_t> chunk(1_MiB, 0x3C);
  for (auto _ : state) {
    k.reset();
    k.consume(chunk);
    benchmark::DoNotOptimize(k.consumed());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_GaussianKernelConsume);

void BM_PipelineConsume(benchmark::State& state) {
  const auto reg = kernels::Registry::with_builtins();
  auto pipe = reg.create("pipe:ops=scale;a=2;b=1|sum");
  std::vector<std::uint8_t> chunk(1_MiB, 0x3C);
  for (auto _ : state) {
    pipe.value()->reset();
    pipe.value()->consume(chunk);
    benchmark::DoNotOptimize(pipe.value()->consumed());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_PipelineConsume);

void BM_TopKConsume(benchmark::State& state) {
  kernels::TopKKernel k(static_cast<std::size_t>(state.range(0)));
  std::vector<double> values(128 * 1024);
  Rng rng(7);
  for (auto& v : values) v = rng.uniform();
  std::vector<std::uint8_t> chunk(values.size() * sizeof(double));
  std::memcpy(chunk.data(), values.data(), chunk.size());
  for (auto _ : state) {
    k.reset();
    k.consume(chunk);
    benchmark::DoNotOptimize(k.consumed());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_TopKConsume)->Arg(10)->Arg(1000);

/// Console reporter that also captures per-benchmark timings so main() can
/// emit BENCH_micro_core.json alongside the usual table.
class TelemetryReporter : public benchmark::ConsoleReporter {
 public:
  struct Timing {
    std::string name;
    double ns_per_iter = 0.0;
    double iterations = 0.0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Timing t;
      t.name = run.benchmark_name();
      t.iterations = static_cast<double>(run.iterations);
      if (run.iterations > 0) {
        t.ns_per_iter = run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
      }
      timings.push_back(std::move(t));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Timing> timings;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  TelemetryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  dosas::bench::BenchJson out("micro_core");
  out.config("benchmarks", static_cast<double>(reporter.timings.size()));
  std::vector<double> all_ns;
  for (const auto& t : reporter.timings) {
    out.metric(t.name + ".ns_per_iter", t.ns_per_iter);
    all_ns.push_back(t.ns_per_iter);
  }
  // Cross-benchmark quantiles of per-iteration cost: coarse, but enough for
  // the regression check to notice a substrate-wide slowdown.
  out.latency_us(dosas::percentile(all_ns, 50) / 1e3,
                 dosas::percentile(all_ns, 95) / 1e3,
                 dosas::percentile(all_ns, 99) / 1e3);
  // Data-plane telemetry (dosas-bench-v1 additions): owning copies per
  // whole-file PFS read (the striped gather is the one copy left) and CAS
  // retries per ring transfer across the uncontended + contended runs.
  const auto copy_reqs = g_copy_reqs.load();
  const auto transfers = g_ring_transfers.load();
  out.metric("bytes_copied_per_req",
             copy_reqs > 0 ? static_cast<double>(g_copy_bytes.load()) /
                                 static_cast<double>(copy_reqs)
                           : 0.0);
  out.metric("cas_retries_per_req",
             transfers > 0 ? static_cast<double>(g_ring_cas_retries.load()) /
                                 static_cast<double>(transfers)
                           : 0.0);
  out.write();
  return 0;
}
