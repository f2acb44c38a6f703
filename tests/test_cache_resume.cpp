// Tests for the two server-side extensions: the active-result cache
// (version-validated, LRU) and cooperative resumption (interrupted kernels
// resubmitted with their checkpoints).
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <thread>

#include "common/clock.hpp"
#include "core/cluster.hpp"
#include "fault/fault.hpp"
#include "kernels/gaussian2d.hpp"
#include "kernels/histogram.hpp"
#include "kernels/sum.hpp"
#include "rpc/inprocess.hpp"
#include "server/storage_server.hpp"

namespace dosas::core {
namespace {

// ---------------------------------------------------------------- result cache

struct CacheFixture {
  explicit CacheFixture(std::size_t cache_entries, std::size_t count = 20'000) {
    ClusterConfig cfg;
    cfg.scheme = SchemeKind::kActive;  // always offload: exercise the cache
    cfg.result_cache_entries = cache_entries;
    cluster = std::make_unique<Cluster>(cfg);
    auto m = pfs::write_doubles(cluster->pfs_client(), "/data", count,
                                [](std::size_t i) { return static_cast<double>(i % 11); });
    EXPECT_TRUE(m.is_ok());
    meta = m.value();
  }

  std::unique_ptr<Cluster> cluster;
  pfs::FileMeta meta;
};

TEST(ResultCache, RepeatedReadHitsCache) {
  CacheFixture fx(8);
  auto first = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  auto second = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value(), second.value());

  const auto ss = fx.cluster->storage_server(0).stats();
  EXPECT_EQ(ss.cache_hits, 1u);
  EXPECT_EQ(ss.cache_misses, 1u);
  // The kernel streamed the data exactly once.
  EXPECT_EQ(ss.active_bytes_processed, fx.meta.size);
}

TEST(ResultCache, DifferentExtentOrOperationMisses) {
  CacheFixture fx(8);
  (void)fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  (void)fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size / 2, "sum");   // other extent
  (void)fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "minmax");    // other op
  const auto ss = fx.cluster->storage_server(0).stats();
  EXPECT_EQ(ss.cache_hits, 0u);
  EXPECT_EQ(ss.cache_misses, 3u);
}

TEST(ResultCache, WriteInvalidates) {
  CacheFixture fx(8);
  auto first = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  ASSERT_TRUE(first.is_ok());

  // Mutate one double in place: the version bumps, so the next read_ex
  // must recompute — and see the new value.
  const double newval = 1e6;
  auto updated = fx.cluster->pfs_client().write(
      fx.meta, 0, std::span(reinterpret_cast<const std::uint8_t*>(&newval), sizeof(newval)));
  ASSERT_TRUE(updated.is_ok());

  auto second = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  ASSERT_TRUE(second.is_ok());
  EXPECT_NE(first.value(), second.value());

  auto s1 = kernels::SumResult::decode(first.value());
  auto s2 = kernels::SumResult::decode(second.value());
  ASSERT_TRUE(s1.is_ok());
  ASSERT_TRUE(s2.is_ok());
  EXPECT_NEAR(s2.value().sum - s1.value().sum, 1e6 - 0.0, 1e-6);  // item 0 was 0.0
  EXPECT_EQ(fx.cluster->storage_server(0).stats().cache_hits, 0u);
}

TEST(ResultCache, LruEvictsOldest) {
  CacheFixture fx(2);  // tiny cache
  // Three distinct extents fill and overflow the 2-entry cache.
  (void)fx.cluster->asc().read_ex(fx.meta, 0, 8000, "sum");
  (void)fx.cluster->asc().read_ex(fx.meta, 8000, 8000, "sum");
  (void)fx.cluster->asc().read_ex(fx.meta, 16000, 8000, "sum");  // evicts extent 0
  (void)fx.cluster->asc().read_ex(fx.meta, 8000, 8000, "sum");   // hit
  (void)fx.cluster->asc().read_ex(fx.meta, 0, 8000, "sum");      // miss (evicted)
  const auto ss = fx.cluster->storage_server(0).stats();
  EXPECT_EQ(ss.cache_hits, 1u);
  EXPECT_EQ(ss.cache_misses, 4u);
}

TEST(ResultCache, DisabledByDefault) {
  CacheFixture fx(0);
  (void)fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  (void)fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  const auto ss = fx.cluster->storage_server(0).stats();
  EXPECT_EQ(ss.cache_hits, 0u);
  EXPECT_EQ(ss.cache_misses, 0u);
  EXPECT_EQ(ss.active_bytes_processed, 2 * fx.meta.size);
}

TEST(ResultCache, BatchPathUsesCacheToo) {
  CacheFixture fx(8);
  std::vector<client::ActiveClient::BatchItem> items;
  items.push_back({fx.meta, 0, fx.meta.size, "sum"});
  (void)fx.cluster->asc().read_ex_batch(items);
  (void)fx.cluster->asc().read_ex_batch(items);
  EXPECT_EQ(fx.cluster->storage_server(0).stats().cache_hits, 1u);
}

TEST(ResultCache, HitServesSharedViewNotAnExtentCopy) {
  CacheFixture fx(8);
  auto first = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  ASSERT_TRUE(first.is_ok());

  const std::uint64_t before = data_bytes_copied();
  auto second = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  ASSERT_TRUE(second.is_ok());
  const std::uint64_t delta = data_bytes_copied() - before;

  EXPECT_EQ(fx.cluster->storage_server(0).stats().cache_hits, 1u);
  // The hit shares the cached entry's slab with the response — the only
  // owning copy in the whole round trip is the client materializing the
  // h(d)-sized result vector, never anything extent-sized.
  EXPECT_LE(delta, first.value().size());
  EXPECT_LT(delta, fx.meta.size);
}

TEST(ResultCache, CountsEvictionsAndInvalidations) {
  CacheFixture fx(2);  // tiny cache over one object
  (void)fx.cluster->asc().read_ex(fx.meta, 0, 8000, "sum");
  (void)fx.cluster->asc().read_ex(fx.meta, 8000, 8000, "sum");
  (void)fx.cluster->asc().read_ex(fx.meta, 16000, 8000, "sum");  // displaces extent 0
  EXPECT_EQ(fx.cluster->storage_server(0).stats().cache_evictions, 1u);
  EXPECT_EQ(fx.cluster->storage_server(0).stats().cache_invalidations, 0u);

  // A write bumps the object version; the surviving entries are stale and
  // the next lookup drops one (counted) instead of serving it.
  const double v = 42.0;
  auto w = fx.cluster->pfs_client().write(
      fx.meta, 0, std::span(reinterpret_cast<const std::uint8_t*>(&v), sizeof(v)));
  ASSERT_TRUE(w.is_ok());
  (void)fx.cluster->asc().read_ex(fx.meta, 8000, 8000, "sum");
  EXPECT_EQ(fx.cluster->storage_server(0).stats().cache_invalidations, 1u);
}

TEST(ResultCache, WriteRaceNeverServesStaleResult) {
  // Interleave BufferRef writes (the zero-copy kWrite path) with repeat
  // reads of the same extent: every write must invalidate, and every read
  // must see the freshly written item.
  CacheFixture fx(8);
  auto prev = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  ASSERT_TRUE(prev.is_ok());
  double prev_sum = kernels::SumResult::decode(prev.value()).value().sum;

  for (int k = 1; k <= 4; ++k) {
    const double v = static_cast<double>(k) * 1000.0;
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    auto w = fx.cluster->asc().write(fx.meta, 0,
                                     BufferRef::adopt(std::vector<std::uint8_t>(p, p + sizeof(v))));
    ASSERT_TRUE(w.is_ok());
    auto r = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
    ASSERT_TRUE(r.is_ok());
    const double sum = kernels::SumResult::decode(r.value()).value().sum;
    EXPECT_NEAR(sum - prev_sum, 1000.0, 1e-6);  // item 0 moved by exactly +1000
    prev_sum = sum;
  }
  const auto ss = fx.cluster->storage_server(0).stats();
  EXPECT_EQ(ss.cache_hits, 0u);
  EXPECT_EQ(ss.cache_invalidations, 4u);
}

TEST(ResultCache, ConcurrentWritesAndCachedReadsStayCoherent) {
  // Thread-safety smoke for the write path racing cache lookups: a writer
  // hammers item 0 while readers alternate between two extents. Nothing to
  // assert beyond success — tsan is the judge of the interleavings.
  CacheFixture fx(4, 4096);
  std::thread writer([&] {
    for (int k = 1; k <= 200; ++k) {
      const double v = static_cast<double>(k);
      const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
      auto w = fx.cluster->asc().write(
          fx.meta, 0, BufferRef::adopt(std::vector<std::uint8_t>(p, p + sizeof(v))));
      ASSERT_TRUE(w.is_ok());
    }
  });
  for (int i = 0; i < 50; ++i) {
    auto r = fx.cluster->asc().read_ex(fx.meta, (i % 2) * 8000, 8000, "sum");
    ASSERT_TRUE(r.is_ok());
  }
  writer.join();
}

// ---------------------------------------------------------------- object versions

TEST(ObjectVersion, BumpsOnWriteAndRemove) {
  pfs::DataServer ds(0);
  EXPECT_EQ(ds.object_version(1), 0u);
  ASSERT_TRUE(ds.write_object(1, 0, std::vector<std::uint8_t>(10, 1)).is_ok());
  EXPECT_EQ(ds.object_version(1), 1u);
  ASSERT_TRUE(ds.write_object(1, 5, std::vector<std::uint8_t>(3, 2)).is_ok());
  EXPECT_EQ(ds.object_version(1), 2u);
  ASSERT_TRUE(ds.remove_object(1).is_ok());
  EXPECT_EQ(ds.object_version(1), 3u);
  ASSERT_TRUE(ds.remove_object(1).is_ok());  // no object: no bump
  EXPECT_EQ(ds.object_version(1), 3u);
}

// ---------------------------------------------------------------- cooperative resumption

/// One active RPC to `server` through a bare in-process transport, blocking
/// until its reply.
server::ActiveIoResponse serve(server::StorageServer& server, server::ActiveIoRequest request) {
  rpc::InProcessTransport transport({&server});
  rpc::Envelope env;
  env.kind = rpc::OpKind::kActiveIo;
  env.active = std::move(request);
  return transport.submit(std::move(env)).wait().active;
}

TEST(Resumption, ServerContinuesFromCheckpoint) {
  // Drive the server API directly: interrupt a kernel by hand, then
  // resubmit with the checkpoint and verify the result matches an
  // uninterrupted run.
  pfs::FileSystem fs(1, 64_KiB);
  pfs::Client client(fs);
  constexpr std::size_t kWidth = 128, kRows = 512;
  auto meta = pfs::write_doubles(client, "/g", kWidth * kRows,
                                 [](std::size_t i) { return static_cast<double>(i % 17); });
  ASSERT_TRUE(meta.is_ok());

  server::ContentionEstimator::Config ce;
  ce.optimizer = "all-active";
  server::StorageServer server(fs, 0, kernels::Registry::with_builtins(), ce,
                               server::RateTable::paper_rates());

  // Build the "interrupted" state with a local kernel over a prefix.
  const Bytes cut = meta.value().size / 3 + 5;
  auto prefix = fs.data_server(0).read_object(meta.value().handle, 0, cut);
  ASSERT_TRUE(prefix.is_ok());
  kernels::Gaussian2dKernel partial(kWidth);
  partial.consume(prefix.value());

  server::ActiveIoRequest resume;
  resume.handle = meta.value().handle;
  resume.object_offset = 0;
  resume.length = meta.value().size;
  resume.operation = "gaussian2d:width=128";
  resume.resume_checkpoint = partial.checkpoint().encode();
  resume.resume_from = cut;
  auto resp = serve(server, resume);
  ASSERT_EQ(resp.outcome, server::ActiveOutcome::kCompleted) << resp.status.to_string();

  // Reference: one uninterrupted pass.
  auto all = fs.data_server(0).read_object(meta.value().handle, 0, meta.value().size);
  ASSERT_TRUE(all.is_ok());
  kernels::Gaussian2dKernel ref(kWidth);
  ref.consume(all.value());
  EXPECT_EQ(resp.result, ref.finalize());
}

TEST(Resumption, BadCheckpointFailsCleanly) {
  pfs::FileSystem fs(1, 64_KiB);
  pfs::Client client(fs);
  auto meta = pfs::write_doubles(client, "/d", 1000,
                                 [](std::size_t i) { return static_cast<double>(i); });
  ASSERT_TRUE(meta.is_ok());
  server::ContentionEstimator::Config ce;
  ce.optimizer = "all-active";
  server::StorageServer server(fs, 0, kernels::Registry::with_builtins(), ce,
                               server::RateTable::paper_rates());

  server::ActiveIoRequest resume;
  resume.handle = meta.value().handle;
  resume.length = meta.value().size;
  resume.operation = "sum";
  resume.resume_checkpoint = {1, 2, 3, 4};  // garbage
  resume.resume_from = 0;
  auto resp = serve(server, resume);
  EXPECT_EQ(resp.outcome, server::ActiveOutcome::kFailed);
}

/// A well-formed, checksum-valid checkpoint that does not fit the request
/// resuming from it: `from_op`'s kernel consumes a five-row prefix, its
/// checkpoint is edited, and `op` resumes from it `skew` bytes past the
/// prefix.
struct BadCheckpoint {
  const char* name;
  const char* op;
  const char* from_op;
  std::function<void(Checkpoint&)> edit = nullptr;
  Bytes skew = 0;
};

void PrintTo(const BadCheckpoint& bad, std::ostream* os) { *os << bad.name; }

class ResumptionRefused : public ::testing::TestWithParam<BadCheckpoint> {};

TEST_P(ResumptionRefused, CompletesFailedInvalidArgument) {
  const BadCheckpoint& bad = GetParam();
  pfs::FileSystem fs(1, 64_KiB);
  pfs::Client client(fs);
  constexpr std::size_t kWidth = 128;
  auto meta = pfs::write_doubles(client, "/g", kWidth * 64, [](std::size_t i) {
    return static_cast<double>(i % 17) / 17.0;
  });
  ASSERT_TRUE(meta.is_ok());
  server::ContentionEstimator::Config ce;
  ce.optimizer = "all-active";
  server::StorageServer server(fs, 0, kernels::Registry::with_builtins(), ce,
                               server::RateTable::paper_rates());

  const Bytes cut = 5 * kWidth * sizeof(double);
  auto prefix = fs.data_server(0).read_object(meta.value().handle, 0, cut);
  ASSERT_TRUE(prefix.is_ok());
  auto partial = kernels::Registry::with_builtins().create(bad.from_op);
  ASSERT_TRUE(partial.is_ok());
  partial.value()->reset();
  partial.value()->consume(prefix.value());
  Checkpoint ck = partial.value()->checkpoint();
  if (bad.edit) bad.edit(ck);

  server::ActiveIoRequest resume;
  resume.handle = meta.value().handle;
  resume.length = meta.value().size;
  resume.operation = bad.op;
  resume.resume_checkpoint = ck.encode();
  resume.resume_from = cut + bad.skew;
  auto resp = serve(server, resume);
  EXPECT_EQ(resp.outcome, server::ActiveOutcome::kFailed);
  EXPECT_EQ(resp.status.code(), ErrorCode::kInvalidArgument) << resp.status.to_string();
}

const std::vector<std::uint8_t> kOneItem(sizeof(double), 0);

INSTANTIATE_TEST_SUITE_P(
    BadCheckpoints, ResumptionRefused,
    ::testing::Values(
        // A counts field with no bin in it: four bytes, as a zero u32 bin
        // count would be. An in-range item would then land in bin -1.
        BadCheckpoint{"histogram_zero_bins", "histogram:bins=16,lo=0,hi=1",
                      "histogram:bins=16,lo=0,hi=1",
                      [](Checkpoint& ck) { ck.set_blob("counts", std::vector<std::uint8_t>(4)); }},
        // Another operation's parameters are refused, never adopted.
        BadCheckpoint{"histogram_other_config", "histogram:bins=16,lo=0,hi=1",
                      "histogram:bins=3,lo=-100,hi=100"},
        BadCheckpoint{"thresholdcount_other_config", "thresholdcount:t=0.5",
                      "thresholdcount:t=0.9"},
        BadCheckpoint{"scale_other_config", "scale:a=2,b=0.5", "scale:a=3,b=-1"},
        BadCheckpoint{"reservoir_other_config", "reservoir:n=9,seed=3", "reservoir:n=9,seed=4"},
        BadCheckpoint{"topk_oversize_heap", "topk:k=2", "topk:k=2",
                      [](Checkpoint& ck) {
                        ck.set_blob("heap", std::vector<std::uint8_t>(5 * sizeof(double)));
                      }},
        // All-zero xoshiro words draw 0 forever: uniform_index would spin.
        BadCheckpoint{"reservoir_zero_state", "reservoir:n=9,seed=3", "reservoir:n=9,seed=3",
                      [](Checkpoint& ck) { ck.set_blob("rng", std::vector<std::uint8_t>(32)); }},
        // A sound checkpoint, but resume_from is not where it stopped.
        BadCheckpoint{"mismatched_resume_from", "sum", "sum", nullptr, sizeof(double)},
        // Previous rows one item long instead of one 128-wide row: the
        // next row would read past them.
        BadCheckpoint{"short_rows", "gaussian2d:width=128", "gaussian2d:width=128",
                      [](Checkpoint& ck) {
                        ck.set_blob("prev1", kOneItem);
                        ck.set_blob("prev2", kOneItem);
                      }}),
    [](const ::testing::TestParamInfo<BadCheckpoint>& info) { return info.param.name; });

TEST(Resumption, RefusedCheckpointRestartsTheClientCleanly) {
  // The server's "histogram" is built with other bins and range, so the
  // checkpoint its crashing node ships back is well-formed but does not fit
  // the client's kernel. The client refuses it, restarts the extent
  // locally and counts the restart; the result is the uninterrupted one.
  pfs::FileSystem fs(1, 64_KiB);
  pfs::Client client(fs);
  auto meta = pfs::write_doubles(client, "/h", 20'000, [](std::size_t i) {
    return static_cast<double>(i % 17) / 17.0;
  });
  ASSERT_TRUE(meta.is_ok());
  auto server_kernels = kernels::Registry::with_builtins();
  server_kernels.register_kernel(
      "histogram", [](const kernels::OperationSpec&) -> Result<std::unique_ptr<kernels::Kernel>> {
        return std::unique_ptr<kernels::Kernel>(
            std::make_unique<kernels::HistogramKernel>(3, -100.0, 100.0));
      });
  server::ContentionEstimator::Config ce;
  ce.optimizer = "all-active";
  server::StorageServer server(fs, 0, server_kernels, ce, server::RateTable::paper_rates());
  // The node goes down as it starts its first kernel, which comes back
  // interrupted with its checkpoint.
  server.set_fault_injector(
      std::make_shared<fault::FaultInjector>(fault::FaultSpec::parse("crash=0@1").value()));
  const auto registry = kernels::Registry::with_builtins();
  client::ActiveClient asc(client, registry, {&server});

  const std::string op = "histogram:bins=16,lo=0,hi=1";
  auto out = asc.read_ex(meta.value(), 0, meta.value().size, op);

  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  auto all = fs.data_server(0).read_object(meta.value().handle, 0, meta.value().size);
  ASSERT_TRUE(all.is_ok());
  auto ref = registry.create(op);
  ASSERT_TRUE(ref.is_ok());
  ref.value()->reset();
  ref.value()->consume(all.value());
  EXPECT_EQ(out.value(), ref.value()->finalize());
  EXPECT_EQ(asc.stats().resumed_local, 1u);
  EXPECT_EQ(asc.stats().checkpoint_corrupt_restarts, 1u);
}

TEST(Resumption, ClientResubmitPathProducesExactResults) {
  // DOSAS cluster under contention with resubmission enabled: whatever mix
  // of first-try / resubmitted / locally-finished outcomes occurs, results
  // must equal the sequential reference.
  ClusterConfig cfg;
  cfg.scheme = SchemeKind::kDosas;
  cfg.server_chunk_size = 16_KiB;
  cfg.client.resubmit_interrupted = true;
  auto cluster = std::make_unique<Cluster>(cfg);

  constexpr std::size_t kFiles = 8, kWidth = 256, kRows = 1024;
  for (std::size_t f = 0; f < kFiles; ++f) {
    auto meta = pfs::write_doubles(
        cluster->pfs_client(), "/g" + std::to_string(f), kWidth * kRows,
        [f](std::size_t i) { return static_cast<double>((i * (f + 2)) % 19); });
    ASSERT_TRUE(meta.is_ok());
  }

  std::vector<std::thread> threads;
  std::vector<std::vector<std::uint8_t>> results(kFiles);
  std::vector<Status> statuses(kFiles, Status::ok());
  for (std::size_t f = 0; f < kFiles; ++f) {
    threads.emplace_back([&, f] {
      auto meta = cluster->pfs_client().open("/g" + std::to_string(f));
      if (!meta.is_ok()) {
        statuses[f] = meta.status();
        return;
      }
      auto out =
          cluster->asc().read_ex(meta.value(), 0, meta.value().size, "gaussian2d:width=256");
      if (out.is_ok()) {
        results[f] = out.value();
      } else {
        statuses[f] = out.status();
      }
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(statuses[f].is_ok()) << f << ": " << statuses[f].to_string();
    auto meta = cluster->pfs_client().open("/g" + std::to_string(f));
    ASSERT_TRUE(meta.is_ok());
    auto raw = cluster->pfs_client().read_all(meta.value());
    ASSERT_TRUE(raw.is_ok());
    kernels::Gaussian2dKernel ref(kWidth);
    ref.consume(raw.value());
    EXPECT_EQ(results[f], ref.finalize()) << f;
  }
}

TEST(Resumption, ResubmitKeepsTheLinkLedgerBalanced) {
  // The resubmit path, pinned under a VirtualClock: one paced Gaussian is
  // admitted, three more arrive 1 ms later and the CE interrupts it; the
  // client offers the checkpoint back once and the newcomers are rejected.
  // Every byte the link charged must be a byte the client counted — the
  // first round's checkpoint included.
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  cfg.cores_per_node = 1;
  cfg.strip_size = 1_MiB;
  cfg.scheme = SchemeKind::kDosas;
  cfg.optimizer_override = "sortmin";
  cfg.server_chunk_size = 16_KiB;
  cfg.client_chunk_size = 16_KiB;
  cfg.server.pace_kernel_rates = true;
  cfg.client.pace_compute_rates = true;
  cfg.client.resubmit_interrupted = true;
  cfg.network_rate = mb_per_sec(118.0);
  cfg.network_mode = TokenBucket::Mode::kVirtual;
  Cluster cluster(cfg);

  constexpr std::size_t kWidth = 128;
  auto meta = pfs::write_doubles(cluster.pfs_client(), "/g", 1_MiB / sizeof(double),
                                 [](std::size_t i) { return static_cast<double>(i % 23); });
  ASSERT_TRUE(meta.is_ok());
  const std::string op = "gaussian2d:width=128";

  std::vector<client::ActiveClient::PendingReadEx> pending;
  pending.push_back(cluster.asc().read_ex_async(meta.value(), 0, meta.value().size, op));
  clock().sleep(0.001);
  for (int i = 0; i < 3; ++i) {
    pending.push_back(cluster.asc().read_ex_async(meta.value(), 0, meta.value().size, op));
  }
  std::vector<Result<std::vector<std::uint8_t>>> results;
  for (auto& p : pending) results.push_back(p.wait());

  const auto cs = cluster.asc().stats();
  EXPECT_GE(cs.resubmitted, 1u);
  EXPECT_EQ(cluster.asc().transport_stats().bytes_charged,
            cs.raw_bytes_read + cs.raw_bytes_written + cs.result_bytes_received);

  auto raw = cluster.pfs_client().read_all(meta.value());
  ASSERT_TRUE(raw.is_ok());
  kernels::Gaussian2dKernel ref(kWidth);
  ref.consume(raw.value());
  const auto expect = ref.finalize();
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].is_ok()) << i << ": " << results[i].status().to_string();
    EXPECT_EQ(results[i].value(), expect) << i;
  }
}

}  // namespace
}  // namespace dosas::core
