// Tests for dosas::client — the ASC's read_ex resolution paths (remote
// completion, demotion fallback, checkpoint resume, striped fan-out) and
// the MPI-IO facade.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "client/active_client.hpp"
#include "client/mpiio.hpp"
#include "core/cluster.hpp"
#include "kernels/gaussian2d.hpp"
#include "kernels/mean_stddev.hpp"
#include "kernels/minmax.hpp"
#include "kernels/sum.hpp"

namespace dosas::client {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::SchemeKind;

/// A cluster with `nodes` storage nodes and "/data" holding `count`
/// doubles valued i % 101.
struct Fixture {
  explicit Fixture(SchemeKind scheme, std::uint32_t nodes = 1, std::size_t count = 20'000,
                   Bytes strip = 64_KiB) {
    ClusterConfig cfg;
    cfg.scheme = scheme;
    cfg.storage_nodes = nodes;
    cfg.strip_size = strip;
    cluster = std::make_unique<Cluster>(cfg);
    auto m = pfs::write_doubles(cluster->pfs_client(), "/data", count,
                                [](std::size_t i) { return static_cast<double>(i % 101); });
    EXPECT_TRUE(m.is_ok());
    meta = m.value();
    expected_sum = 0;
    for (std::size_t i = 0; i < count; ++i) expected_sum += static_cast<double>(i % 101);
    this->count = count;
  }

  std::unique_ptr<Cluster> cluster;
  pfs::FileMeta meta;
  double expected_sum = 0;
  std::size_t count = 0;
};

// ---------------------------------------------------------------- read_ex paths

TEST(ActiveClient, RemoteCompletionPath) {
  Fixture fx(SchemeKind::kActive);  // all-active: storage node runs the kernel
  auto out = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  ASSERT_TRUE(out.is_ok());
  auto sum = kernels::SumResult::decode(out.value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, fx.count);
  EXPECT_NEAR(sum.value().sum, fx.expected_sum, 1e-6);

  const auto stats = fx.cluster->asc().stats();
  EXPECT_EQ(stats.completed_remote, 1u);
  EXPECT_EQ(stats.demoted, 0u);
  EXPECT_EQ(stats.local_kernel_runs, 0u);
  // Only the 16-byte result crossed the "network".
  EXPECT_EQ(stats.raw_bytes_read, 0u);
  EXPECT_EQ(stats.result_bytes_received, 16u);
}

TEST(ActiveClient, DemotionFallbackPath) {
  Fixture fx(SchemeKind::kTraditional);  // all-normal: every request demoted
  auto out = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  ASSERT_TRUE(out.is_ok());
  auto sum = kernels::SumResult::decode(out.value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, fx.count);
  EXPECT_NEAR(sum.value().sum, fx.expected_sum, 1e-6);

  const auto stats = fx.cluster->asc().stats();
  EXPECT_EQ(stats.completed_remote, 0u);
  EXPECT_EQ(stats.demoted, 1u);
  EXPECT_EQ(stats.local_kernel_runs, 1u);
  // The raw data crossed the network instead.
  EXPECT_EQ(stats.raw_bytes_read, fx.meta.size);
}

TEST(ActiveClient, ResultsIdenticalAcrossSchemes) {
  // The core guarantee: WHERE the kernel runs never changes WHAT it
  // computes.
  std::vector<std::vector<std::uint8_t>> results;
  for (SchemeKind scheme :
       {SchemeKind::kTraditional, SchemeKind::kActive, SchemeKind::kDosas}) {
    Fixture fx(scheme);
    auto out = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "meanstddev");
    ASSERT_TRUE(out.is_ok()) << core::scheme_name(scheme);
    results.push_back(out.value());
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(ActiveClient, SubExtentReadEx) {
  Fixture fx(SchemeKind::kActive);
  // Sum of items [100, 300).
  auto out = fx.cluster->asc().read_ex(fx.meta, 100 * sizeof(double), 200 * sizeof(double),
                                       "sum");
  ASSERT_TRUE(out.is_ok());
  auto sum = kernels::SumResult::decode(out.value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, 200u);
  double expect = 0;
  for (std::size_t i = 100; i < 300; ++i) expect += static_cast<double>(i % 101);
  EXPECT_NEAR(sum.value().sum, expect, 1e-9);
}

TEST(ActiveClient, ReadExClampsAtEof) {
  Fixture fx(SchemeKind::kActive, 1, 1000);
  auto out = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size * 10, "sum");
  ASSERT_TRUE(out.is_ok());
  auto sum = kernels::SumResult::decode(out.value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, 1000u);
}

TEST(ActiveClient, ReadExPastEofIsEmptyKernelResult) {
  Fixture fx(SchemeKind::kActive, 1, 1000);
  auto out = fx.cluster->asc().read_ex(fx.meta, fx.meta.size + 100, 4096, "sum");
  ASSERT_TRUE(out.is_ok());
  auto sum = kernels::SumResult::decode(out.value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, 0u);
}

TEST(ActiveClient, UnknownOperationFails) {
  Fixture fx(SchemeKind::kActive);
  auto out = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "fft");
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), ErrorCode::kNotFound);
}

TEST(ActiveClient, NormalReadPath) {
  Fixture fx(SchemeKind::kDosas);
  auto data = fx.cluster->asc().read(fx.meta, 0, 800);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value().size(), 800u);
  EXPECT_EQ(fx.cluster->asc().stats().raw_bytes_read, 800u);
}

TEST(ActiveClient, ReadRefCountsCarriedBytesNotHoles) {
  // 2 nodes, 64 KiB strips: strips 0 and 2 land on node 0, strip 1 on
  // node 1 stays a hole (node 1 never gets an object). A 192 KiB read_ref
  // zero-fills the hole but reads only 128 KiB.
  ClusterConfig cfg;
  cfg.scheme = SchemeKind::kDosas;
  cfg.storage_nodes = 2;
  cfg.strip_size = 64_KiB;
  cfg.network_rate = mb_per_sec(118.0);  // virtual link: counts charged bytes
  Cluster cluster(cfg);
  auto meta = cluster.pfs_client().create("/holey");
  ASSERT_TRUE(meta.is_ok());
  const std::vector<std::uint8_t> strip(64_KiB, 0x5A);
  ASSERT_TRUE(cluster.pfs_client().write(meta.value(), 0, strip).is_ok());
  auto written = cluster.pfs_client().write(meta.value(), 128_KiB, strip);
  ASSERT_TRUE(written.is_ok());
  ASSERT_EQ(written.value().size, 192_KiB);
  ASSERT_FALSE(cluster.fs().data_server(1).has_object(meta.value().handle));

  auto data = cluster.asc().read_ref(written.value(), 0, 192_KiB);
  ASSERT_TRUE(data.is_ok());
  ASSERT_EQ(data.value().size(), 192_KiB);
  EXPECT_EQ(data.value().span()[64_KiB], 0u);  // the hole reads as zeros
  EXPECT_EQ(cluster.asc().stats().raw_bytes_read, 128_KiB);
  EXPECT_EQ(cluster.asc().transport_stats().bytes_charged, 128_KiB);
}

// ---------------------------------------------------------------- striping

TEST(ActiveClient, StripedFanoutMergesSum) {
  Fixture fx(SchemeKind::kActive, 4, 100'000, 4_KiB);
  auto out = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  ASSERT_TRUE(out.is_ok());
  auto sum = kernels::SumResult::decode(out.value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, fx.count);
  EXPECT_NEAR(sum.value().sum, fx.expected_sum, 1e-5);

  const auto stats = fx.cluster->asc().stats();
  EXPECT_EQ(stats.striped_fanouts, 1u);
  EXPECT_EQ(stats.completed_remote, 4u);  // one partial per storage node
}

TEST(ActiveClient, StripedFanoutMinMaxMatchesDirect) {
  Fixture fx(SchemeKind::kActive, 3, 50'000, 8_KiB);
  auto out = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "minmax");
  ASSERT_TRUE(out.is_ok());
  auto mm = kernels::MinMaxResult::decode(out.value());
  ASSERT_TRUE(mm.is_ok());
  EXPECT_EQ(mm.value().count, fx.count);
  EXPECT_DOUBLE_EQ(mm.value().min, 0.0);
  EXPECT_DOUBLE_EQ(mm.value().max, 100.0);
}

TEST(ActiveClient, StripedMeanStddevMatchesWholeFileWithinTolerance) {
  Fixture fx(SchemeKind::kActive, 4, 80'000, 4_KiB);
  auto striped = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "meanstddev");
  ASSERT_TRUE(striped.is_ok());
  auto striped_r = kernels::MeanStddevResult::decode(striped.value());
  ASSERT_TRUE(striped_r.is_ok());

  // Reference: sequential local pass.
  auto raw = fx.cluster->pfs_client().read_all(fx.meta);
  ASSERT_TRUE(raw.is_ok());
  kernels::MeanStddevKernel ref;
  ref.reset();
  ref.consume(raw.value());
  auto ref_r = kernels::MeanStddevResult::decode(ref.finalize());
  ASSERT_TRUE(ref_r.is_ok());

  EXPECT_EQ(striped_r.value().count, ref_r.value().count);
  EXPECT_NEAR(striped_r.value().mean, ref_r.value().mean, 1e-9);
  EXPECT_NEAR(striped_r.value().m2, ref_r.value().m2, 1e-4);
}

TEST(ActiveClient, NonMergeableStripedKernelFallsBackLocally) {
  // Gaussian over a striped file needs logical byte order: the ASC must
  // use the local (TS) path — and still produce exactly the right answer.
  Fixture fx(SchemeKind::kActive, 4, 64 * 64, 2_KiB);  // 64x64 grid
  auto out = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "gaussian2d:width=64");
  ASSERT_TRUE(out.is_ok());
  auto digest = kernels::GaussianDigest::decode(out.value());
  ASSERT_TRUE(digest.is_ok());
  EXPECT_EQ(digest.value().rows, 62u);

  const auto stats = fx.cluster->asc().stats();
  EXPECT_EQ(stats.striped_fanouts, 0u);
  EXPECT_EQ(stats.local_kernel_runs, 1u);

  // Cross-check against the reference filter.
  auto raw = fx.cluster->pfs_client().read_all(fx.meta);
  ASSERT_TRUE(raw.is_ok());
  std::vector<double> grid(64 * 64);
  std::memcpy(grid.data(), raw.value().data(), raw.value().size());
  const auto expect = kernels::Gaussian2dKernel::filter_reference(grid, 64);
  double esum = std::accumulate(expect.begin(), expect.end(), 0.0);
  EXPECT_NEAR(digest.value().sum, esum, 1e-6);
}

TEST(ActiveClient, StripedDemotionStillMerges) {
  // TS scheme + striped file: every per-server partial is rejected and
  // computed locally from that server's bytes, then merged.
  Fixture fx(SchemeKind::kTraditional, 4, 100'000, 4_KiB);
  auto out = fx.cluster->asc().read_ex(fx.meta, 0, fx.meta.size, "sum");
  ASSERT_TRUE(out.is_ok());
  auto sum = kernels::SumResult::decode(out.value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, fx.count);
  EXPECT_NEAR(sum.value().sum, fx.expected_sum, 1e-5);
  EXPECT_EQ(fx.cluster->asc().stats().demoted, 4u);
}

// ---------------------------------------------------------------- mpiio facade

TEST(MpiIo, OpenReadSeek) {
  Fixture fx(SchemeKind::kDosas, 1, 1000);
  mpiio::File fh;
  ASSERT_TRUE(mpiio::file_open(fx.cluster->asc(), "/data", fh).is_ok());
  EXPECT_TRUE(fh.valid());

  std::vector<std::uint8_t> buf;
  ASSERT_TRUE(mpiio::file_read(fh, buf, 10, mpiio::kDouble).is_ok());
  EXPECT_EQ(buf.size(), 80u);
  double v0;
  std::memcpy(&v0, buf.data(), sizeof(double));
  EXPECT_DOUBLE_EQ(v0, 0.0);
  EXPECT_EQ(fh.position, 80u);

  ASSERT_TRUE(mpiio::file_seek(fh, 0).is_ok());
  EXPECT_EQ(fh.position, 0u);

  auto size = mpiio::file_size(fh);
  ASSERT_TRUE(size.is_ok());
  EXPECT_EQ(size.value(), 8000u);
}

TEST(MpiIo, OpenMissingFileFails) {
  Fixture fx(SchemeKind::kDosas, 1, 10);
  mpiio::File fh;
  EXPECT_FALSE(mpiio::file_open(fx.cluster->asc(), "/ghost", fh).is_ok());
  EXPECT_FALSE(fh.valid());
}

TEST(MpiIo, ReadExReturnsCompletedResult) {
  Fixture fx(SchemeKind::kDosas, 1, 5000);
  mpiio::File fh;
  ASSERT_TRUE(mpiio::file_open(fx.cluster->asc(), "/data", fh).is_ok());

  mpiio::ResultBuf result;
  ASSERT_TRUE(mpiio::file_read_ex(fh, &result, 5000, mpiio::kDouble, "sum").is_ok());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.offset, fh.position);
  auto sum = kernels::SumResult::decode(result.buf);
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, 5000u);
}

TEST(MpiIo, ReadExAdvancesPointerSequentially) {
  Fixture fx(SchemeKind::kDosas, 1, 1000);
  mpiio::File fh;
  ASSERT_TRUE(mpiio::file_open(fx.cluster->asc(), "/data", fh).is_ok());

  mpiio::ResultBuf r1, r2;
  ASSERT_TRUE(mpiio::file_read_ex(fh, &r1, 400, mpiio::kDouble, "sum").is_ok());
  ASSERT_TRUE(mpiio::file_read_ex(fh, &r2, 600, mpiio::kDouble, "sum").is_ok());
  EXPECT_EQ(fh.position, 8000u);

  auto s1 = kernels::SumResult::decode(r1.buf);
  auto s2 = kernels::SumResult::decode(r2.buf);
  ASSERT_TRUE(s1.is_ok());
  ASSERT_TRUE(s2.is_ok());
  EXPECT_EQ(s1.value().count + s2.value().count, 1000u);
  EXPECT_NEAR(s1.value().sum + s2.value().sum, fx.expected_sum, 1e-8);
}

TEST(MpiIo, ReadExNullArgumentsRejected) {
  Fixture fx(SchemeKind::kDosas, 1, 10);
  mpiio::File fh;
  ASSERT_TRUE(mpiio::file_open(fx.cluster->asc(), "/data", fh).is_ok());
  EXPECT_FALSE(mpiio::file_read_ex(fh, nullptr, 1, 8, "sum").is_ok());
  mpiio::ResultBuf r;
  EXPECT_FALSE(mpiio::file_read_ex(fh, &r, 1, 8, nullptr).is_ok());
}

TEST(MpiIo, OperationsOnClosedFileRejected) {
  mpiio::File fh;
  std::vector<std::uint8_t> buf;
  EXPECT_FALSE(mpiio::file_read(fh, buf, 1, 8).is_ok());
  mpiio::ResultBuf r;
  EXPECT_FALSE(mpiio::file_read_ex(fh, &r, 1, 8, "sum").is_ok());
  EXPECT_FALSE(mpiio::file_seek(fh, 0).is_ok());
  EXPECT_FALSE(mpiio::file_size(fh).is_ok());
}

TEST(MpiIo, ShortReadAtEof) {
  Fixture fx(SchemeKind::kDosas, 1, 100);
  mpiio::File fh;
  ASSERT_TRUE(mpiio::file_open(fx.cluster->asc(), "/data", fh).is_ok());
  ASSERT_TRUE(mpiio::file_seek(fh, 90 * sizeof(double)).is_ok());
  std::vector<std::uint8_t> buf;
  ASSERT_TRUE(mpiio::file_read(fh, buf, 50, mpiio::kDouble).is_ok());
  EXPECT_EQ(buf.size(), 10u * sizeof(double));
}

}  // namespace
}  // namespace dosas::client
