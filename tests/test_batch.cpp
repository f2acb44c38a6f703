// Tests for the batch/collective active-read path: one CE decision per
// node per batch, positional result alignment, mixed outcomes, and the
// churn comparison against sequential arrivals.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "client/mpiio.hpp"
#include "core/cluster.hpp"
#include "fault/fault.hpp"
#include "kernels/gaussian2d.hpp"
#include "kernels/sum.hpp"

namespace dosas::client {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::SchemeKind;

struct Fixture {
  explicit Fixture(SchemeKind scheme, std::size_t files, std::size_t count,
                   std::uint32_t nodes = 1,
                   std::shared_ptr<fault::FaultInjector> faults = nullptr) {
    ClusterConfig cfg;
    cfg.scheme = scheme;
    cfg.storage_nodes = nodes;
    cfg.server_chunk_size = 64_KiB;
    cfg.faults = std::move(faults);
    cluster = std::make_unique<Cluster>(cfg);
    for (std::size_t f = 0; f < files; ++f) {
      auto meta =
          pfs::write_doubles(cluster->pfs_client(), "/b" + std::to_string(f), count,
                             [f](std::size_t i) { return static_cast<double>((i + f) % 13); });
      EXPECT_TRUE(meta.is_ok());
      metas.push_back(meta.value());
    }
  }

  double expected_sum(std::size_t f, std::size_t count) const {
    double s = 0;
    for (std::size_t i = 0; i < count; ++i) s += static_cast<double>((i + f) % 13);
    return s;
  }

  std::unique_ptr<Cluster> cluster;
  std::vector<pfs::FileMeta> metas;
};

TEST(BatchReadEx, AllSumsCorrectAndAligned) {
  constexpr std::size_t kFiles = 6, kCount = 20'000;
  Fixture fx(SchemeKind::kDosas, kFiles, kCount);

  std::vector<ActiveClient::BatchItem> items;
  for (std::size_t f = 0; f < kFiles; ++f) {
    items.push_back({fx.metas[f], 0, fx.metas[f].size, "sum"});
  }
  auto results = fx.cluster->asc().read_ex_batch(items);
  ASSERT_EQ(results.size(), kFiles);
  for (std::size_t f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(results[f].is_ok()) << f;
    auto sum = kernels::SumResult::decode(results[f].value());
    ASSERT_TRUE(sum.is_ok());
    EXPECT_EQ(sum.value().count, kCount);
    EXPECT_NEAR(sum.value().sum, fx.expected_sum(f, kCount), 1e-6) << f;
  }
}

TEST(BatchReadEx, SingleCeDecisionPerNode) {
  // 6 requests in a batch against one node: the CE must decide exactly
  // once (versus 6 times for sequential arrivals).
  constexpr std::size_t kFiles = 6;
  Fixture fx(SchemeKind::kDosas, kFiles, 10'000);
  const auto before = fx.cluster->storage_server(0).estimator().decisions();

  std::vector<ActiveClient::BatchItem> items;
  for (std::size_t f = 0; f < kFiles; ++f) {
    items.push_back({fx.metas[f], 0, fx.metas[f].size, "sum"});
  }
  (void)fx.cluster->asc().read_ex_batch(items);
  EXPECT_EQ(fx.cluster->storage_server(0).estimator().decisions(), before + 1);
}

TEST(BatchReadEx, GaussianBatchDemotesWithoutChurn) {
  // 8 expensive Gaussians in one batch: the single decision demotes most
  // of them at arrival — NO kernel should be admitted and then
  // interrupted (that is the churn the batch API exists to avoid).
  constexpr std::size_t kFiles = 8;
  constexpr std::size_t kCount = 64 * 2048;  // 1 MiB each
  Fixture fx(SchemeKind::kDosas, kFiles, kCount);

  std::vector<ActiveClient::BatchItem> items;
  for (std::size_t f = 0; f < kFiles; ++f) {
    items.push_back({fx.metas[f], 0, fx.metas[f].size, "gaussian2d:width=64"});
  }
  auto results = fx.cluster->asc().read_ex_batch(items);
  for (std::size_t f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(results[f].is_ok()) << f;
  }
  const auto ss = fx.cluster->storage_server(0).stats();
  EXPECT_EQ(ss.active_interrupted, 0u) << "batch admission must not churn";
  EXPECT_GT(ss.active_rejected, 0u) << "an 8-deep Gaussian batch must demote";

  // Results still match the sequential reference.
  for (std::size_t f = 0; f < kFiles; ++f) {
    auto raw = fx.cluster->pfs_client().read_all(fx.metas[f]);
    ASSERT_TRUE(raw.is_ok());
    kernels::Gaussian2dKernel ref(64);
    ref.consume(raw.value());
    EXPECT_EQ(results[f].value(), ref.finalize()) << f;
  }
}

TEST(BatchReadEx, MixedValidAndInvalidItems) {
  Fixture fx(SchemeKind::kDosas, 2, 5'000);
  std::vector<ActiveClient::BatchItem> items;
  items.push_back({fx.metas[0], 0, fx.metas[0].size, "sum"});
  items.push_back({fx.metas[1], 0, fx.metas[1].size, "fft"});  // unknown kernel
  auto results = fx.cluster->asc().read_ex_batch(items);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].is_ok());
  ASSERT_FALSE(results[1].is_ok());
  EXPECT_EQ(results[1].status().code(), ErrorCode::kNotFound);
}

TEST(BatchReadEx, EmptyExtentYieldsEmptyKernelResult) {
  Fixture fx(SchemeKind::kDosas, 1, 1'000);
  std::vector<ActiveClient::BatchItem> items;
  items.push_back({fx.metas[0], fx.metas[0].size + 10, 100, "sum"});  // past EOF
  auto results = fx.cluster->asc().read_ex_batch(items);
  ASSERT_TRUE(results[0].is_ok());
  auto sum = kernels::SumResult::decode(results[0].value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, 0u);
}

TEST(BatchReadEx, StripedItemsFallBackToIndividualPath) {
  Fixture fx(SchemeKind::kActive, 1, 50'000, /*nodes=*/4);
  std::vector<ActiveClient::BatchItem> items;
  items.push_back({fx.metas[0], 0, fx.metas[0].size, "sum"});
  auto results = fx.cluster->asc().read_ex_batch(items);
  ASSERT_TRUE(results[0].is_ok());
  auto sum = kernels::SumResult::decode(results[0].value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, 50'000u);
  EXPECT_EQ(fx.cluster->asc().stats().striped_fanouts, 1u);
}

TEST(BatchReadEx, CrashedNodeRefusesEveryItemAndClientFinishesLocally) {
  // A batch sent to a crashed node is refused one request at a time, as
  // single submissions are: the injector and the server each count one
  // crash rejection per item, and every item finishes by local fallback.
  constexpr std::size_t kFiles = 3, kCount = 10'000;
  Fixture fx(SchemeKind::kActive, kFiles, kCount, /*nodes=*/1,
             std::make_shared<fault::FaultInjector>(fault::FaultSpec{}));
  fx.cluster->fault_injector()->crash_node(0);

  std::vector<ActiveClient::BatchItem> items;
  for (std::size_t f = 0; f < kFiles; ++f) {
    items.push_back({fx.metas[f], 0, fx.metas[f].size, "sum"});
  }
  auto results = fx.cluster->asc().read_ex_batch(items);
  ASSERT_EQ(results.size(), kFiles);
  for (std::size_t f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(results[f].is_ok()) << f << ": " << results[f].status().to_string();
    auto sum = kernels::SumResult::decode(results[f].value());
    ASSERT_TRUE(sum.is_ok());
    EXPECT_EQ(sum.value().count, kCount);
    EXPECT_NEAR(sum.value().sum, fx.expected_sum(f, kCount), 1e-6) << f;
  }
  EXPECT_EQ(fx.cluster->asc().stats().failed_remote_retries, kFiles);
  EXPECT_EQ(fx.cluster->fault_injector()->stats().crash_rejections, kFiles);
  EXPECT_EQ(fx.cluster->storage_server(0).stats().crash_rejections, kFiles);
}

TEST(BatchReadEx, BatchAcrossMultipleNodesGroupsPerNode) {
  // Files pinned to two different nodes: one batch submission per node.
  ClusterConfig cfg;
  cfg.scheme = SchemeKind::kDosas;
  cfg.storage_nodes = 2;
  Cluster cluster(cfg);
  std::vector<pfs::FileMeta> metas;
  for (std::uint32_t n = 0; n < 2; ++n) {
    pfs::StripingParams striping;
    striping.strip_size = 64_KiB;
    striping.server_count = 1;
    striping.base_server = n;
    auto meta = cluster.pfs_client().create("/n" + std::to_string(n), striping);
    ASSERT_TRUE(meta.is_ok());
    std::vector<double> vals(5000, 2.0);
    auto written = cluster.pfs_client().write(
        meta.value(), 0,
        std::span(reinterpret_cast<const std::uint8_t*>(vals.data()), vals.size() * 8));
    ASSERT_TRUE(written.is_ok());
    metas.push_back(written.value());
  }

  std::vector<ActiveClient::BatchItem> items;
  items.push_back({metas[0], 0, metas[0].size, "sum"});
  items.push_back({metas[1], 0, metas[1].size, "sum"});
  auto results = cluster.asc().read_ex_batch(items);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(results[static_cast<std::size_t>(i)].is_ok());
    auto sum = kernels::SumResult::decode(results[static_cast<std::size_t>(i)].value());
    ASSERT_TRUE(sum.is_ok());
    EXPECT_DOUBLE_EQ(sum.value().sum, 10'000.0);
  }
  EXPECT_EQ(cluster.storage_server(0).estimator().decisions(), 1u);
  EXPECT_EQ(cluster.storage_server(1).estimator().decisions(), 1u);
}

// ---------------------------------------------------------------- mpiio collective

TEST(MpiIoCollective, ReadExAllAdvancesEveryPointer) {
  constexpr std::size_t kFiles = 4, kCount = 8'000;
  Fixture fx(SchemeKind::kDosas, kFiles, kCount);

  std::vector<mpiio::File> fhs(kFiles);
  std::vector<mpiio::File*> ptrs;
  for (std::size_t f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(mpiio::file_open(fx.cluster->asc(), "/b" + std::to_string(f), fhs[f]).is_ok());
    ptrs.push_back(&fhs[f]);
  }
  std::vector<mpiio::ResultBuf> results;
  ASSERT_TRUE(mpiio::file_read_ex_all(ptrs, results,
                                      std::vector<std::size_t>(kFiles, kCount), mpiio::kDouble,
                                      "sum")
                  .is_ok());
  ASSERT_EQ(results.size(), kFiles);
  for (std::size_t f = 0; f < kFiles; ++f) {
    EXPECT_TRUE(results[f].completed);
    EXPECT_EQ(fhs[f].position, kCount * sizeof(double));
    auto sum = kernels::SumResult::decode(results[f].buf);
    ASSERT_TRUE(sum.is_ok());
    EXPECT_NEAR(sum.value().sum, fx.expected_sum(f, kCount), 1e-6);
  }
}

TEST(MpiIoCollective, RejectsMismatchedSizes) {
  Fixture fx(SchemeKind::kDosas, 1, 100);
  mpiio::File fh;
  ASSERT_TRUE(mpiio::file_open(fx.cluster->asc(), "/b0", fh).is_ok());
  std::vector<mpiio::ResultBuf> results;
  EXPECT_FALSE(mpiio::file_read_ex_all({&fh}, results, {1, 2}, 8, "sum").is_ok());
}

TEST(MpiIoCollective, RejectsClosedFile) {
  Fixture fx(SchemeKind::kDosas, 1, 100);
  mpiio::File closed;
  std::vector<mpiio::ResultBuf> results;
  EXPECT_FALSE(mpiio::file_read_ex_all({&closed}, results, {1}, 8, "sum").is_ok());
}

TEST(MpiIoCollective, EmptyBatchIsOk) {
  std::vector<mpiio::ResultBuf> results;
  EXPECT_TRUE(mpiio::file_read_ex_all({}, results, {}, 8, "sum").is_ok());
  EXPECT_TRUE(results.empty());
}

}  // namespace
}  // namespace dosas::client
