// Tests for the real runtime's network accounting (shared TokenBucket):
// bytes are charged where they cross the link, and the accrued virtual
// delay reflects the scheme's data movement.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "kernels/sum.hpp"

namespace dosas::core {
namespace {

std::unique_ptr<Cluster> make(SchemeKind scheme, BytesPerSec rate, std::uint32_t nodes = 1) {
  ClusterConfig cfg;
  cfg.scheme = scheme;
  cfg.storage_nodes = nodes;
  cfg.network_rate = rate;
  auto cluster = std::make_unique<Cluster>(cfg);
  auto meta = pfs::write_doubles(cluster->pfs_client(), "/data", 2'000'000,  // ~15 MiB
                                 [](std::size_t i) { return static_cast<double>(i % 3); });
  EXPECT_TRUE(meta.is_ok());
  return cluster;
}

TEST(NetworkAccounting, DisabledByDefault) {
  ClusterConfig cfg;
  Cluster cluster(cfg);
  EXPECT_DOUBLE_EQ(cluster.network_delay(), 0.0);
}

TEST(NetworkAccounting, ActiveMovesAlmostNothing) {
  auto cluster = make(SchemeKind::kActive, mb_per_sec(118.0));
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());
  auto out = cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum");
  ASSERT_TRUE(out.is_ok());
  // Only the 16-byte result was charged: under the 1 MiB burst, zero delay.
  EXPECT_DOUBLE_EQ(cluster->network_delay(), 0.0);
}

TEST(NetworkAccounting, DemotionChargesTheRawData) {
  // On 4 nodes the one shared link sits in every node's slot: its delay
  // must be counted once, not once per slot.
  for (const std::uint32_t nodes : {1u, 4u}) {
    auto cluster = make(SchemeKind::kTraditional, mb_per_sec(118.0), nodes);
    auto meta = cluster->pfs_client().open("/data");
    ASSERT_TRUE(meta.is_ok());
    auto out = cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum");
    ASSERT_TRUE(out.is_ok());
    // ~15.3 MiB at 118 MiB/s minus the 1 MiB burst: ~0.12 s of modeled delay.
    const double expect = (to_mib(meta.value().size) - 1.0) / 118.0;
    EXPECT_NEAR(cluster->network_delay(), expect, 0.02) << nodes << " node(s)";
  }
}

TEST(NetworkAccounting, SchemesOrderByBytesMoved) {
  Seconds ts_delay = 0, as_delay = 0;
  {
    auto cluster = make(SchemeKind::kTraditional, mb_per_sec(118.0));
    auto meta = cluster->pfs_client().open("/data");
    ASSERT_TRUE(meta.is_ok());
    (void)cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum");
    ts_delay = cluster->network_delay();
  }
  {
    auto cluster = make(SchemeKind::kActive, mb_per_sec(118.0));
    auto meta = cluster->pfs_client().open("/data");
    ASSERT_TRUE(meta.is_ok());
    (void)cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum");
    as_delay = cluster->network_delay();
  }
  EXPECT_GT(ts_delay, as_delay);
}

TEST(NetworkAccounting, NormalReadsAreCharged) {
  auto cluster = make(SchemeKind::kDosas, mb_per_sec(10.0));  // slow link
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());
  (void)cluster->asc().read(meta.value(), 0, meta.value().size);
  EXPECT_GT(cluster->network_delay(), 1.0);  // ~15 MiB at 10 MiB/s
}

}  // namespace
}  // namespace dosas::core
