// Unit tests for dosas::pfs — striping layout math, data/metadata servers,
// and the client read/write paths, including parameterized striping sweeps.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/rng.hpp"
#include "pfs/client.hpp"
#include "pfs/file_system.hpp"
#include "pfs/layout.hpp"

namespace dosas::pfs {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// ---------------------------------------------------------------- layout

TEST(Layout, SingleServerMapsIdentity) {
  Layout layout({.strip_size = 64_KiB, .server_count = 1, .first_server = 0});
  EXPECT_EQ(layout.server_of(0), 0u);
  EXPECT_EQ(layout.server_of(10_MiB), 0u);
  EXPECT_EQ(layout.object_offset_of(12345), 12345u);
}

TEST(Layout, RoundRobinAcrossServers) {
  Layout layout({.strip_size = 100, .server_count = 4, .first_server = 0});
  EXPECT_EQ(layout.server_of(0), 0u);
  EXPECT_EQ(layout.server_of(99), 0u);
  EXPECT_EQ(layout.server_of(100), 1u);
  EXPECT_EQ(layout.server_of(399), 3u);
  EXPECT_EQ(layout.server_of(400), 0u);  // wraps
}

TEST(Layout, FirstServerShiftsAssignment) {
  Layout layout({.strip_size = 100, .server_count = 4, .first_server = 2});
  EXPECT_EQ(layout.server_of(0), 2u);
  EXPECT_EQ(layout.server_of(100), 3u);
  EXPECT_EQ(layout.server_of(200), 0u);
}

TEST(Layout, ObjectOffsetsPackDensely) {
  Layout layout({.strip_size = 100, .server_count = 4, .first_server = 0});
  // Server 0 holds strips 0, 4, 8, ... packed back to back.
  EXPECT_EQ(layout.object_offset_of(0), 0u);
  EXPECT_EQ(layout.object_offset_of(50), 50u);
  EXPECT_EQ(layout.object_offset_of(400), 100u);   // strip 4 -> local strip 1
  EXPECT_EQ(layout.object_offset_of(450), 150u);
  EXPECT_EQ(layout.object_offset_of(800), 200u);   // strip 8 -> local strip 2
}

TEST(Layout, MapExtentWithinOneStrip) {
  Layout layout({.strip_size = 100, .server_count = 4, .first_server = 0});
  const auto segs = layout.map_extent(120, 30);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].server, 1u);
  EXPECT_EQ(segs[0].logical_offset, 120u);
  EXPECT_EQ(segs[0].object_offset, 20u);
  EXPECT_EQ(segs[0].length, 30u);
}

TEST(Layout, MapExtentCrossingStrips) {
  Layout layout({.strip_size = 100, .server_count = 2, .first_server = 0});
  const auto segs = layout.map_extent(50, 200);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].server, 0u);
  EXPECT_EQ(segs[0].length, 50u);
  EXPECT_EQ(segs[1].server, 1u);
  EXPECT_EQ(segs[1].length, 100u);
  EXPECT_EQ(segs[2].server, 0u);
  EXPECT_EQ(segs[2].length, 50u);
  EXPECT_EQ(segs[2].object_offset, 100u);  // second local strip on server 0
}

TEST(Layout, MapExtentSingleServerMerges) {
  Layout layout({.strip_size = 100, .server_count = 1, .first_server = 0});
  const auto segs = layout.map_extent(0, 1000);
  ASSERT_EQ(segs.size(), 1u);  // contiguous strips merged into one segment
  EXPECT_EQ(segs[0].length, 1000u);
}

TEST(Layout, MapExtentZeroLengthIsEmpty) {
  Layout layout({.strip_size = 100, .server_count = 2, .first_server = 0});
  EXPECT_TRUE(layout.map_extent(50, 0).empty());
}

TEST(Layout, SegmentsCoverExtentExactly) {
  Layout layout({.strip_size = 64_KiB, .server_count = 3, .first_server = 1});
  const Bytes offset = 100'000;
  const Bytes length = 1'000'000;
  Bytes covered = 0;
  Bytes expect_next = offset;
  for (const auto& seg : layout.map_extent(offset, length)) {
    EXPECT_EQ(seg.logical_offset, expect_next);
    covered += seg.length;
    expect_next = seg.logical_offset + seg.length;
  }
  EXPECT_EQ(covered, length);
}

TEST(Layout, BytesOnServerSumToLength) {
  Layout layout({.strip_size = 4096, .server_count = 5, .first_server = 2});
  const Bytes offset = 12345;
  const Bytes length = 777'777;
  Bytes total = 0;
  for (ServerId s = 0; s < 5; ++s) total += layout.bytes_on_server(offset, length, s);
  EXPECT_EQ(total, length);
}

TEST(Layout, ObjectSizesSumToFileSize) {
  Layout layout({.strip_size = 1000, .server_count = 3, .first_server = 0});
  const Bytes file_size = 123'456;
  Bytes total = 0;
  for (ServerId s = 0; s < 3; ++s) total += layout.object_size(file_size, s);
  EXPECT_EQ(total, file_size);
}

// Property sweep: layout invariants across striping configurations.
struct LayoutCase {
  Bytes strip;
  std::uint32_t servers;
  ServerId first;
};

class LayoutProperty : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(LayoutProperty, ExtentDecompositionIsExactAndOrdered) {
  const auto p = GetParam();
  Layout layout({.strip_size = p.strip, .server_count = p.servers, .first_server = p.first});
  Rng rng(p.strip * 31 + p.servers * 7 + p.first);
  for (int trial = 0; trial < 50; ++trial) {
    const Bytes offset = rng.uniform_index(10 * p.strip);
    const Bytes length = 1 + rng.uniform_index(20 * p.strip);
    Bytes covered = 0;
    Bytes next = offset;
    for (const auto& seg : layout.map_extent(offset, length)) {
      ASSERT_EQ(seg.logical_offset, next);
      ASSERT_LT(seg.server, p.servers);
      ASSERT_GT(seg.length, 0u);
      ASSERT_EQ(seg.server, layout.server_of(seg.logical_offset));
      ASSERT_EQ(seg.object_offset, layout.object_offset_of(seg.logical_offset));
      covered += seg.length;
      next += seg.length;
    }
    ASSERT_EQ(covered, length);
  }
}

TEST_P(LayoutProperty, ServerOfMatchesExtentDecomposition) {
  const auto p = GetParam();
  Layout layout({.strip_size = p.strip, .server_count = p.servers, .first_server = p.first});
  for (Bytes off = 0; off < 4 * p.strip * p.servers; off += p.strip / 2 + 1) {
    const auto segs = layout.map_extent(off, 1);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0].server, layout.server_of(off));
  }
}

INSTANTIATE_TEST_SUITE_P(Striping, LayoutProperty,
                         ::testing::Values(LayoutCase{64, 1, 0}, LayoutCase{64, 2, 0},
                                           LayoutCase{64, 2, 1}, LayoutCase{100, 3, 2},
                                           LayoutCase{4096, 4, 0}, LayoutCase{65536, 8, 5},
                                           LayoutCase{1, 3, 0}, LayoutCase{7, 5, 4}));

// ---------------------------------------------------------------- data server

TEST(DataServer, WriteThenReadBack) {
  DataServer ds(0);
  const auto data = pattern_bytes(1000);
  ASSERT_TRUE(ds.write_object(1, 0, data).is_ok());
  auto got = ds.read_object(1, 0, 1000);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), data);
}

TEST(DataServer, ReadUnknownObjectFails) {
  DataServer ds(0);
  auto got = ds.read_object(99, 0, 10);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
}

TEST(DataServer, SparseWriteZeroFills) {
  DataServer ds(0);
  const std::vector<std::uint8_t> data = {1, 2, 3};
  ASSERT_TRUE(ds.write_object(1, 100, data).is_ok());
  EXPECT_EQ(ds.object_size(1), 103u);
  auto got = ds.read_object(1, 0, 103);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value()[0], 0u);
  EXPECT_EQ(got.value()[99], 0u);
  EXPECT_EQ(got.value()[100], 1u);
  EXPECT_EQ(got.value()[102], 3u);
}

TEST(DataServer, ShortReadAtEnd) {
  DataServer ds(0);
  ASSERT_TRUE(ds.write_object(1, 0, pattern_bytes(100)).is_ok());
  auto got = ds.read_object(1, 90, 50);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().size(), 10u);
}

TEST(DataServer, ReadPastEndIsEmpty) {
  DataServer ds(0);
  ASSERT_TRUE(ds.write_object(1, 0, pattern_bytes(100)).is_ok());
  auto got = ds.read_object(1, 200, 50);
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(got.value().empty());
}

TEST(DataServer, OverwriteInPlace) {
  DataServer ds(0);
  ASSERT_TRUE(ds.write_object(1, 0, std::vector<std::uint8_t>(10, 0xAA)).is_ok());
  ASSERT_TRUE(ds.write_object(1, 5, std::vector<std::uint8_t>(2, 0xBB)).is_ok());
  auto got = ds.read_object(1, 0, 10);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value()[4], 0xAA);
  EXPECT_EQ(got.value()[5], 0xBB);
  EXPECT_EQ(got.value()[6], 0xBB);
  EXPECT_EQ(got.value()[7], 0xAA);
  EXPECT_EQ(ds.object_size(1), 10u);
}

TEST(DataServer, RemoveObject) {
  DataServer ds(0);
  ASSERT_TRUE(ds.write_object(1, 0, pattern_bytes(10)).is_ok());
  EXPECT_TRUE(ds.has_object(1));
  ASSERT_TRUE(ds.remove_object(1).is_ok());
  EXPECT_FALSE(ds.has_object(1));
  EXPECT_EQ(ds.object_count(), 0u);
}

TEST(DataServer, IoCountersTrack) {
  DataServer ds(0);
  ASSERT_TRUE(ds.write_object(1, 0, pattern_bytes(500)).is_ok());
  (void)ds.read_object(1, 0, 200);
  EXPECT_EQ(ds.bytes_written(), 500u);
  EXPECT_EQ(ds.bytes_read(), 200u);
}

// ---------------------------------------------------------------- metadata

TEST(MetadataServer, CreateLookupRoundTrip) {
  MetadataServer mds;
  auto created = mds.create("/a", {.strip_size = 64_KiB, .server_count = 2, .first_server = 0});
  ASSERT_TRUE(created.is_ok());
  EXPECT_GT(created.value().handle, 0u);
  auto found = mds.lookup("/a");
  ASSERT_TRUE(found.is_ok());
  EXPECT_EQ(found.value().handle, created.value().handle);
  EXPECT_EQ(found.value().striping.server_count, 2u);
}

TEST(MetadataServer, DuplicateCreateFails) {
  MetadataServer mds;
  ASSERT_TRUE(mds.create("/a", {64_KiB, 1, 0}).is_ok());
  auto dup = mds.create("/a", {64_KiB, 1, 0});
  ASSERT_FALSE(dup.is_ok());
  EXPECT_EQ(dup.status().code(), ErrorCode::kAlreadyExists);
}

TEST(MetadataServer, InvalidStripingRejected) {
  MetadataServer mds;
  EXPECT_FALSE(mds.create("/a", {0, 1, 0}).is_ok());
  EXPECT_FALSE(mds.create("/b", {64, 0, 0}).is_ok());
  EXPECT_FALSE(mds.create("/c", {64, 2, 2}).is_ok());
}

TEST(MetadataServer, HandlesAreUnique) {
  MetadataServer mds;
  auto a = mds.create("/a", {64, 1, 0});
  auto b = mds.create("/b", {64, 1, 0});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(a.value().handle, b.value().handle);
}

TEST(MetadataServer, ExtendGrowsNeverShrinks) {
  MetadataServer mds;
  auto meta = mds.create("/a", {64, 1, 0});
  ASSERT_TRUE(meta.is_ok());
  const auto fh = meta.value().handle;
  ASSERT_TRUE(mds.extend(fh, 100).is_ok());
  ASSERT_TRUE(mds.extend(fh, 50).is_ok());
  EXPECT_EQ(mds.lookup_handle(fh).value().size, 100u);
  ASSERT_TRUE(mds.truncate(fh, 10).is_ok());
  EXPECT_EQ(mds.lookup_handle(fh).value().size, 10u);
}

TEST(MetadataServer, RemoveDropsBothIndexes) {
  MetadataServer mds;
  auto meta = mds.create("/a", {64, 1, 0});
  ASSERT_TRUE(meta.is_ok());
  ASSERT_TRUE(mds.remove("/a").is_ok());
  EXPECT_FALSE(mds.lookup("/a").is_ok());
  EXPECT_FALSE(mds.lookup_handle(meta.value().handle).is_ok());
  EXPECT_EQ(mds.file_count(), 0u);
}

TEST(MetadataServer, RemoveMissingFails) {
  MetadataServer mds;
  EXPECT_EQ(mds.remove("/none").code(), ErrorCode::kNotFound);
}

TEST(MetadataServer, ListReturnsAllPaths) {
  MetadataServer mds;
  ASSERT_TRUE(mds.create("/a", {64, 1, 0}).is_ok());
  ASSERT_TRUE(mds.create("/b", {64, 1, 0}).is_ok());
  auto paths = mds.list();
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(paths, (std::vector<std::string>{"/a", "/b"}));
}

// ---------------------------------------------------------------- client

TEST(Client, WholeFileRoundTrip) {
  FileSystem fs(4, 4096);
  Client client(fs);
  const auto data = pattern_bytes(100'000);
  auto meta = write_file(client, "/data", data);
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta.value().size, data.size());
  auto got = client.read_all(meta.value());
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), data);
}

TEST(Client, DataActuallyStripesAcrossServers) {
  FileSystem fs(4, 1024);
  Client client(fs);
  const auto data = pattern_bytes(64 * 1024);
  auto meta = write_file(client, "/data", data);
  ASSERT_TRUE(meta.is_ok());
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(fs.data_server(s).object_size(meta.value().handle), 16u * 1024)
        << "server " << s;
  }
}

TEST(Client, ExtentReadMatchesSlice) {
  FileSystem fs(3, 1000);
  Client client(fs);
  const auto data = pattern_bytes(50'000);
  auto meta = write_file(client, "/data", data);
  ASSERT_TRUE(meta.is_ok());
  auto got = client.read(meta.value(), 12'345, 6'789);
  ASSERT_TRUE(got.is_ok());
  const std::vector<std::uint8_t> expect(data.begin() + 12'345, data.begin() + 12'345 + 6'789);
  EXPECT_EQ(got.value(), expect);
}

TEST(Client, ReadClampsAtEof) {
  FileSystem fs(2, 100);
  Client client(fs);
  auto meta = write_file(client, "/data", pattern_bytes(250));
  ASSERT_TRUE(meta.is_ok());
  auto got = client.read(meta.value(), 200, 500);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().size(), 50u);
}

TEST(Client, ReadAtEofIsEmpty) {
  FileSystem fs(2, 100);
  Client client(fs);
  auto meta = write_file(client, "/data", pattern_bytes(250));
  ASSERT_TRUE(meta.is_ok());
  auto got = client.read(meta.value(), 250, 10);
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(got.value().empty());
}

TEST(Client, StripingWiderThanVolumeRejected) {
  FileSystem fs(2);
  Client client(fs);
  auto meta = client.create("/data", {.strip_size = 64, .server_count = 8, .first_server = 0});
  ASSERT_FALSE(meta.is_ok());
  EXPECT_EQ(meta.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Client, OpenMissingFileFails) {
  FileSystem fs(2);
  Client client(fs);
  EXPECT_EQ(client.open("/ghost").status().code(), ErrorCode::kNotFound);
}

TEST(Client, UnlinkRemovesDataEverywhere) {
  FileSystem fs(3, 100);
  Client client(fs);
  auto meta = write_file(client, "/data", pattern_bytes(1000));
  ASSERT_TRUE(meta.is_ok());
  ASSERT_TRUE(client.unlink("/data").is_ok());
  EXPECT_FALSE(client.open("/data").is_ok());
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_FALSE(fs.data_server(s).has_object(meta.value().handle));
  }
}

TEST(Client, OverwriteViaWriteFileTruncates) {
  FileSystem fs(2, 100);
  Client client(fs);
  ASSERT_TRUE(write_file(client, "/data", pattern_bytes(1000, 1)).is_ok());
  auto meta = write_file(client, "/data", pattern_bytes(300, 2));
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta.value().size, 300u);
  auto got = client.read_all(meta.value());
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), pattern_bytes(300, 2));
}

TEST(Client, WriteDoublesHelper) {
  FileSystem fs(2, 64);
  Client client(fs);
  auto meta = write_doubles(client, "/nums", 100, [](std::size_t i) {
    return static_cast<double>(i) * 0.5;
  });
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta.value().size, 800u);
  auto got = client.read_all(meta.value());
  ASSERT_TRUE(got.is_ok());
  double v42;
  std::memcpy(&v42, got.value().data() + 42 * sizeof(double), sizeof(double));
  EXPECT_DOUBLE_EQ(v42, 21.0);
}

TEST(Client, SparseWriteReadsZeros) {
  FileSystem fs(2, 100);
  Client client(fs);
  auto meta = client.create("/sparse");
  ASSERT_TRUE(meta.is_ok());
  meta = client.write(meta.value(), 500, pattern_bytes(100, 3));
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta.value().size, 600u);
  auto got = client.read(meta.value(), 0, 600);
  ASSERT_TRUE(got.is_ok());
  ASSERT_EQ(got.value().size(), 600u);
  for (std::size_t i = 0; i < 500; ++i) ASSERT_EQ(got.value()[i], 0u) << i;
}

// Property sweep: round-trips across server counts and strip sizes.
// gtest names each case by dumping the struct's bytes, so the struct
// must have no padding: uninitialised padding bytes would give the
// cases a different name on every run.
struct ClientCase {
  std::uint64_t servers;
  Bytes strip;
  Bytes file_size;
};

class ClientProperty : public ::testing::TestWithParam<ClientCase> {};

TEST_P(ClientProperty, RandomExtentsRoundTrip) {
  const auto p = GetParam();
  FileSystem fs(static_cast<std::uint32_t>(p.servers), p.strip);
  Client client(fs);
  const auto data = pattern_bytes(p.file_size, p.servers * 131 + p.strip);
  auto meta = write_file(client, "/f", data);
  ASSERT_TRUE(meta.is_ok());

  Rng rng(p.file_size);
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes off = rng.uniform_index(p.file_size);
    const Bytes len = 1 + rng.uniform_index(p.file_size - off);
    auto got = client.read(meta.value(), off, len);
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value().size(), len);
    ASSERT_TRUE(std::equal(got.value().begin(), got.value().end(),
                           data.begin() + static_cast<std::ptrdiff_t>(off)));
  }
}

INSTANTIATE_TEST_SUITE_P(Volumes, ClientProperty,
                         ::testing::Values(ClientCase{1, 64_KiB, 100'000},
                                           ClientCase{2, 1024, 100'000},
                                           ClientCase{3, 333, 50'000},
                                           ClientCase{8, 4096, 300'000},
                                           ClientCase{5, 1, 5'000},
                                           ClientCase{4, 64_KiB, 1'000'000}));

}  // namespace
}  // namespace dosas::pfs
