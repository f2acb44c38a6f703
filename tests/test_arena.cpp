// test_arena.cpp — extent-buffer arena, BufferRef lifetime
// (src/common/arena.hpp), and the data server's copy-on-write versions
// (src/pfs/data_server.hpp).
//
// The load-bearing properties: slabs up to the pooled size cap recycle
// after release (steady-state version churn stays off the allocator) and
// larger ones are freed, a BufferRef stays valid after its arena — and
// the data server that owned it — is destroyed, a view never sees a
// later write, and the data-bytes-copied ledger is charged only by
// genuine owning copies. The double-free / use-after-free claims
// are backed by the ASan tier; the view/in-place-write ordering by TSan.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.hpp"
#include "pfs/data_server.hpp"

namespace dosas {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return v;
}

/// Check out a slab for `bytes`, write them into it, and view the slab —
/// the way the data server builds an object version.
BufferRef slab_view(BufferArena& arena, std::span<const std::uint8_t> bytes) {
  BufferArena::Slab slab = arena.acquire(bytes.size());
  slab->assign(bytes.begin(), bytes.end());
  return BufferRef::view(slab, *slab);
}

TEST(BufferArena, FillCopiesBytesOnce) {
  // Filling a checked-out slab is the only copy: checking out copies
  // nothing, and the view is the slab itself, not a duplicate.
  BufferArena arena;
  const auto payload = pattern(1000);
  const std::uint64_t before = data_bytes_copied();
  BufferArena::Slab slab = arena.acquire(payload.size());
  EXPECT_TRUE(slab->empty());
  EXPECT_GE(slab->capacity(), 4096u);  // the 4 KiB minimum size class
  EXPECT_EQ(data_bytes_copied(), before);  // checking out copies nothing

  slab->assign(payload.begin(), payload.end());
  const BufferRef ref = BufferRef::view(slab, *slab);
  EXPECT_EQ(ref.data(), slab->data());  // a view of the slab, not a duplicate
  EXPECT_EQ(ref, payload);

  const auto stats = arena.stats();
  EXPECT_EQ(stats.slabs_created, 1u);
  EXPECT_EQ(stats.slabs_recycled, 0u);
  EXPECT_EQ(stats.slabs_in_use, 1u);
  EXPECT_EQ(stats.bytes_in_use, 4096u);  // counted by size class
}

TEST(BufferArena, SliceSharesSlabWithoutCopy) {
  BufferArena arena;
  const auto payload = pattern(256);
  BufferRef ref = slab_view(arena, payload);

  const std::uint64_t before = data_bytes_copied();
  BufferRef mid = ref.slice(64, 128);
  EXPECT_EQ(mid.size(), 128u);
  EXPECT_EQ(mid.data(), ref.data() + 64);  // same slab, no copy
  EXPECT_EQ(data_bytes_copied(), before);

  // Out-of-range slices clamp / come back empty instead of tearing.
  EXPECT_EQ(ref.slice(200, 500).size(), 56u);
  EXPECT_TRUE(ref.slice(9999, 1).empty());

  // The slab stays alive through the slice even after the parent drops.
  ref = BufferRef{};
  EXPECT_EQ(mid.span()[0], payload[64]);
  EXPECT_EQ(arena.stats().slabs_in_use, 1u);
}

TEST(BufferArena, RecycleAfterRelease) {
  BufferArena arena;
  {
    BufferRef ref = slab_view(arena, pattern(1000));
    EXPECT_EQ(arena.stats().slabs_in_use, 1u);
  }
  auto stats = arena.stats();
  EXPECT_EQ(stats.slabs_in_use, 0u);
  EXPECT_EQ(stats.slabs_returned, 1u);
  EXPECT_EQ(stats.slabs_free, 1u);
  EXPECT_EQ(stats.bytes_in_use, 0u);

  // Same size class (both round to the 4 KiB minimum): the next acquire
  // must come from the free list, not the allocator.
  BufferRef again = slab_view(arena, pattern(2000, 9));
  stats = arena.stats();
  EXPECT_EQ(stats.slabs_created, 1u);
  EXPECT_EQ(stats.slabs_recycled, 1u);
  EXPECT_EQ(again, pattern(2000, 9));
}

TEST(BufferArena, DistinctSizeClassesDoNotCrossRecycle) {
  BufferArena arena;
  { BufferRef small = slab_view(arena, pattern(100)); }  // 4 KiB class, pooled
  BufferRef big = slab_view(arena, pattern(64 * 1024));    // 64 KiB class
  const auto stats = arena.stats();
  EXPECT_EQ(stats.slabs_created, 2u);  // big could not reuse the small slab
  EXPECT_EQ(stats.slabs_recycled, 0u);
}

TEST(BufferArena, FreeListDepthIsBounded) {
  BufferArenaOptions opts;
  opts.max_free_per_class = 2;
  BufferArena arena(opts);
  {
    std::vector<BufferRef> refs;
    for (int i = 0; i < 5; ++i) refs.push_back(slab_view(arena, pattern(100)));
  }
  const auto stats = arena.stats();
  EXPECT_EQ(stats.slabs_free, 2u);      // the rest were plain-freed
  EXPECT_EQ(stats.slabs_returned, 2u);
}

TEST(BufferArena, SlabsAboveThePoolCapAreFreed) {
  BufferArena arena;
  const std::size_t cap = BufferArena::kMaxPooledSlabBytes;
  { BufferArena::Slab at_cap = arena.acquire(cap); }
  { BufferArena::Slab above = arena.acquire(cap + 1); }
  auto stats = arena.stats();
  EXPECT_EQ(stats.slabs_free, 1u);  // only the cap-sized slab was pooled
  EXPECT_EQ(stats.slabs_returned, 1u);
  EXPECT_EQ(stats.slabs_in_use, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);

  { BufferArena::Slab again = arena.acquire(cap + 1); }
  stats = arena.stats();
  EXPECT_EQ(stats.slabs_created, 3u);  // nothing to recycle above the cap
  EXPECT_EQ(stats.slabs_recycled, 0u);
}

TEST(BufferArena, BufferRefOutlivesArena) {
  const auto payload = pattern(500);
  BufferRef ref;
  {
    BufferArena arena;
    ref = slab_view(arena, payload);
  }  // arena state dropped while the ref is live
  EXPECT_EQ(ref, payload);  // slab kept alive by the ref itself
  ref = BufferRef{};        // late release degrades to a plain free (ASan-checked)
}

TEST(BufferArena, BufferRefOutlivesDataServer) {
  // The end-to-end form of the lifetime property: an extent read from a
  // PFS data server stays valid after the server is torn down.
  const auto payload = pattern(3000, 5);
  BufferRef ref;
  {
    pfs::DataServer server(0);
    ASSERT_TRUE(server.write_object(42, 0, payload).is_ok());
    auto got = server.read_object_ref(42, 0, payload.size());
    ASSERT_TRUE(got.is_ok());
    ref = std::move(got).value();
    EXPECT_EQ(server.arena_stats().slabs_in_use, 1u);
  }
  EXPECT_EQ(ref, payload);
}

TEST(BufferArena, AdoptDoesNotChargeLedgerButToVectorDoes) {
  const std::uint64_t before = data_bytes_copied();
  BufferRef ref = BufferRef::adopt(pattern(777));
  EXPECT_EQ(data_bytes_copied(), before);  // adopt is a move, not a copy

  const auto copy = ref.to_vector();
  EXPECT_EQ(data_bytes_copied(), before + 777);
  EXPECT_EQ(ref, copy);
}

TEST(BufferArena, BorrowViewsCallerMemoryWithoutCopyOrOwnership) {
  const auto payload = pattern(321);
  BufferRef ref = BufferRef::borrow(payload);
  EXPECT_EQ(ref.data(), payload.data());  // the caller's bytes, not a duplicate
  EXPECT_EQ(ref, payload);
  BufferRef view = ref.slice(10, 50);
  EXPECT_EQ(view.data(), payload.data() + 10);
  EXPECT_EQ(view.size(), 50u);
}

TEST(BufferArena, LedgerAttributesCopiesToSites) {
  const std::uint64_t total = data_bytes_copied();
  const std::uint64_t to_vec = data_bytes_copied(CopySite::kToVector);
  const std::uint64_t staged = data_bytes_copied(CopySite::kKernelStage);

  BufferRef ref = BufferRef::adopt(pattern(100));
  (void)ref.to_vector();
  note_bytes_copied(25, CopySite::kKernelStage);

  EXPECT_EQ(data_bytes_copied(CopySite::kToVector) - to_vec, 100u);
  EXPECT_EQ(data_bytes_copied(CopySite::kKernelStage) - staged, 25u);
  EXPECT_EQ(data_bytes_copied() - total, 125u);  // sites sum into the total
}

TEST(BufferArena, EmptyRefIsSafe) {
  BufferRef ref;
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(ref.size(), 0u);
  EXPECT_EQ(ref.data(), nullptr);
  EXPECT_TRUE(ref.span().empty());
  EXPECT_EQ(ref, BufferRef{});
  EXPECT_TRUE(ref.to_vector().empty());
}

TEST(BufferArena, ConcurrentFillAndReleaseIsRaceFree) {
  // TSan-tier stress: several threads hammer acquire/fill/slice/release
  // against one arena concurrently.
  BufferArena arena;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const auto payload = pattern(512 + t * 100, static_cast<std::uint8_t>(t));
      for (int i = 0; i < kIters; ++i) {
        BufferRef ref = slab_view(arena, payload);
        BufferRef view = ref.slice(0, payload.size() / 2);
        ASSERT_EQ(ref, payload);
        ASSERT_EQ(view.size(), payload.size() / 2);
      }
    });
  }
  for (auto& t : workers) t.join();

  const auto stats = arena.stats();
  EXPECT_EQ(stats.slabs_in_use, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);
  EXPECT_GT(stats.slabs_recycled, 0u);  // steady state runs off the pool
  // One lock probe per acquire and one per release while the arena lives.
  EXPECT_EQ(stats.lock_fast + stats.lock_contended,
            2 * (stats.slabs_created + stats.slabs_recycled));
}

// ------------------------------------------- data server versions (COW)

std::vector<std::uint8_t> object_bytes(const pfs::DataServer& server,
                                       pfs::FileHandle fh) {
  auto got = server.read_object_ref(fh, 0, server.object_size(fh));
  EXPECT_TRUE(got.is_ok());
  const BufferRef& ref = got.value();
  return std::vector<std::uint8_t>(ref.begin(), ref.end());
}

TEST(DataServerVersions, ViewKeepsItsBytesAcrossOverwriteAppendAndRemove) {
  pfs::DataServer server(0);
  const auto a = pattern(10000, 1);
  ASSERT_TRUE(server.write_object(7, 0, a).is_ok());

  // Whole-object overwrite.
  const BufferRef before_overwrite = server.read_object_ref(7, 0, a.size()).value();
  const auto b = pattern(10000, 2);
  ASSERT_TRUE(server.write_object(7, 0, b).is_ok());
  EXPECT_EQ(before_overwrite, a);
  EXPECT_EQ(object_bytes(server, 7), b);

  // Partial overwrite.
  const BufferRef before_partial = server.read_object_ref(7, 0, b.size()).value();
  const auto c = pattern(200, 3);
  ASSERT_TRUE(server.write_object(7, 100, c).is_ok());
  EXPECT_EQ(before_partial, b);
  auto expect = b;
  std::copy(c.begin(), c.end(), expect.begin() + 100);
  EXPECT_EQ(object_bytes(server, 7), expect);

  // Append (fits the slab, but a view is outstanding).
  const BufferRef before_append = server.read_object_ref(7, 9000, 1000).value();
  const auto d = pattern(500, 4);
  ASSERT_TRUE(server.write_object(7, 10000, d).is_ok());
  EXPECT_EQ(before_append.size(), 1000u);
  EXPECT_TRUE(std::equal(before_append.begin(), before_append.end(), expect.begin() + 9000));
  expect.insert(expect.end(), d.begin(), d.end());
  EXPECT_EQ(server.object_size(7), 10500u);
  EXPECT_EQ(object_bytes(server, 7), expect);

  // Remove.
  const BufferRef before_remove = server.read_object_ref(7, 0, 10500).value();
  ASSERT_TRUE(server.remove_object(7).is_ok());
  EXPECT_FALSE(server.has_object(7));
  EXPECT_EQ(before_remove, expect);
}

TEST(DataServerVersions, RemovedLargeObjectIsFreedNotPooled) {
  // An unlinked object above the pooled size cap goes back to the
  // allocator, not to the pool — also when a view outlives the remove.
  pfs::DataServer server(0);
  const auto big = pattern(4 * BufferArena::kMaxPooledSlabBytes, 1);
  ASSERT_TRUE(server.write_object(9, 0, big).is_ok());
  ASSERT_TRUE(server.write_object(10, 0, big).is_ok());
  ASSERT_TRUE(server.write_object(11, 0, pattern(4096, 3)).is_ok());
  {
    const BufferRef view = server.read_object_ref(10, 0, 64).value();
    for (pfs::FileHandle fh : {9u, 10u, 11u}) ASSERT_TRUE(server.remove_object(fh).is_ok());
    EXPECT_EQ(server.arena_stats().slabs_in_use, 1u);  // pinned by the view
    EXPECT_TRUE(std::equal(view.begin(), view.end(), big.begin()));
  }
  const auto stats = server.arena_stats();
  EXPECT_EQ(stats.slabs_in_use, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);
  EXPECT_EQ(stats.slabs_free, 1u);  // the small version; both big ones were freed
}

TEST(DataServerVersions, UnviewedOverwriteIsInPlaceAndFree) {
  pfs::DataServer server(0);
  ASSERT_TRUE(server.write_object(1, 0, pattern(64 * 1024, 1)).is_ok());
  { const BufferRef dropped = server.read_object_ref(1, 0, 4096).value(); }
  const auto created = server.arena_stats().slabs_created;
  const std::uint64_t ledger = data_bytes_copied();

  const auto whole = pattern(64 * 1024, 2);
  ASSERT_TRUE(server.write_object(1, 0, whole).is_ok());             // overwrite
  ASSERT_TRUE(server.write_object(1, 512, pattern(1000, 3)).is_ok());  // partial
  EXPECT_EQ(server.arena_stats().slabs_created, created);
  EXPECT_EQ(server.arena_stats().slabs_in_use, 1u);
  EXPECT_EQ(data_bytes_copied(), ledger);

  // Growing within the slab is in place too; past it is not.
  ASSERT_TRUE(server.write_object(2, 0, pattern(3000, 4)).is_ok());
  const auto grown_from = server.arena_stats().slabs_created;
  ASSERT_TRUE(server.write_object(2, 3000, pattern(1000, 5)).is_ok());  // 4 KiB fits
  EXPECT_EQ(server.arena_stats().slabs_created, grown_from);
  EXPECT_EQ(data_bytes_copied(), ledger);
  ASSERT_TRUE(server.write_object(2, 4000, pattern(1000, 6)).is_ok());  // 5000 > 4 KiB
  EXPECT_EQ(server.arena_stats().slabs_in_use, 2u);  // the old slab went back
  EXPECT_EQ(data_bytes_copied(), ledger + 4000);     // the carried-over old bytes
}

TEST(DataServerVersions, PartialOverwriteUnderViewChargesCarriedBytes) {
  pfs::DataServer server(0);
  ASSERT_TRUE(server.write_object(3, 0, pattern(10000, 1)).is_ok());
  const BufferRef view = server.read_object_ref(3, 0, 10).value();

  const std::uint64_t total = data_bytes_copied();
  const std::uint64_t other = data_bytes_copied(CopySite::kOther);
  ASSERT_TRUE(server.write_object(3, 100, pattern(300, 2)).is_ok());
  // Carried over: [0, 100) and [400, 10000).
  EXPECT_EQ(data_bytes_copied(CopySite::kOther) - other, 100u + 9600u);
  EXPECT_EQ(data_bytes_copied() - total, 100u + 9600u);
  EXPECT_EQ(server.arena_stats().slabs_in_use, 2u);  // pinned old + current
  const auto original = pattern(10000, 1);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), original.begin()));

  // A whole-object overwrite under a view copies on write but carries
  // nothing over.
  const BufferRef view2 = server.read_object_ref(3, 0, 10).value();
  ASSERT_TRUE(server.write_object(3, 0, pattern(10000, 3)).is_ok());
  EXPECT_EQ(data_bytes_copied() - total, 100u + 9600u);
  EXPECT_EQ(server.arena_stats().slabs_in_use, 3u);  // two pinned + current
}

TEST(DataServerVersions, ConcurrentWritersNeverTearReads) {
  // TSan-tier stress: 2 writers overwrite one 64 KiB object with uniform
  // fills while 3 readers check every view is uniform. A view that saw an
  // in-place write would mix fills; an in-place write not ordered after a
  // view's last read is a race TSan reports (a relaxed view count does).
  constexpr std::size_t kBytes = 64 * 1024;
  constexpr int kWrites = 1500;
  constexpr int kReads = 3000;
  pfs::DataServer server(0);
  ASSERT_TRUE(server.write_object(9, 0, std::vector<std::uint8_t>(kBytes, 0)).is_ok());

  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      std::vector<std::uint8_t> fill(kBytes);
      for (int i = 0; i < kWrites; ++i) {
        std::memset(fill.data(), 1 + (w * kWrites + i) % 255, kBytes);
        ASSERT_TRUE(server.write_object(9, 0, fill).is_ok());
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      std::vector<std::uint8_t> expect(kBytes);
      for (int i = 0; i < kReads; ++i) {
        {
          const BufferRef view = server.read_object_ref(9, 0, kBytes).value();
          ASSERT_EQ(view.size(), kBytes);
          std::memset(expect.data(), view.data()[0], kBytes);
          if (std::memcmp(view.data(), expect.data(), kBytes) != 0) ++torn;
        }
        // Between this drop and the next read, only the view count orders
        // the reads above before a writer's in-place memcpy.
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(server.arena_stats().slabs_in_use, 1u);  // every pinned version went back
}

}  // namespace
}  // namespace dosas
