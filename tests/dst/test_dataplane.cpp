// test_dataplane.cpp — DST fingerprints for the lock-free data plane.
//
// The ring and the buffer arena carry the hot path's queue hops and
// extents. Their internal CAS/lock counters
// are schedule-dependent and deliberately excluded from fingerprints; what
// MUST reproduce bit-identically under a VirtualClock is the observable
// data plane: delivery order and virtual timing through a ring pipeline,
// the arena's serialized slab accounting, and the data-bytes-copied
// ledger's delta for a fixed workload (a copy that appears or disappears
// between runs is a real nondeterminism bug, not noise).
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/clock.hpp"
#include "common/ring.hpp"
#include "core/cluster.hpp"
#include "core/runner.hpp"
#include "pfs/client.hpp"
#include "pfs/data_server.hpp"

namespace dosas {
namespace {

// ------------------------------------------------------------------ ring

// One producer paces items through a small ring on the virtual clock; the
// consumer logs (value, virtual receive time). With both sides quiescent
// between items, the interleaving is fully determined by the clock, so
// the whole log — values, times, final virtual time, advance count — is
// part of the contract.
std::string run_ring_pipeline() {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  std::ostringstream fp;
  {
    Ring<int> ring(4);

    Participant consumer = clock().spawn([&] {
      while (auto v = ring.receive()) {
        fp << *v << '@' << std::fixed << std::setprecision(6) << clock().now()
           << '\n';
      }
    }, "consumer");

    for (int i = 0; i < 16; ++i) {
      clock().sleep(0.010);  // virtual pacing: jumps, no wall time
      EXPECT_TRUE(ring.send(i * i));
    }
    clock().sleep(0.050);  // let the consumer drain and park
    ring.close();
    consumer.join();

    const auto st = vc.status();
    fp << "clock now=" << std::fixed << std::setprecision(9) << st.now
       << " advances=" << st.advances << '\n';
  }
  return fp.str();
}

TEST(DataPlaneDst, RingPipelineFingerprintIsDeterministic) {
  const std::string a = run_ring_pipeline();
  const std::string b = run_ring_pipeline();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ----------------------------------------------------------------- arena

// Serialized arena traffic: one thread, a fixed read/slice/release
// pattern against a data server's read path. Every read is a view of the
// object's one version (no slab per read), so slab accounting and the
// copy ledger must reproduce exactly.
std::string run_arena_scenario() {
  std::ostringstream fp;
  pfs::DataServer server(0);
  std::vector<std::uint8_t> payload(6000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  EXPECT_TRUE(server.write_object(1, 0, payload).is_ok());

  const std::uint64_t ledger_before = data_bytes_copied();
  std::vector<BufferRef> held;
  for (int round = 0; round < 8; ++round) {
    auto ref = server.read_object_ref(1, 0, payload.size());
    EXPECT_TRUE(ref.is_ok());
    // Hold every other view; slice the rest (shared, no copy) and let
    // the parent drop, releasing its pin on the version.
    if (round % 2 == 0) {
      held.push_back(std::move(ref).value());
    } else {
      BufferRef view = ref.value().slice(100, 256);
      fp << "view[0]=" << static_cast<int>(view.span()[0]) << '\n';
    }
  }
  // One deliberate owning copy: exactly payload.size() ledger bytes.
  const auto copy = held.front().to_vector();
  EXPECT_EQ(copy.size(), payload.size());

  const auto st = server.arena_stats();
  fp << "created=" << st.slabs_created << " recycled=" << st.slabs_recycled
     << " returned=" << st.slabs_returned << " in_use=" << st.slabs_in_use
     << " free=" << st.slabs_free << " bytes_in_use=" << st.bytes_in_use
     << '\n';
  fp << "ledger_delta=" << (data_bytes_copied() - ledger_before) << '\n';
  return fp.str();
}

TEST(DataPlaneDst, ArenaAccountingFingerprintIsDeterministic) {
  const std::string a = run_arena_scenario();
  const std::string b = run_arena_scenario();
  EXPECT_EQ(a, b);
  // The only owning copy in the scenario is the explicit to_vector().
  EXPECT_NE(a.find("ledger_delta=6000"), std::string::npos) << a;
}

// ------------------------------------------------------------ end-to-end

// A serialized active read through the full cluster stack. The ledger
// delta for a fixed workload is part of the DST contract: extent bytes
// flow by reference pfs → rpc → server → kernels, so the only owning
// copies left are the ones deliberately recorded (and they must be the
// SAME bytes every run).
std::string run_cluster_ledger(std::uint64_t seed) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  std::ostringstream fp;
  {
    core::ClusterConfig cfg;
    cfg.storage_nodes = 1;
    cfg.cores_per_node = 1;
    cfg.server_chunk_size = 8_KiB;
    cfg.client_chunk_size = 64_KiB;
    cfg.scheme = core::SchemeKind::kActive;
    cfg.optimizer_override = "all-active";
    core::Cluster cluster(cfg);

    auto meta = pfs::write_doubles(
        cluster.pfs_client(), "/dataplane", 16'384,
        [seed](std::size_t i) { return static_cast<double>((i + seed) % 7); });
    EXPECT_TRUE(meta.is_ok());

    const std::uint64_t ledger_before = data_bytes_copied();
    for (int r = 0; r < 4; ++r) {
      auto res = cluster.asc().read_ex(meta.value(), 0, meta.value().size, "sum");
      EXPECT_TRUE(res.is_ok()) << res.status().to_string();
      fp << "result_bytes=" << (res.is_ok() ? res.value().size() : 0) << '\n';
    }
    fp << "ledger_delta=" << (data_bytes_copied() - ledger_before) << '\n';
    fp << "clock now=" << std::fixed << std::setprecision(9) << vc.now() << '\n';
  }
  return fp.str();
}

TEST(DataPlaneDst, ClusterCopyLedgerIsDeterministic) {
  const std::string a = run_cluster_ledger(3);
  const std::string b = run_cluster_ledger(3);
  EXPECT_EQ(a, b);
}

// A mixed read/write workload over the full stack with the result cache
// on: BufferRef writes race cached reads of the same object, so the
// fingerprint covers kWrite dispatch, version invalidation, cache
// hits/misses, and the per-site ledger attribution — all of which must
// reproduce bit-identically for a fixed seed.
std::string run_mixed_ledger(std::uint64_t seed) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  std::ostringstream fp;
  {
    core::ClusterConfig cfg;
    cfg.storage_nodes = 1;
    cfg.cores_per_node = 1;
    cfg.server_chunk_size = 8_KiB;
    cfg.client_chunk_size = 64_KiB;
    cfg.scheme = core::SchemeKind::kActive;
    cfg.optimizer_override = "all-active";
    cfg.result_cache_entries = 4;
    core::Cluster cluster(cfg);

    auto meta = pfs::write_doubles(
        cluster.pfs_client(), "/mixed", 8'192,
        [seed](std::size_t i) { return static_cast<double>((i + seed) % 5); });
    EXPECT_TRUE(meta.is_ok());

    const std::uint64_t before_total = data_bytes_copied();
    std::uint64_t before_site[static_cast<std::size_t>(CopySite::kCount)];
    for (std::size_t s = 0; s < static_cast<std::size_t>(CopySite::kCount); ++s) {
      before_site[s] = data_bytes_copied(static_cast<CopySite>(s));
    }

    for (int r = 0; r < 6; ++r) {
      if (r % 2 == 1) {
        // Odd rounds overwrite item r through the zero-copy write path,
        // invalidating the cached result from the previous read.
        const double v = static_cast<double>(seed + r) * 3.25;
        const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
        auto w = cluster.asc().write(
            meta.value(), static_cast<Bytes>(r) * sizeof(double),
            BufferRef::adopt(std::vector<std::uint8_t>(p, p + sizeof(v))));
        EXPECT_TRUE(w.is_ok()) << w.status().to_string();
        fp << "write@" << r << '\n';
      }
      auto res = cluster.asc().read_ex(meta.value(), 0, meta.value().size, "sum");
      EXPECT_TRUE(res.is_ok()) << res.status().to_string();
      fp << "result_bytes=" << (res.is_ok() ? res.value().size() : 0) << '\n';
    }

    const auto ss = cluster.storage_server(0).stats();
    fp << "cache hits=" << ss.cache_hits << " misses=" << ss.cache_misses
       << " invalidations=" << ss.cache_invalidations
       << " written=" << ss.normal_bytes_written << '\n';
    fp << "ledger_delta=" << (data_bytes_copied() - before_total) << '\n';
    for (std::size_t s = 0; s < static_cast<std::size_t>(CopySite::kCount); ++s) {
      const auto site = static_cast<CopySite>(s);
      fp << "  " << copy_site_name(site) << '='
         << (data_bytes_copied(site) - before_site[s]) << '\n';
    }
    fp << "clock now=" << std::fixed << std::setprecision(9) << vc.now() << '\n';
  }
  return fp.str();
}

TEST(DataPlaneDst, MixedReadWriteFingerprintIsDeterministic) {
  const std::string a = run_mixed_ledger(11);
  const std::string b = run_mixed_ledger(11);
  EXPECT_EQ(a, b);
  // Writes must never be copied en route: the write path contributes no
  // ledger bytes (the sites that do appear are the client's h(d)-sized
  // result materializations).
  EXPECT_NE(a.find("waiter_fanout=0"), std::string::npos) << a;
  EXPECT_NE(a.find("read_gather=0"), std::string::npos) << a;
}

}  // namespace
}  // namespace dosas
