// test_ring.cpp — the lock-free MPMC ring (src/common/ring.hpp).
//
// The ring is the repo's one queue primitive, carrying the storage-server
// dispatch and scale-harness completer paths, so it must honor the exact
// contracts the runtime leans on: FIFO per producer, close-then-drain (a send() that
// returned true is ALWAYS drained), tri-state polling, and Clock-seam
// parking so a blocked worker counts as quiescent under a VirtualClock.
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "common/ring.hpp"

namespace dosas {
namespace {

TEST(Ring, SendReceiveOrder) {
  Ring<int> ring(8);
  ring.send(1);
  ring.send(2);
  ring.send(3);
  EXPECT_EQ(ring.receive().value(), 1);
  EXPECT_EQ(ring.receive().value(), 2);
  EXPECT_EQ(ring.receive().value(), 3);
}

TEST(Ring, CapacityRoundsUpToPowerOfTwo) {
  Ring<int> a(3);
  EXPECT_EQ(a.capacity(), 4u);
  Ring<int> b(8);
  EXPECT_EQ(b.capacity(), 8u);
  Ring<int> c(1);
  EXPECT_EQ(c.capacity(), 2u);
}

TEST(Ring, TrySendFailsWhenFull) {
  Ring<int> ring(2);
  EXPECT_TRUE(ring.try_send(1));
  EXPECT_TRUE(ring.try_send(2));
  EXPECT_FALSE(ring.try_send(3));
  EXPECT_EQ(ring.size(), 2u);
}

TEST(Ring, PollTriState) {
  Ring<int> ring(4);
  std::optional<int> out;
  EXPECT_EQ(ring.poll(out), QueuePoll::kEmpty);
  EXPECT_FALSE(out.has_value());

  ring.send(7);
  EXPECT_EQ(ring.poll(out), QueuePoll::kItem);
  EXPECT_EQ(out.value(), 7);

  ring.send(8);
  ring.close();
  EXPECT_EQ(ring.poll(out), QueuePoll::kItem);  // drain continues past close
  EXPECT_EQ(out.value(), 8);
  EXPECT_EQ(ring.poll(out), QueuePoll::kClosed);
  EXPECT_FALSE(out.has_value());
}

TEST(Ring, CloseDrainsThenSignals) {
  Ring<int> ring(4);
  ring.send(7);
  ring.close();
  EXPECT_FALSE(ring.send(8));
  EXPECT_FALSE(ring.try_send(9));
  EXPECT_EQ(ring.receive().value(), 7);
  EXPECT_FALSE(ring.receive().has_value());
}

TEST(Ring, CloseWakesBlockedReceiver) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  Ring<int> ring(4);
  Participant t = vc.spawn([&] {
    auto v = ring.receive();
    EXPECT_FALSE(v.has_value());
  }, "receiver");
  // Deterministic rendezvous: the yield runs the receiver until it parks
  // inside receive() — no wall-clock sleep needed.
  vc.yield();
  EXPECT_EQ(vc.status().blocked, 1);
  ring.close();
  t.join();
}

TEST(Ring, CloseWhileFullUnblocksProducer) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  Ring<int> ring(2);
  ASSERT_TRUE(ring.try_send(1));
  ASSERT_TRUE(ring.try_send(2));
  std::atomic<int> send_result{-1};
  Participant t = vc.spawn([&] { send_result.store(ring.send(3) ? 1 : 0); }, "producer");
  vc.yield();
  EXPECT_EQ(vc.status().blocked, 1);
  ring.close();
  t.join();
  // The blocked send observed the close and failed; the pre-close items
  // are still drainable.
  EXPECT_EQ(send_result.load(), 0);
  EXPECT_EQ(ring.receive().value(), 1);
  EXPECT_EQ(ring.receive().value(), 2);
  EXPECT_FALSE(ring.receive().has_value());
}

TEST(Ring, ParkedConsumerIsQuiescentUnderVirtualClock) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  Ring<int> ring(4);
  Participant consumer = vc.spawn([&] {
    auto v = ring.receive();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42);
  }, "consumer");
  // With the consumer parked in the ring (no deadline), the sleeping
  // clock thread is the only armed deadline — virtual time must jump
  // straight to it. This is the DST quiescence property the ring's
  // parking fallback exists to preserve.
  const Seconds before = vc.now();
  clock().sleep(5.0);
  EXPECT_GE(vc.now(), before + 5.0);
  EXPECT_EQ(vc.status().blocked, 1);
  ring.send(42);
  consumer.join();
}

TEST(Ring, MpmcDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  Ring<int> ring(64);  // small: exercises the full/park paths
  std::atomic<long> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = ring.receive()) {
        sum.fetch_add(*v);
        received.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ring.send(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  ring.close();
  for (auto& t : consumers) t.join();

  const long n = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);  // each value delivered once

  const RingStats stats = ring.stats();
  EXPECT_GE(stats.push_attempts, static_cast<std::uint64_t>(n));
  EXPECT_GE(stats.pop_attempts, static_cast<std::uint64_t>(n));
}

TEST(Ring, EverySuccessfulSendIsDrainedAcrossConcurrentClose) {
  // The contract StorageServer::launch_or_reject depends on: if submit
  // (send) returned true, the task WILL be picked up. Close the ring
  // while producers are mid-stream and check accepted == received.
  constexpr int kProducers = 4;
  constexpr int kAttemptsPerProducer = 4000;
  Ring<int> ring(32);
  std::atomic<int> accepted{0};
  std::atomic<int> received{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (ring.receive()) received.fetch_add(1);
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kAttemptsPerProducer; ++i) {
        if (ring.send(i)) accepted.fetch_add(1);
      }
    });
  }
  clock().sleep(0.002);  // let the stream run, then yank the plug
  ring.close();
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(received.load(), accepted.load());
  EXPECT_LE(accepted.load(), kProducers * kAttemptsPerProducer);
}

// ------------------------------------------------------------ SPSC variant
//
// SpscRing shares the MPMC ring's storage, parking, and close-then-drain
// machinery; what changes is cursor claiming (plain release stores, no CAS
// loop). These tests pin the shared contracts on the specialized code path
// and the one new invariant: no CAS retries, ever.

TEST(SpscRing, OrderCloseDrainAndPollContractsHold) {
  SpscRing<int> ring(4);
  ring.send(1);
  ring.send(2);
  EXPECT_EQ(ring.receive().value(), 1);

  std::optional<int> out;
  EXPECT_EQ(ring.poll(out), QueuePoll::kItem);
  EXPECT_EQ(out.value(), 2);
  EXPECT_EQ(ring.poll(out), QueuePoll::kEmpty);

  ring.send(3);
  ring.close();
  EXPECT_FALSE(ring.send(4));
  EXPECT_EQ(ring.poll(out), QueuePoll::kItem);  // drain continues past close
  EXPECT_EQ(out.value(), 3);
  EXPECT_EQ(ring.poll(out), QueuePoll::kClosed);
}

TEST(SpscRing, StressDeliversEveryItemInOrderWithoutCasRetries) {
  constexpr int kItems = 200'000;
  SpscRing<int> ring(64);  // small: exercises the full/park paths
  std::atomic<long> sum{0};
  std::thread consumer([&] {
    int expected = 0;
    while (auto v = ring.receive()) {
      ASSERT_EQ(*v, expected);  // strict FIFO, nothing lost or reordered
      ++expected;
      sum.fetch_add(*v);
    }
  });
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(ring.send(i));
  ring.close();
  consumer.join();

  EXPECT_EQ(sum.load(), static_cast<long>(kItems) * (kItems - 1) / 2);
  const RingStats stats = ring.stats();
  EXPECT_GE(stats.push_attempts, static_cast<std::uint64_t>(kItems));
  // The whole point of the specialization: single producer and single
  // consumer never contend on a cursor, so the CAS claim loop is gone.
  EXPECT_EQ(stats.push_cas_retries, 0u);
  EXPECT_EQ(stats.pop_cas_retries, 0u);
}

TEST(SpscRing, ParkedConsumerIsQuiescentUnderVirtualClock) {
  // The scale harness parks completer threads in SPSC receive() under a
  // VirtualClock; a parked consumer must count as quiescent or virtual
  // time stalls (the DST property test_scale leans on).
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  SpscRing<int> ring(4);
  Participant consumer = vc.spawn([&] {
    auto v = ring.receive();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42);
  }, "consumer");
  const Seconds before = vc.now();
  clock().sleep(5.0);
  EXPECT_GE(vc.now(), before + 5.0);
  EXPECT_EQ(vc.status().blocked, 1);
  ring.send(42);
  consumer.join();
}

TEST(SpscRing, CloseWakesBlockedConsumerAndFullProducer) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  SpscRing<int> ring(2);
  ASSERT_TRUE(ring.try_send(1));
  ASSERT_TRUE(ring.try_send(2));
  std::atomic<int> send_result{-1};
  Participant producer = vc.spawn([&] { send_result.store(ring.send(3) ? 1 : 0); }, "producer");
  vc.yield();
  EXPECT_EQ(vc.status().blocked, 1);
  ring.close();
  producer.join();
  EXPECT_EQ(send_result.load(), 0);
  EXPECT_EQ(ring.receive().value(), 1);
  EXPECT_EQ(ring.receive().value(), 2);
  EXPECT_FALSE(ring.receive().has_value());
}

TEST(SpscRing, MoveOnlyItemsFlowThrough) {
  SpscRing<std::unique_ptr<int>> ring(4);
  ring.send(std::make_unique<int>(5));
  auto v = ring.receive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(Ring, MoveOnlyItemsFlowThrough) {
  Ring<std::unique_ptr<int>> ring(4);
  ring.send(std::make_unique<int>(5));
  auto v = ring.receive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(Ring, DestructorReleasesUndrainedItems) {
  // Leak check (ASan tier): items still in slots when the ring dies must
  // be destroyed.
  auto ring = std::make_unique<Ring<std::vector<int>>>(8);
  ring->send(std::vector<int>(1024, 7));
  ring->send(std::vector<int>(2048, 9));
  ring.reset();
}

}  // namespace
}  // namespace dosas
