// Unit tests for dosas::common — units, status, RNG, stats, serialization,
// thread pool, token bucket.
#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "common/token_bucket.hpp"
#include "common/units.hpp"

namespace dosas {
namespace {

// ---------------------------------------------------------------- units

TEST(Units, LiteralsProduceExpectedByteCounts) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
  EXPECT_EQ(128_MiB, megabytes(128));
}

TEST(Units, MbPerSecMatchesMegabytes) {
  EXPECT_DOUBLE_EQ(mb_per_sec(118.0), 118.0 * 1024 * 1024);
}

TEST(Units, ToMibRoundTrips) {
  EXPECT_DOUBLE_EQ(to_mib(512_MiB), 512.0);
  EXPECT_DOUBLE_EQ(to_mib_per_sec(mb_per_sec(860)), 860.0);
}

TEST(Units, FormatBytesPicksUnit) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2_KiB), "2.0 KiB");
  EXPECT_EQ(format_bytes(128_MiB), "128.0 MiB");
  EXPECT_EQ(format_bytes(3_GiB), "3.0 GiB");
}

TEST(Units, FormatSecondsPicksUnit) {
  EXPECT_EQ(format_seconds(2.5), "2.50 s");
  EXPECT_EQ(format_seconds(0.0025), "2.50 ms");
  EXPECT_EQ(format_seconds(2.5e-6), "2.50 us");
}

// ---------------------------------------------------------------- status

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = error(ErrorCode::kNotFound, "no such file");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: no such file");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_STRNE(error_code_name(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = error(ErrorCode::kRejected, "demoted");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kRejected);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.is_ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 5);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(111.0, 120.0);
    EXPECT_GE(u, 111.0);
    EXPECT_LT(u, 120.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(8));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.fork();
  // Child should not replay the parent's sequence.
  Rng parent2(42);
  (void)parent2();  // parent consumed one draw for the fork
  EXPECT_NE(child(), parent());
}

TEST(Rng, MeanOfUniformIsCentered) {
  Rng rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

// ---------------------------------------------------------------- stats

TEST(Ewma, ConvergesTowardConstantInput) {
  Ewma e(0.5);
  for (int i = 0; i < 20; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-9);
}

TEST(Ewma, FirstSamplePrimes) {
  Ewma e(0.1);
  EXPECT_FALSE(e.primed());
  e.add(4.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 4.0);
}

TEST(Ewma, WeightsRecentSamples) {
  Ewma e(0.5);
  e.add(0.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(Samples, PercentilesInterpolate) {
  std::vector<double> s;
  for (int i = 100; i >= 1; --i) s.push_back(static_cast<double>(i));
  EXPECT_NEAR(percentile(s, 0), 1.0, 1e-9);
  EXPECT_NEAR(percentile(s, 100), 100.0, 1e-9);
  EXPECT_NEAR(percentile(s, 50), 50.5, 1e-9);
  EXPECT_NEAR(percentile(s, 90), 90.1, 1e-9);
}

TEST(Samples, EmptyIsZero) { EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0); }

// ---------------------------------------------------------------- serialize

TEST(ByteIo, RoundTripPrimitives) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_i64(-42);
  w.put_f64(3.14159);
  w.put_string("dosas");
  const auto buf = w.take();

  ByteReader r(buf);
  std::uint8_t u8;
  std::uint32_t u32;
  std::uint64_t u64;
  std::int64_t i64;
  double f64;
  std::string s;
  ASSERT_TRUE(r.get_u8(u8));
  ASSERT_TRUE(r.get_u32(u32));
  ASSERT_TRUE(r.get_u64(u64));
  ASSERT_TRUE(r.get_i64(i64));
  ASSERT_TRUE(r.get_f64(f64));
  ASSERT_TRUE(r.get_string(s));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(f64, 3.14159);
  EXPECT_EQ(s, "dosas");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteIo, TruncatedReadFails) {
  ByteWriter w;
  w.put_u32(7);
  const auto buf = w.take();
  ByteReader r(buf);
  std::uint64_t v;
  EXPECT_FALSE(r.get_u64(v));
}

TEST(ByteIo, StringWithEmbeddedNul) {
  ByteWriter w;
  std::string s("a\0b", 3);
  w.put_string(s);
  const auto buf = w.take();
  ByteReader r(buf);
  std::string out;
  ASSERT_TRUE(r.get_string(out));
  EXPECT_EQ(out, s);
}

TEST(Checkpoint, RoundTripAllFieldTypes) {
  Checkpoint ck;
  ck.set_i64("pos", 123456789);
  ck.set_i64("row", -3);
  ck.set_f64("partial_sum", 2.718);
  ck.set_string("kernel", "gaussian2d");
  ck.set_blob("carry_rows", {1, 2, 3, 4, 255});

  const auto bytes = ck.encode();
  auto decoded = Checkpoint::decode(bytes);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), ck);
  EXPECT_EQ(decoded.value().get_i64("pos"), 123456789);
  EXPECT_EQ(decoded.value().get_string("kernel"), "gaussian2d");
  ASSERT_NE(decoded.value().get_blob("carry_rows"), nullptr);
  EXPECT_EQ(decoded.value().get_blob("carry_rows")->size(), 5u);
}

TEST(Checkpoint, EmptyRoundTrips) {
  Checkpoint ck;
  auto decoded = Checkpoint::decode(ck.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(Checkpoint, BadMagicRejected) {
  std::vector<std::uint8_t> junk = {0, 1, 2, 3, 4, 5, 6, 7};
  auto decoded = Checkpoint::decode(junk);
  EXPECT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Checkpoint, TruncatedPayloadRejected) {
  Checkpoint ck;
  ck.set_string("k", "value");
  auto bytes = ck.encode();
  bytes.resize(bytes.size() - 2);
  EXPECT_FALSE(Checkpoint::decode(bytes).is_ok());
}

TEST(Checkpoint, TrailingBytesRejected) {
  Checkpoint ck;
  ck.set_i64("x", 1);
  auto bytes = ck.encode();
  bytes.push_back(0);
  EXPECT_FALSE(Checkpoint::decode(bytes).is_ok());
}

TEST(Checkpoint, MissingFieldsFallBack) {
  Checkpoint ck;
  EXPECT_EQ(ck.get_i64("nope", -1), -1);
  EXPECT_DOUBLE_EQ(ck.get_f64("nope", 9.5), 9.5);
  EXPECT_EQ(ck.get_string("nope", "dflt"), "dflt");
  EXPECT_EQ(ck.get_blob("nope"), nullptr);
}

TEST(Checkpoint, EncodedSizeGrowsWithPayload) {
  Checkpoint small;
  small.set_i64("i", 1);
  Checkpoint big = small;
  big.set_blob("buf", std::vector<std::uint8_t>(4096, 0x5A));
  EXPECT_GT(big.encoded_size(), small.encoded_size() + 4000);
}

// ---------------------------------------------------------------- thread pool

TEST(ThreadPool, ExecutesAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { ++count; });
    }
    pool.shutdown();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, RejectsAfterShutdown) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(ThreadPool, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

// ---------------------------------------------------------------- token bucket

TEST(TokenBucket, BurstPassesWithoutDelay) {
  TokenBucket tb(mb_per_sec(100), 1_MiB, TokenBucket::Mode::kVirtual);
  EXPECT_DOUBLE_EQ(tb.acquire(512_KiB), 0.0);
}

TEST(TokenBucket, OverBurstAccruesDelay) {
  TokenBucket tb(mb_per_sec(100), 1_MiB, TokenBucket::Mode::kVirtual);
  tb.acquire(1_MiB);  // drain the bucket
  const Seconds wait = tb.acquire(100_MiB);
  EXPECT_NEAR(wait, 1.0, 0.05);  // 100 MiB at 100 MiB/s
  EXPECT_GE(tb.accrued_delay(), wait);
}

TEST(TokenBucket, DisabledWhenRateNonPositive) {
  TokenBucket tb(0.0, 0, TokenBucket::Mode::kVirtual);
  EXPECT_DOUBLE_EQ(tb.acquire(1_GiB), 0.0);
  EXPECT_DOUBLE_EQ(tb.accrued_delay(), 0.0);
}

TEST(TokenBucket, SequentialAcquiresAccumulate) {
  TokenBucket tb(mb_per_sec(10), 0, TokenBucket::Mode::kVirtual);
  Seconds total = 0;
  for (int i = 0; i < 5; ++i) total += tb.acquire(10_MiB);
  EXPECT_NEAR(total, 5.0, 0.1);
}

// ---------------------------------------------------------------- clock

TEST(Clock, WallClockNowIsMonotonic) {
  Clock& wc = wall_clock();
  const Seconds a = wc.now();
  const Seconds b = wc.now();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Clock, GlobalDefaultsToWallClock) {
  EXPECT_EQ(&clock(), &wall_clock());
}

TEST(Clock, WallClockSpawnRunsAnOsThread) {
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id ran_on;
  Participant p = wall_clock().spawn([&] { ran_on = std::this_thread::get_id(); }, "worker");
  ASSERT_TRUE(p.joinable());
  p.join();
  EXPECT_FALSE(p.joinable());
  EXPECT_NE(ran_on, std::thread::id{});
  EXPECT_NE(ran_on, self);
  EXPECT_EQ(wall_clock().status().participants, 0);
}

TEST(Clock, ScopedOverrideInstallsAndRestores) {
  VirtualClock vc;
  {
    ScopedClockOverride override_clock(vc);
    EXPECT_EQ(&clock(), static_cast<Clock*>(&vc));
  }
  EXPECT_EQ(&clock(), &wall_clock());
}

TEST(VirtualClock, AdvanceByMovesNow) {
  VirtualClock vc;
  EXPECT_DOUBLE_EQ(vc.now(), 0.0);
  vc.advance_by(1.5);
  EXPECT_DOUBLE_EQ(vc.now(), 1.5);
  vc.advance_to(1.0);  // never goes backwards
  EXPECT_DOUBLE_EQ(vc.now(), 1.5);
  vc.advance_to(3.0);
  EXPECT_DOUBLE_EQ(vc.now(), 3.0);
}

TEST(VirtualClock, SleepAutoAdvancesWithNoParticipants) {
  // With zero registered participants there is nobody to wait for: a timed
  // wait (or sleep) jumps virtual time straight to its deadline.
  VirtualClock vc;
  vc.sleep(2.0);
  EXPECT_DOUBLE_EQ(vc.now(), 2.0);
  vc.sleep(0.5);
  EXPECT_DOUBLE_EQ(vc.now(), 2.5);
}

TEST(VirtualClock, TimedWaitExpiresAtVirtualDeadline) {
  VirtualClock vc;
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock lock(mu);
  const bool pred = vc.timed_wait(cv, lock, 4.0, [] { return false; });
  EXPECT_FALSE(pred);  // expired, predicate still false
  EXPECT_DOUBLE_EQ(vc.now(), 4.0);
}

TEST(VirtualClock, ParticipantQuiescenceJumpsToEarliestDeadline) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  std::mutex mu;
  std::condition_variable cv;
  int order = 0;
  int first = 0;
  int second = 0;

  // Spawned fibers first run when the clock thread blocks (here, in
  // join), so both deadlines are armed before virtual time moves.
  Participant a = vc.spawn([&] {
    std::unique_lock lock(mu);
    vc.timed_wait(cv, lock, 1.0, [] { return false; });
    first = ++order;
  }, "a");
  Participant b = vc.spawn([&] {
    std::unique_lock lock(mu);
    vc.timed_wait(cv, lock, 5.0, [] { return false; });
    second = ++order;
  }, "b");
  a.join();  // quiescent -> jump to 1.0 (wakes a), later to 5.0
  b.join();
  EXPECT_DOUBLE_EQ(vc.now(), 5.0);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
  EXPECT_GE(vc.status().advances, 2u);
}

TEST(VirtualClock, WakeAllDeliversPredicateWithoutTimePassing) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  bool pred_result = false;

  Participant waiter = vc.spawn([&] {
    std::unique_lock lock(mu);
    pred_result = vc.timed_wait(cv, lock, 100.0, [&] { return ready; });
  }, "waiter");
  vc.yield();  // the waiter runs until it parks; the clock thread stays runnable
  EXPECT_EQ(vc.status().blocked, 1);
  {
    std::lock_guard lock(mu);
    ready = true;
  }
  vc.wake_all(cv);
  waiter.join();
  EXPECT_TRUE(pred_result);      // woke via the poke, not the deadline
  EXPECT_DOUBLE_EQ(vc.now(), 0.0);  // no virtual time passed
}

TEST(VirtualClock, UntimedWaitWakesOnPoke) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;

  Participant waiter = vc.spawn([&] {
    std::unique_lock lock(mu);
    vc.wait(cv, lock, [&] { return ready; });
  }, "waiter");
  vc.yield();
  {
    std::lock_guard lock(mu);
    ready = true;
  }
  vc.wake_one(cv);
  waiter.join();
  EXPECT_DOUBLE_EQ(vc.now(), 0.0);
}

TEST(VirtualClock, StatusReportsWaiters) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;

  Participant waiter = vc.spawn([&] {
    std::unique_lock lock(mu);
    vc.wait(cv, lock, [&] { return done; });
  }, "waiter");
  vc.yield();
  const Clock::Status st = vc.status();
  EXPECT_EQ(st.participants, 1);
  EXPECT_EQ(st.blocked, 1);
  {
    std::lock_guard lock(mu);
    done = true;
  }
  vc.wake_all(cv);
  waiter.join();
  EXPECT_EQ(vc.status().participants, 0);
}

// The run rule: FIFO by when a participant became runnable, ties (one wake
// or one deadline making several runnable) by spawn order.
TEST(VirtualClock, RunRuleIsFifoWithTiesBySpawnOrder) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  std::string log;

  const std::vector<std::string> names = {"a", "b", "c"};
  std::vector<Participant> fibers;
  for (std::size_t i = 0; i < names.size(); ++i) {
    fibers.push_back(vc.spawn([&, i] {
      log += names[i];
      vc.sleep(1.0);  // one deadline for all three: fires in spawn order
      log += names[i];
      vc.sleep(0.1 * static_cast<double>(3 - i));  // c wakes first, then b, a
      log += names[i];
      std::unique_lock lock(mu);
      vc.wait(cv, lock, [&] { return go; });  // parked c, b, a; one wake for all
      log += names[i];
    }, names[i]));
  }
  vc.sleep(2.0);
  EXPECT_EQ(log, "abcabccba");
  {
    std::lock_guard lock(mu);
    go = true;
  }
  vc.wake_all(cv);
  for (auto& f : fibers) f.join();
  EXPECT_EQ(log, "abcabccbaabc");
  EXPECT_DOUBLE_EQ(vc.now(), 2.0);
}

// Fibers switching among themselves keep their own stacks and see each
// other's heap writes — the test the sanitizer tiers run to exercise the
// ASan stack-switch and TSan fiber annotations.
TEST(VirtualClock, FibersKeepStackAndHeapStateAcrossSwitches) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  constexpr int kFibers = 4;
  constexpr int kRounds = 40;
  auto shared = std::make_unique<std::vector<std::uint64_t>>(kFibers * kRounds, 0);
  std::uint64_t total = 0;  // written by every fiber, ordered only by the switches
  std::vector<std::uint64_t> stack_sums(kFibers, 0);

  std::vector<Participant> fibers;
  for (int f = 0; f < kFibers; ++f) {
    fibers.push_back(vc.spawn([&, f] {
      std::uint64_t frame[512];
      for (int r = 0; r < kRounds; ++r) {
        for (std::uint64_t& x : frame) x = static_cast<std::uint64_t>(f * 1000 + r);
        (*shared)[static_cast<std::size_t>(f * kRounds + r)] = static_cast<std::uint64_t>(r);
        total += 1;
        vc.sleep(0.001 * (f + 1));  // interleave with the other fibers
        for (const std::uint64_t x : frame) stack_sums[f] += x;
      }
    }, "toucher " + std::to_string(f)));
  }
  for (auto& p : fibers) p.join();

  EXPECT_EQ(total, static_cast<std::uint64_t>(kFibers * kRounds));
  for (int f = 0; f < kFibers; ++f) {
    std::uint64_t expect = 0;
    for (int r = 0; r < kRounds; ++r) expect += 512u * static_cast<std::uint64_t>(f * 1000 + r);
    EXPECT_EQ(stack_sums[f], expect) << "fiber " << f;
    for (int r = 0; r < kRounds; ++r) {
      EXPECT_EQ((*shared)[static_cast<std::size_t>(f * kRounds + r)], static_cast<std::uint64_t>(r));
    }
  }
}

// Each fiber keeps its own C++ exception state across a switch: a fiber
// suspended inside a catch handler rethrows its own exception, not the one
// another fiber is handling meanwhile.
TEST(VirtualClock, FibersSuspendedInCatchHandlersKeepTheirOwnExceptions) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  std::string a_msg;
  std::string b_msg;
  auto handler = [&vc](const char* what, Seconds nap, std::string& seen) {
    try {
      throw std::runtime_error(what);
    } catch (...) {
      vc.sleep(nap);  // the other fiber throws and catches meanwhile
      try {
        throw;
      } catch (const std::exception& e) {
        seen = e.what();
      }
    }
  };
  Participant a = vc.spawn([&] { handler("a", 1.0, a_msg); }, "a");
  Participant b = vc.spawn([&] { handler("b", 2.0, b_msg); }, "b");
  a.join();
  b.join();
  EXPECT_EQ(a_msg, "a");
  EXPECT_EQ(b_msg, "b");
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

TEST(VirtualClockDeathTest, ExceptionEscapingAFiberEndsTheProcessNamingIt) {
  EXPECT_DEATH(
      {
        VirtualClock vc;
        Participant p = vc.spawn([] { throw std::runtime_error("boom"); }, "thrower");
        p.join();
      },
      "thrower.*boom");
}

TEST(VirtualClockDeathTest, DeadlockAbortsNamingTheBlockedParticipants) {
  EXPECT_DEATH(
      {
        VirtualClock vc;
        std::mutex mu;
        std::condition_variable cv;
        Participant p = vc.spawn([&] {
          std::unique_lock lock(mu);
          vc.wait(cv, lock, [] { return false; });
        }, "forgotten");
        p.join();
      },
      "deadlock.*forgotten.*wait");
}

TEST(VirtualClockDeathTest, BlockingFromAForeignThreadAborts) {
  EXPECT_DEATH(
      {
        VirtualClock vc;
        std::thread t([&] { vc.sleep(1.0); });
        t.join();
      },
      "sleep\\(\\) called from an OS thread");
}

TEST(VirtualClockDeathTest, WaitingWhileHoldingAnotherMutexIsNamed) {
  EXPECT_DEATH(
      {
        VirtualClock vc;
        std::mutex mu;
        std::condition_variable cv;
        bool ready = false;
        Participant p = vc.spawn([&] {
          std::lock_guard held(mu);
          ready = true;
          vc.wake_all(cv);
          vc.sleep(1.0);  // suspended while holding mu
        }, "holder");
        std::unique_lock lock(mu);
        vc.wait(cv, lock, [&] { return ready; });
      },
      "woke in wait\\(\\) but its mutex is held");
}

}  // namespace
}  // namespace dosas
