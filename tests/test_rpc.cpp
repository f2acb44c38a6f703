// Tests for the rpc transport layer: PendingReply semantics, cancellation
// of queued server work, deadline enforcement (queued and running),
// out-of-order completion under striped fan-out, and batch coalescing
// equivalence with the synchronous path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/active_client.hpp"
#include "common/clock.hpp"
#include "kernels/sum.hpp"
#include "pfs/client.hpp"
#include "rpc/inprocess.hpp"
#include "rpc/interceptors.hpp"
#include "server/storage_server.hpp"

namespace dosas::rpc {
namespace {

server::ContentionEstimator::Config ce_config(const std::string& optimizer = "all-active") {
  server::ContentionEstimator::Config c;
  c.bandwidth = mb_per_sec(118.0);
  c.optimizer = optimizer;
  c.derate_by_external_load = false;
  return c;
}

/// One storage server over a 1-server volume with `count` doubles at
/// "/data", behind a bare InProcessTransport. The all-active policy keeps
/// the scheduler out of the way: outcomes here are driven by the transport.
struct Fixture {
  explicit Fixture(std::size_t count = 4096, server::StorageServer::Config sc = {})
      : fs(1, 64_KiB), client(fs) {
    auto m = pfs::write_doubles(client, "/data", count,
                                [](std::size_t i) { return static_cast<double>(i % 97); });
    EXPECT_TRUE(m.is_ok());
    meta = m.value();
    server = std::make_unique<server::StorageServer>(fs, 0, kernels::Registry::with_builtins(),
                                                     ce_config(), server::RateTable::paper_rates(),
                                                     sc);
    transport = std::make_unique<InProcessTransport>(
        std::vector<server::StorageServer*>{server.get()});
  }

  Envelope active_env(const std::string& operation, Seconds deadline = 0) const {
    Envelope env;
    env.target = 0;
    env.kind = OpKind::kActiveIo;
    env.active.handle = meta.handle;
    env.active.object_offset = 0;
    env.active.length = meta.size;
    env.active.operation = operation;
    env.deadline = deadline;
    return env;
  }

  pfs::FileSystem fs;
  pfs::Client client;
  pfs::FileMeta meta;
  std::unique_ptr<server::StorageServer> server;
  std::unique_ptr<InProcessTransport> transport;
};

// -------------------------------------------------------------- PendingReply

TEST(PendingReply, FirstCompletionWinsAndCallbacksFireInOrder) {
  auto reply = PendingReply::make(OpKind::kActiveIo);
  EXPECT_TRUE(reply.valid());
  EXPECT_FALSE(reply.ready());

  std::vector<int> order;
  reply.on_complete([&](Reply&) { order.push_back(1); });
  reply.on_complete([&](Reply&) { order.push_back(2); });

  Reply first;
  first.kind = OpKind::kActiveIo;
  first.active.outcome = server::ActiveOutcome::kCompleted;
  first.active.result = BufferRef::adopt({1, 2, 3});
  EXPECT_TRUE(reply.complete(std::move(first)));
  EXPECT_TRUE(reply.ready());

  Reply second;
  second.kind = OpKind::kActiveIo;
  second.active.outcome = server::ActiveOutcome::kFailed;
  EXPECT_FALSE(reply.complete(std::move(second)));  // first completion stands

  // A callback registered after completion fires immediately.
  reply.on_complete([&](Reply&) { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));

  auto r = reply.wait();
  EXPECT_EQ(r.active.outcome, server::ActiveOutcome::kCompleted);
  EXPECT_EQ(r.active.result, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(PendingReply, CancelInvokesCancellerAndCompletesWithReason) {
  auto reply = PendingReply::make(OpKind::kActiveIo);
  bool canceller_ran = false;
  reply.set_canceller([&](const Status&) {
    canceller_ran = true;
    return true;
  });

  EXPECT_TRUE(reply.cancel(error(ErrorCode::kCancelled, "withdrawn by test")));
  EXPECT_TRUE(canceller_ran);
  auto r = reply.wait();
  EXPECT_EQ(r.active.outcome, server::ActiveOutcome::kFailed);
  EXPECT_EQ(r.status().code(), ErrorCode::kCancelled);
}

TEST(PendingReply, CompletionReleasesCancellerCaptures) {
  // Interceptor cancellers close over session state (RetryTransport's
  // Session, the hedge twin) that itself holds the reply's State — if the
  // canceller outlived completion, the whole retry session would leak as a
  // shared_ptr cycle. Completion must drop it, and a canceller installed
  // after completion (it can never fire) must not be stored either.
  auto reply = PendingReply::make(OpKind::kActiveIo);
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> watch = sentinel;
  reply.set_canceller([sentinel](const Status&) { return false; });
  sentinel.reset();
  EXPECT_FALSE(watch.expired());  // held by the installed canceller

  Reply r;
  r.kind = OpKind::kActiveIo;
  r.active.outcome = server::ActiveOutcome::kCompleted;
  EXPECT_TRUE(reply.complete(std::move(r)));
  EXPECT_TRUE(watch.expired());  // completion released the closure

  auto late = std::make_shared<int>(8);
  std::weak_ptr<int> late_watch = late;
  reply.set_canceller([late](const Status&) { return false; });
  late.reset();
  EXPECT_TRUE(late_watch.expired());  // post-completion install is dropped
}

TEST(PendingReply, CancelAfterCompletionFailsAndKeepsReply) {
  auto reply = PendingReply::make(OpKind::kRead);
  Reply r;
  r.kind = OpKind::kRead;
  r.read.data = BufferRef::adopt({7});
  EXPECT_TRUE(reply.complete(std::move(r)));
  EXPECT_FALSE(reply.cancel(error(ErrorCode::kCancelled, "too late")));
  auto got = reply.wait();
  EXPECT_TRUE(got.read.status.is_ok());
  EXPECT_EQ(got.read.data, (std::vector<std::uint8_t>{7}));
}

// ------------------------------------------------------ cancellation (queued)

TEST(Rpc, CancelQueuedRequestNeverRunsIt) {
  // One worker core: the long gaussian occupies it, so the sum queues
  // behind it and can be withdrawn before it ever launches.
  server::StorageServer::Config sc;
  sc.cores = 1;
  sc.chunk_size = 64_KiB;
  Fixture fx(1u << 21, sc);  // 16 MiB of doubles

  auto long_reply = fx.transport->submit(fx.active_env("gaussian2d:width=32"));
  auto queued_reply = fx.transport->submit(fx.active_env("sum"));

  EXPECT_TRUE(queued_reply.cancel(error(ErrorCode::kCancelled, "caller gave up")));
  auto cancelled = queued_reply.wait();
  EXPECT_EQ(cancelled.active.outcome, server::ActiveOutcome::kFailed);
  EXPECT_EQ(cancelled.status().code(), ErrorCode::kCancelled);

  auto done = long_reply.wait();
  EXPECT_EQ(done.active.outcome, server::ActiveOutcome::kCompleted);

  const auto stats = fx.server->stats();
  EXPECT_EQ(stats.active_cancelled, 1u);
  EXPECT_EQ(stats.active_completed, 1u);
  EXPECT_EQ(stats.active_timed_out, 0u);

  const auto t = stats_of(*fx.transport);
  EXPECT_EQ(t.submitted, 2u);
  EXPECT_EQ(t.completed, 2u);
  EXPECT_EQ(t.cancelled, 1u);
  EXPECT_EQ(t.inflight, 0u);
  EXPECT_EQ(t.inflight_hwm, 2u);
}

// --------------------------------------------------------------- deadlines

TEST(Rpc, DeadlineExpiresQueuedRequest) {
  server::StorageServer::Config sc;
  sc.cores = 1;
  sc.chunk_size = 64_KiB;
  Fixture fx(1u << 21, sc);

  // The gaussian holds the single worker well past the sum's 0.1 ms
  // deadline; the watchdog must fail the queued sum with kTimedOut.
  auto long_reply = fx.transport->submit(fx.active_env("gaussian2d:width=32"));
  auto doomed = fx.transport->submit(fx.active_env("sum", /*deadline=*/1e-4));

  auto expired = doomed.wait();
  EXPECT_EQ(expired.active.outcome, server::ActiveOutcome::kFailed);
  EXPECT_EQ(expired.status().code(), ErrorCode::kTimedOut);

  auto done = long_reply.wait();
  EXPECT_EQ(done.active.outcome, server::ActiveOutcome::kCompleted);

  const auto stats = fx.server->stats();
  EXPECT_EQ(stats.active_timed_out, 1u);
  EXPECT_EQ(stats.active_completed, 1u);
  EXPECT_EQ(stats_of(*fx.transport).timed_out, 1u);
}

TEST(Rpc, DeadlineInterruptsRunningKernel) {
  // On a VirtualClock with calibrated pacing, the 16 MiB gaussian takes
  // ~210 ms of virtual time at Table III's 80 MB/s, so the 0.1 ms deadline
  // fires at one fixed instant, mid-kernel.
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  server::StorageServer::Config sc;
  sc.cores = 1;
  sc.chunk_size = 64_KiB;  // frequent interruption checks
  sc.pace_kernel_rates = true;
  Fixture fx(1u << 21, sc);

  auto doomed = fx.transport->submit(fx.active_env("gaussian2d:width=32", /*deadline=*/1e-4));
  auto expired = doomed.wait();
  EXPECT_EQ(expired.active.outcome, server::ActiveOutcome::kFailed);
  EXPECT_EQ(expired.status().code(), ErrorCode::kTimedOut);

  const auto stats = fx.server->stats();
  EXPECT_EQ(stats.active_timed_out, 1u);
  EXPECT_EQ(stats.active_completed, 0u);
  // The abandoned kernel must actually stop: once the server drains, no
  // new completion may appear.
  while (fx.server->inflight() != 0) clock().sleep(0.001);
  EXPECT_EQ(fx.server->stats().active_completed, 0u);
}

// ------------------------------------------- fan-out / interleaved completion

TEST(Rpc, InterleavedAsyncFanoutMatchesSequential) {
  // 4-node volume, striped file: read_ex_async pipelines one active RPC
  // per node; waiting the handles in reverse order must still produce
  // results bit-identical to the sequential blocking path.
  pfs::FileSystem fs(4, 64_KiB);
  pfs::Client pfs_client(fs);
  constexpr std::size_t kFiles = 8, kCount = 64 * 1024;  // 512 KiB each
  std::vector<pfs::FileMeta> metas;
  for (std::size_t f = 0; f < kFiles; ++f) {
    auto m = pfs::write_doubles(pfs_client, "/f" + std::to_string(f), kCount,
                                [f](std::size_t i) { return static_cast<double>((i + f) % 31); });
    ASSERT_TRUE(m.is_ok());
    metas.push_back(m.value());
  }

  std::vector<std::unique_ptr<server::StorageServer>> servers;
  std::vector<server::StorageServer*> raw;
  for (std::uint32_t i = 0; i < 4; ++i) {
    servers.push_back(std::make_unique<server::StorageServer>(
        fs, i, kernels::Registry::with_builtins(), ce_config(),
        server::RateTable::paper_rates()));
    raw.push_back(servers.back().get());
  }
  auto registry = kernels::Registry::with_builtins();
  client::ActiveClient asc(pfs_client, registry, raw);

  std::vector<std::vector<std::uint8_t>> reference(kFiles);
  for (std::size_t f = 0; f < kFiles; ++f) {
    auto r = asc.read_ex(metas[f], 0, metas[f].size, "sum");
    ASSERT_TRUE(r.is_ok());
    reference[f] = r.value();
  }

  std::vector<client::ActiveClient::PendingReadEx> pending;
  pending.reserve(kFiles);
  for (std::size_t f = 0; f < kFiles; ++f) {
    pending.push_back(asc.read_ex_async(metas[f], 0, metas[f].size, "sum"));
  }
  // Consume in reverse submission order: completions interleave freely.
  for (std::size_t f = kFiles; f-- > 0;) {
    auto r = pending[f].wait();
    ASSERT_TRUE(r.is_ok()) << f;
    EXPECT_EQ(r.value(), reference[f]) << f;
  }

  const auto s = asc.stats();
  EXPECT_EQ(s.reads_ex, 2 * kFiles);
  EXPECT_EQ(s.striped_fanouts, 2 * kFiles);  // every file spans all 4 nodes
  EXPECT_GE(asc.transport_stats().inflight_hwm, 4u);
}

// ------------------------------------------------------------- coalescing

TEST(Rpc, CoalescedBatchMatchesSync) {
  server::StorageServer::Config sc;
  sc.coalesce_identical = true;
  Fixture fx(32 * 1024, sc);

  // Synchronous reference result (its own entry; nothing in flight yet).
  auto reference = fx.transport->submit(fx.active_env("sum")).wait().active;
  ASSERT_EQ(reference.outcome, server::ActiveOutcome::kCompleted);

  // Four identical envelopes in one batch: one kernel run, four replies.
  std::vector<Envelope> envs;
  for (int i = 0; i < 4; ++i) envs.push_back(fx.active_env("sum"));
  auto replies = fx.transport->submit_batch(std::move(envs));
  ASSERT_EQ(replies.size(), 4u);
  for (auto& reply : replies) {
    auto r = reply.wait();
    EXPECT_EQ(r.active.outcome, server::ActiveOutcome::kCompleted);
    EXPECT_EQ(r.active.result, reference.result);
  }

  const auto stats = fx.server->stats();
  EXPECT_EQ(stats.active_coalesced, 3u);  // 3 of 4 rode the first entry
  EXPECT_EQ(stats.active_completed, 5u);  // 1 sync + 4 batch waiters

  const auto t = stats_of(*fx.transport);
  EXPECT_EQ(t.batched, 4u);
  EXPECT_EQ(t.coalesced, 3u);
}

TEST(Rpc, CoalescingOffKeepsEntriesSeparate) {
  Fixture fx(8 * 1024);  // default config: coalescing disabled
  std::vector<Envelope> envs;
  for (int i = 0; i < 3; ++i) envs.push_back(fx.active_env("sum"));
  auto replies = fx.transport->submit_batch(std::move(envs));
  for (auto& reply : replies) {
    EXPECT_EQ(reply.wait().active.outcome, server::ActiveOutcome::kCompleted);
  }
  EXPECT_EQ(fx.server->stats().active_coalesced, 0u);
  EXPECT_EQ(stats_of(*fx.transport).coalesced, 0u);
}

// --------------------------------------------------------- interceptor chain

TEST(Rpc, RetryInterceptorRecoversInjectedLoss) {
  Fixture fx(8 * 1024);

  fault::FaultSpec spec;
  spec.seed = 7;
  spec.net_error = 0.5;  // attempts are lost often, but not always
  auto faults = std::make_shared<fault::FaultInjector>(spec);

  ChainOptions options;
  options.retry.max_attempts = 8;
  options.faults = faults;
  auto chain = make_chain({fx.server.get()}, options);

  // Ten requests: with p=0.5 per attempt and an 8-attempt budget, every
  // one must come back completed, and the deterministic draw sequence is
  // certain to both lose and recover at least one attempt.
  for (int i = 0; i < 10; ++i) {
    auto r = chain.head->submit(fx.active_env("sum")).wait();
    EXPECT_EQ(r.active.outcome, server::ActiveOutcome::kCompleted) << i;
  }

  const auto t = stats_of(*chain.head);
  EXPECT_GE(t.net_faults_injected, 1u);
  EXPECT_GE(t.retries, 1u);
  EXPECT_EQ(t.retries_exhausted, 0u);
}

TEST(Rpc, BreakerOpensAfterConsecutiveUnavailability) {
  Fixture fx(8 * 1024);

  fault::FaultSpec spec;
  spec.seed = 11;
  auto faults = std::make_shared<fault::FaultInjector>(spec);
  faults->crash_node(0);

  ChainOptions options;
  options.circuit_threshold = 3;
  auto chain = make_chain({fx.server.get()}, options);
  fx.server->set_fault_injector(faults);

  ASSERT_NE(chain.breaker, nullptr);
  EXPECT_FALSE(chain.breaker->is_open(0));
  for (int i = 0; i < 3; ++i) {
    auto r = chain.head->submit(fx.active_env("sum")).wait();
    EXPECT_EQ(r.active.outcome, server::ActiveOutcome::kFailed);
    EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
  }
  EXPECT_TRUE(chain.breaker->is_open(0));
  EXPECT_TRUE(chain.breaker->should_short_circuit(0));

  // Recovery: a successful probe closes the circuit again.
  faults->restore_node(0);
  auto r = chain.head->submit(fx.active_env("sum")).wait();
  EXPECT_EQ(r.active.outcome, server::ActiveOutcome::kCompleted);
  EXPECT_FALSE(chain.breaker->is_open(0));
}

TEST(Rpc, TokenBucketChargesExtentBytesExactlyOnce) {
  Fixture fx(4096);  // 32 KiB object on the single data server

  ChainOptions options;
  // Virtual bucket with a deep burst: acquire() is pure accounting here.
  options.links = {std::make_shared<TokenBucket>(mb_per_sec(100.0), 64_MiB)};
  auto chain = make_chain({fx.server.get()}, options);

  Envelope env;
  env.target = 0;
  env.kind = OpKind::kRead;
  env.read.handle = fx.meta.handle;
  env.read.object_offset = 0;
  env.read.length = fx.meta.size;

  auto reply = chain.head->submit(env).wait();
  ASSERT_TRUE(reply.read.status.is_ok());
  const Bytes n = reply.read.data.size();
  EXPECT_EQ(n, fx.meta.size);
  EXPECT_EQ(stats_of(*chain.head).bytes_charged, n);

  // The payload is a ref-counted arena view: copying the reply or slicing
  // the extent shares the slab and must NOT hit the bucket again.
  Reply shared = reply;
  BufferRef view = shared.read.data.slice(0, 1_KiB);
  EXPECT_EQ(view.size(), 1_KiB);
  EXPECT_EQ(stats_of(*chain.head).bytes_charged, n);

  // Charging is exactly once per completed RPC, not per ref: a second
  // read doubles the total.
  auto reply2 = chain.head->submit(env).wait();
  ASSERT_TRUE(reply2.read.status.is_ok());
  EXPECT_EQ(stats_of(*chain.head).bytes_charged, 2 * n);
}

TEST(Rpc, WriteChargesExtentBytesExactlyOnceAndCopiesNothing) {
  Fixture fx(4096);  // 32 KiB object on the single data server

  ChainOptions options;
  options.links = {std::make_shared<TokenBucket>(mb_per_sec(100.0), 64_MiB)};
  // A retry layer in the chain: kWrite must pass through it exactly once
  // (retries act only on active I/O), so the charge below stays single.
  options.retry.max_attempts = 3;
  auto chain = make_chain({fx.server.get()}, options);

  std::vector<std::uint8_t> bytes(8_KiB);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::uint8_t>(i * 31);
  const BufferRef payload = BufferRef::adopt(std::move(bytes));

  const std::uint64_t copied_before = data_bytes_copied();

  Envelope env;
  env.target = 0;
  env.kind = OpKind::kWrite;
  env.write.handle = fx.meta.handle;
  env.write.object_offset = 0;
  env.write.data = payload.slice(0, payload.size());  // a view: shares, never copies

  auto reply = chain.head->submit(std::move(env)).wait();
  ASSERT_TRUE(reply.write.status.is_ok());
  EXPECT_EQ(reply.write.written, 8_KiB);

  // Request-direction bytes hit the link model exactly once, mirroring
  // the read path's single completion-time charge.
  EXPECT_EQ(stats_of(*chain.head).bytes_charged, 8_KiB);

  // Zero copies between submission and the store: the envelope carried a
  // view and serve_write handed its span straight to the data server (the
  // terminal store memcpy is the materialization, not a duplication).
  EXPECT_EQ(data_bytes_copied() - copied_before, 0u);

  // The bytes actually landed — read back through the zero-copy path.
  auto back = fx.client.read_ref(fx.meta, 0, 8_KiB);
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back.value().size(), 8_KiB);
  EXPECT_TRUE(std::memcmp(back.value().data(), payload.data(), 8_KiB) == 0);

  // Exactly once per completed RPC: a second write doubles the total.
  Envelope again;
  again.target = 0;
  again.kind = OpKind::kWrite;
  again.write.handle = fx.meta.handle;
  again.write.object_offset = 8_KiB;
  again.write.data = payload.slice(0, payload.size());
  auto reply2 = chain.head->submit(std::move(again)).wait();
  ASSERT_TRUE(reply2.write.status.is_ok());
  EXPECT_EQ(stats_of(*chain.head).bytes_charged, 2 * 8_KiB);
}

}  // namespace
}  // namespace dosas::rpc
