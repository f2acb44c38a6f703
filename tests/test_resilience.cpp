// Failure-injection tests: transient data-server faults during active I/O,
// client-side retry, persistent-fault propagation, the real runtime's
// interruption-hysteresis knob, and the seed-driven fault-injection /
// recovery machinery (throwing kernels, node crashes, net errors, stalls,
// corrupted checkpoints — every request completes or fails typed).
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>

#include "common/clock.hpp"
#include "common/serialize.hpp"
#include "core/cluster.hpp"
#include "fault/fault.hpp"
#include "kernels/sum.hpp"
#include "obs/flight_recorder.hpp"
#include "rpc/inprocess.hpp"
#include "server/storage_server.hpp"

namespace dosas::core {
namespace {

std::unique_ptr<Cluster> cluster_with_data(SchemeKind scheme, std::size_t count,
                                           Bytes server_chunk = 64_KiB) {
  ClusterConfig cfg;
  cfg.scheme = scheme;
  cfg.server_chunk_size = server_chunk;
  cfg.client_chunk_size = 64_KiB;
  auto cluster = std::make_unique<Cluster>(cfg);
  auto meta = pfs::write_doubles(cluster->pfs_client(), "/data", count,
                                 [](std::size_t i) { return static_cast<double>(i % 7); });
  EXPECT_TRUE(meta.is_ok());
  return cluster;
}

double expected_sum(std::size_t count) {
  double s = 0;
  for (std::size_t i = 0; i < count; ++i) s += static_cast<double>(i % 7);
  return s;
}

// ---------------------------------------------------------------- fault injection

TEST(FaultInjection, DataServerFailsExactlyNReads) {
  pfs::DataServer ds(0);
  ASSERT_TRUE(ds.write_object(1, 0, std::vector<std::uint8_t>(100, 1)).is_ok());
  ds.fail_next_reads(2);
  EXPECT_EQ(ds.read_object(1, 0, 10).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(ds.read_object(1, 0, 10).status().code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(ds.read_object(1, 0, 10).is_ok());
  EXPECT_EQ(ds.injected_failures(), 2u);
}

TEST(FaultInjection, ActiveRequestFailsMidKernelThenClientRetries) {
  // The server's kernel loop hits an injected brownout partway through;
  // the response is kFailed; the ASC retries the whole extent as normal
  // I/O + a local kernel and still returns the right answer.
  constexpr std::size_t kCount = 100'000;  // ~781 KiB, 13 server chunks
  auto cluster = cluster_with_data(SchemeKind::kActive, kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());

  // Fail exactly one read: the server's 3rd chunk read. By the time the
  // client retries, service has recovered.
  cluster->fs().data_server(0).fail_next_reads(1);

  auto out = cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum");
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  auto sum = kernels::SumResult::decode(out.value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, kCount);
  EXPECT_NEAR(sum.value().sum, expected_sum(kCount), 1e-6);

  const auto cs = cluster->asc().stats();
  EXPECT_EQ(cs.failed_remote_retries, 1u);
  EXPECT_EQ(cluster->storage_server(0).stats().active_failed, 1u);
  EXPECT_EQ(cluster->fs().data_server(0).injected_failures(), 1u);
}

TEST(FaultInjection, PersistentFaultPropagatesOriginalError) {
  constexpr std::size_t kCount = 50'000;
  auto cluster = cluster_with_data(SchemeKind::kActive, kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());

  // Enough failures to kill the active attempt AND the local retry.
  cluster->fs().data_server(0).fail_next_reads(1000);

  auto out = cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum");
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), ErrorCode::kUnavailable);
}

TEST(FaultInjection, UnknownOperationIsNotRetried) {
  // Non-transient failures (bad kernel name) must not burn a local retry.
  auto cluster = cluster_with_data(SchemeKind::kActive, 1000);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());
  auto out = cluster->asc().read_ex(meta.value(), 0, meta.value().size, "fft");
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(cluster->asc().stats().failed_remote_retries, 0u);
}

TEST(FaultInjection, DemotedPathFaultPropagates) {
  // TS scheme: the request demotes, and the *client's* normal-I/O loop
  // hits the fault. No silent wrong answers.
  auto cluster = cluster_with_data(SchemeKind::kTraditional, 50'000);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());
  cluster->fs().data_server(0).fail_next_reads(1000);
  auto out = cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum");
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), ErrorCode::kUnavailable);
}

TEST(FaultInjection, TransientFaultOnNormalReadSurfacesToCaller) {
  // Plain reads have no kernel to re-run; the error reaches the caller
  // directly (retry policy belongs to the application there).
  auto cluster = cluster_with_data(SchemeKind::kDosas, 10'000);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());
  cluster->fs().data_server(0).fail_next_reads(1);
  auto out = cluster->asc().read(meta.value(), 0, 4096);
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), ErrorCode::kUnavailable);
}

// ---------------------------------------------------------------- hysteresis

TEST(Hysteresis, NeverInterruptKeepsKernelsRunning) {
  // interrupt_min_remaining = 1.0: running kernels are never interrupted,
  // only queued requests get demoted — so no response can be kInterrupted.
  pfs::FileSystem fs(1, 64_KiB);
  pfs::Client client(fs);
  auto meta = pfs::write_doubles(client, "/data", 2 * 1024 * 1024,  // 16 MiB
                                 [](std::size_t i) { return static_cast<double>(i % 5); });
  ASSERT_TRUE(meta.is_ok());

  server::ContentionEstimator::Config ce;
  ce.optimizer = "exhaustive";
  ce.derate_by_external_load = false;
  server::StorageServer::Config sc;
  sc.cores = 1;
  sc.chunk_size = 8_KiB;
  sc.interrupt_min_remaining = 1.0;
  server::StorageServer server(fs, 0, kernels::Registry::with_builtins(), ce,
                               server::RateTable::paper_rates(), sc);

  // Async submissions from one thread: the first request is admitted and
  // starts on the single core before later arrivals deepen the queue — no
  // wall-clock stagger needed.
  constexpr int kClients = 6;
  std::vector<server::ActiveIoResponse> resp(kClients);
  std::mutex done_mu;
  std::condition_variable done_cv;
  int done = 0;
  for (int i = 0; i < kClients; ++i) {
    server::ActiveIoRequest req;
    req.handle = meta.value().handle;
    req.length = meta.value().size;
    req.operation = "gaussian2d:width=2048";
    server.submit_active(std::move(req), [&, i](server::ActiveIoResponse r) {
      std::lock_guard lock(done_mu);
      resp[static_cast<std::size_t>(i)] = std::move(r);
      ++done;
      clock().wake_all(done_cv);
    });
  }
  {
    std::unique_lock lock(done_mu);
    clock().wait(done_cv, lock, [&] { return done == kClients; });
  }

  for (const auto& r : resp) {
    EXPECT_NE(r.outcome, server::ActiveOutcome::kInterrupted);
    EXPECT_NE(r.outcome, server::ActiveOutcome::kFailed);
  }
  EXPECT_EQ(server.stats().active_interrupted, 0u);
  // Demotions still happen — only the interruption channel is closed.
  EXPECT_GT(server.stats().active_rejected, 0u);
}

// ------------------------------------------------- e2e fault injection

struct FaultyOpts {
  std::string spec;            ///< --fault-spec string; empty = no injector
  int retries = 0;             ///< extra remote attempts beyond the first
  Seconds timeout = 0;         ///< per-request deadline (0 = wait forever)
  int circuit_threshold = 0;   ///< demote-to-local breaker (0 = off)
};

std::unique_ptr<Cluster> cluster_with_faults(const FaultyOpts& opts, std::size_t count) {
  ClusterConfig cfg;
  cfg.scheme = SchemeKind::kActive;
  cfg.server_chunk_size = 64_KiB;
  cfg.client_chunk_size = 64_KiB;
  if (!opts.spec.empty()) {
    auto spec = fault::FaultSpec::parse(opts.spec);
    EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
    cfg.faults = std::make_shared<fault::FaultInjector>(spec.value());
  }
  cfg.client_retry.max_attempts = 1 + opts.retries;
  cfg.request_timeout = opts.timeout;
  cfg.circuit_threshold = opts.circuit_threshold;
  auto cluster = std::make_unique<Cluster>(cfg);
  auto meta = pfs::write_doubles(cluster->pfs_client(), "/data", count,
                                 [](std::size_t i) { return static_cast<double>(i % 7); });
  EXPECT_TRUE(meta.is_ok());
  return cluster;
}

void expect_sum_ok(Result<std::vector<std::uint8_t>> out, std::size_t count) {
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  auto sum = kernels::SumResult::decode(out.value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, count);
  EXPECT_NEAR(sum.value().sum, expected_sum(count), 1e-6);
}

TEST(FaultE2E, ThrowingKernelFailsTypedAndClientRecoversLocally) {
  // Every remote kernel launch throws. The worker survives (satellite a),
  // the server answers kFailed/kInternal instead of std::terminate-ing,
  // and the client finishes the request locally.
  constexpr std::size_t kCount = 50'000;
  auto cluster = cluster_with_faults({.spec = "seed=1,kernel_throw=1"}, kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());

  expect_sum_ok(cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum"), kCount);

  EXPECT_EQ(cluster->storage_server(0).stats().kernel_exceptions, 1u);
  EXPECT_EQ(cluster->asc().stats().failed_remote_retries, 1u);
  EXPECT_EQ(cluster->fault_injector()->stats().kernel_throws, 1u);

  // The worker pool is still alive: a clean follow-up request would also
  // throw (P=1), so just confirm the server keeps answering at all.
  auto again = cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum");
  expect_sum_ok(std::move(again), kCount);
  EXPECT_EQ(cluster->storage_server(0).stats().kernel_exceptions, 2u);
}

TEST(FaultE2E, CrashedNodeOpensCircuitAndClientDemotesToLocalCompute) {
  // Node 0's active runtime is down from the start; its PFS daemon keeps
  // serving. After one kUnavailable the breaker opens and later requests
  // go straight to normal I/O + local kernel — all answers stay correct.
  constexpr std::size_t kCount = 30'000;
  auto cluster = cluster_with_faults(
      {.spec = "seed=2,crash=0", .circuit_threshold = 1}, kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());

  for (int i = 0; i < 4; ++i) {
    expect_sum_ok(cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum"), kCount);
  }

  const auto cs = cluster->asc().stats();
  EXPECT_GE(cs.node_down_demotes, 2u);         // circuit-open short-circuits
  EXPECT_GE(cluster->fault_injector()->stats().crash_rejections, 1u);
  EXPECT_EQ(cs.completed_remote, 0u);

  // Restore the node; re-probes close the circuit and offload resumes.
  cluster->fault_injector()->restore_node(0);
  for (int i = 0; i < 8; ++i) {
    expect_sum_ok(cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum"), kCount);
  }
  EXPECT_GT(cluster->asc().stats().completed_remote, 0u);
}

TEST(FaultE2E, NodeDiesMidKernelAndClientResumesFromCheckpoint) {
  // crash=0@2: the node goes down as it starts its 2nd kernel. That kernel
  // drains gracefully (kInterrupted + checkpoint); the client restores the
  // checkpoint and finishes the extent locally. A 3rd request is refused
  // at arrival and the client retries locally.
  constexpr std::size_t kCount = 50'000;
  auto cluster = cluster_with_faults({.spec = "seed=3,crash=0@2"}, kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());

  for (int i = 0; i < 3; ++i) {
    expect_sum_ok(cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum"), kCount);
  }

  const auto cs = cluster->asc().stats();
  EXPECT_EQ(cs.completed_remote, 1u);      // request #1
  EXPECT_EQ(cs.resumed_local, 1u);         // request #2, checkpoint resume
  EXPECT_EQ(cs.failed_remote_retries, 1u); // request #3, refused at arrival
  EXPECT_GE(cluster->storage_server(0).stats().crash_rejections, 1u);
}

TEST(FaultE2E, TransientNetErrorsRecoverViaRetryWithBackoff) {
  // 40% of active RPCs are lost in the network; with a retry budget the
  // client re-sends with capped exponential backoff and every request
  // still completes with the right answer.
  constexpr std::size_t kCount = 20'000;
  auto cluster = cluster_with_faults(
      {.spec = "seed=4,net_error=0.4", .retries = 5}, kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());

  for (int i = 0; i < 6; ++i) {
    expect_sum_ok(cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum"), kCount);
  }

  const auto cs = cluster->asc().stats();
  EXPECT_GT(cs.remote_retries, 0u);
  EXPECT_GT(cs.backoff_total, 0.0);  // accounted, not slept (virtual mode)
  EXPECT_GT(cluster->fault_injector()->stats().net_errors, 0u);
}

TEST(FaultE2E, ExhaustedRetriesFallBackLocallyThenFailTyped) {
  // Every RPC is lost (net_error=1). The retry budget burns down, the
  // exhaustion is counted, and the client still recovers via local
  // compute. Once the data path faults too, the caller gets a *typed*
  // kUnavailable — never a hang, never a silent wrong answer.
  constexpr std::size_t kCount = 20'000;
  auto cluster = cluster_with_faults(
      {.spec = "seed=5,net_error=1", .retries = 2}, kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());

  expect_sum_ok(cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum"), kCount);
  auto cs = cluster->asc().stats();
  EXPECT_EQ(cs.remote_retries, 2u);       // attempts 2 and 3
  EXPECT_EQ(cs.exhausted_retries, 1u);
  EXPECT_EQ(cs.failed_remote_retries, 1u);

  cluster->fs().data_server(0).fail_next_reads(1000);
  auto out = cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum");
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), ErrorCode::kUnavailable);
}

TEST(FaultE2E, StallingNodeHitsDeadlineAndClientRecovers) {
  // The node stalls 40 ms at every kernel chunk; the request deadline is
  // 10 ms. The client gets kTimedOut, the server interrupts the abandoned
  // kernel, and the answer is computed locally.
  constexpr std::size_t kCount = 50'000;
  auto cluster = cluster_with_faults(
      {.spec = "seed=6,stall=1,stall_ms=40", .timeout = 0.010}, kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());

  expect_sum_ok(cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum"), kCount);

  EXPECT_GE(cluster->asc().stats().timed_out, 1u);
  EXPECT_GE(cluster->storage_server(0).stats().active_timed_out, 1u);
  EXPECT_GE(cluster->fault_injector()->stats().stalls, 1u);
}

TEST(FaultE2E, DeadlineMissDumpsTheFlightRecorder) {
  // The deadline watchdog is a crash-dump site: when it cancels a request
  // past its deadline it must trigger a flight-recorder dump that carries
  // the request's recent history (it was queued, its kernel launched, a
  // stall was injected) so the miss is debuggable post-hoc.
  auto& fr = obs::FlightRecorder::global();
  fr.clear();
  std::mutex cap_mu;
  std::string captured;
  fr.set_sink([&](const std::string& text) {
    std::lock_guard lock(cap_mu);
    captured += text;
  });

  constexpr std::size_t kCount = 50'000;
  auto cluster = cluster_with_faults(
      {.spec = "seed=6,stall=1,stall_ms=40", .timeout = 0.010}, kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());
  expect_sum_ok(cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum"), kCount);
  EXPECT_GE(cluster->asc().stats().timed_out, 1u);

  // The watchdog dumps after it unblocks the client; give it a beat.
  for (int i = 0; i < 2000; ++i) {
    {
      std::lock_guard lock(cap_mu);
      if (captured.find("deadline-miss") != std::string::npos) break;
    }
    clock().sleep(0.001);
  }
  fr.set_sink(nullptr);
  std::lock_guard lock(cap_mu);
  EXPECT_GE(fr.dumps_triggered(), 1u);
  EXPECT_NE(captured.find("exceeded its deadline"), std::string::npos);
  // The dump carries the doomed request's last recorded events.
  EXPECT_NE(captured.find("active request queued"), std::string::npos);
  EXPECT_NE(captured.find("kernel launched"), std::string::npos);
  EXPECT_NE(captured.find("stall"), std::string::npos);
  EXPECT_NE(captured.find("deadline-miss"), std::string::npos);
  fr.clear();
}

TEST(FaultE2E, CorruptedCheckpointIsDetectedAndRestartedCleanly) {
  // The node dies as it starts kernel #1 and the checkpoint it ships is
  // garbled in flight. The Checkpoint checksum catches it (kCorrupted),
  // the client restarts the kernel locally from the extent start — the
  // corruption is *counted*, never silently restored as zeros.
  constexpr std::size_t kCount = 50'000;
  auto cluster =
      cluster_with_faults({.spec = "seed=7,corrupt_ckpt=1,crash=0@1"}, kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());

  expect_sum_ok(cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum"), kCount);

  EXPECT_EQ(cluster->asc().stats().checkpoint_corrupt_restarts, 1u);
  EXPECT_EQ(cluster->fault_injector()->stats().checkpoints_corrupted, 1u);
}

TEST(FaultE2E, ServerRejectsCorruptResumeCheckpointWithTypedError) {
  // Cooperative resumption with a bit-flipped checkpoint: the server must
  // answer kFailed/kCorrupted, not restore default field values and
  // silently recompute from zero.
  constexpr std::size_t kCount = 10'000;
  auto cluster = cluster_with_faults({}, kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());

  Checkpoint cp;
  cp.set_f64("sum", 123.0);
  cp.set_i64("count", 45);
  auto bytes = cp.encode();
  bytes.back() ^= 0xFF;  // flip one checksum byte

  server::ActiveIoRequest req;
  req.handle = meta.value().handle;
  req.length = meta.value().size;
  req.operation = "sum";
  req.resume_checkpoint = bytes;
  req.resume_from = 4096;
  rpc::InProcessTransport transport({&cluster->storage_server(0)});
  rpc::Envelope env;
  env.kind = rpc::OpKind::kActiveIo;
  env.active = req;
  auto resp = transport.submit(std::move(env)).wait().active;
  EXPECT_EQ(resp.outcome, server::ActiveOutcome::kFailed);
  EXPECT_EQ(resp.status.code(), ErrorCode::kCorrupted);
}

TEST(FaultE2E, FaultStormEveryRequestCompletesOrFailsTyped) {
  // The acceptance scenario: kernel throws, lost RPCs, stragglers and
  // checkpoint corruption all at once. Every request must complete with
  // the right answer or fail with a typed error — zero lost, zero hung
  // (the test finishing at all proves no hangs).
  constexpr std::size_t kCount = 30'000;
  auto cluster = cluster_with_faults(
      {.spec = "seed=8,kernel_throw=0.3,net_error=0.3,stall=0.2,stall_ms=5,corrupt_ckpt=1",
       .retries = 3,
       .timeout = 0.050},
      kCount);
  auto meta = cluster->pfs_client().open("/data");
  ASSERT_TRUE(meta.is_ok());

  constexpr int kRequests = 20;
  int ok = 0, typed_failures = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto out = cluster->asc().read_ex(meta.value(), 0, meta.value().size, "sum");
    if (out.is_ok()) {
      auto sum = kernels::SumResult::decode(out.value());
      ASSERT_TRUE(sum.is_ok());
      EXPECT_NEAR(sum.value().sum, expected_sum(kCount), 1e-6);
      ++ok;
    } else {
      EXPECT_NE(out.status().code(), ErrorCode::kOk);
      ++typed_failures;
    }
  }
  EXPECT_EQ(ok + typed_failures, kRequests);
  // With the data path healthy, every injected fault is recoverable.
  EXPECT_EQ(ok, kRequests);
  EXPECT_GT(cluster->fault_injector()->stats().total(), 0u);
}

}  // namespace
}  // namespace dosas::core
