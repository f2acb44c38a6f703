// Tests for dosas::server — contention estimator behaviour and the
// storage server's active-I/O runtime (completion, rejection at arrival,
// interruption of running kernels, normal I/O service).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "kernels/sum.hpp"
#include "pfs/client.hpp"
#include "rpc/inprocess.hpp"
#include "server/storage_server.hpp"

namespace dosas::server {
namespace {

kernels::Registry builtins() { return kernels::Registry::with_builtins(); }

ContentionEstimator::Config ce_config(const std::string& optimizer = "exhaustive") {
  ContentionEstimator::Config c;
  c.bandwidth = mb_per_sec(118.0);
  c.optimizer = optimizer;
  c.derate_by_external_load = false;  // deterministic unless a test opts in
  return c;
}

/// A cluster-less single server over a 1-server volume with `count`
/// doubles written to "/data", behind a bare in-process transport.
struct Fixture {
  explicit Fixture(std::size_t count = 4096, const std::string& optimizer = "exhaustive",
                   StorageServer::Config sc = {})
      : fs(1, 64_KiB), client(fs) {
    auto m = pfs::write_doubles(client, "/data", count,
                                [](std::size_t i) { return static_cast<double>(i % 97); });
    EXPECT_TRUE(m.is_ok());
    meta = m.value();
    server = std::make_unique<StorageServer>(fs, 0, builtins(), ce_config(optimizer),
                                             RateTable::paper_rates(), sc);
    transport = std::make_unique<rpc::InProcessTransport>(
        std::vector<StorageServer*>{server.get()});
  }

  /// One active RPC, blocking until its reply.
  ActiveIoResponse serve(ActiveIoRequest request) {
    rpc::Envelope env;
    env.kind = rpc::OpKind::kActiveIo;
    env.active = std::move(request);
    return transport->submit(std::move(env)).wait().active;
  }

  pfs::FileSystem fs;
  pfs::Client client;
  pfs::FileMeta meta;
  std::unique_ptr<StorageServer> server;
  std::unique_ptr<rpc::InProcessTransport> transport;  ///< destroyed before the server
};

// ---------------------------------------------------------------- rate table

TEST(RateTable, PaperRatesPresent) {
  const auto t = RateTable::paper_rates();
  ASSERT_TRUE(t.contains("sum"));
  ASSERT_TRUE(t.contains("gaussian2d"));
  EXPECT_DOUBLE_EQ(t.get("sum").value().storage_max, mb_per_sec(860.0));
  EXPECT_DOUBLE_EQ(t.get("gaussian2d").value().compute, mb_per_sec(80.0));
}

TEST(RateTable, UnknownOpIsNotFound) {
  const auto t = RateTable::paper_rates();
  EXPECT_EQ(t.get("fft").status().code(), ErrorCode::kNotFound);
}

// ---------------------------------------------------------------- estimator

TEST(ContentionEstimator, ModelUsesTableRates) {
  ContentionEstimator ce(ce_config(), RateTable::paper_rates());
  auto m = ce.model_for("gaussian2d");
  ASSERT_TRUE(m.is_ok());
  EXPECT_DOUBLE_EQ(m.value().storage_rate, mb_per_sec(80.0));
  EXPECT_DOUBLE_EQ(m.value().compute_rate, mb_per_sec(80.0));
  EXPECT_DOUBLE_EQ(m.value().bandwidth, mb_per_sec(118.0));
}

TEST(ContentionEstimator, UnknownOpModelFails) {
  ContentionEstimator ce(ce_config(), RateTable::paper_rates());
  EXPECT_FALSE(ce.model_for("fft").is_ok());
}

TEST(ContentionEstimator, ExternalLoadDeratesStorageRate) {
  auto cfg = ce_config();
  cfg.derate_by_external_load = true;
  cfg.ewma_alpha = 1.0;  // no smoothing: take the probe at face value
  ContentionEstimator ce(cfg, RateTable::paper_rates());

  SystemStatus busy;
  busy.cpu_utilization = 0.5;
  ce.observe(busy);
  auto m = ce.model_for("gaussian2d");
  ASSERT_TRUE(m.is_ok());
  EXPECT_DOUBLE_EQ(m.value().storage_rate, mb_per_sec(40.0));
}

TEST(ContentionEstimator, SmoothingBlendsProbes) {
  auto cfg = ce_config();
  cfg.ewma_alpha = 0.5;
  ContentionEstimator ce(cfg, RateTable::paper_rates());
  SystemStatus s;
  s.cpu_utilization = 0.0;
  ce.observe(s);
  s.cpu_utilization = 1.0;
  ce.observe(s);
  EXPECT_DOUBLE_EQ(ce.smoothed().cpu_utilization, 0.5);
}

TEST(ContentionEstimator, ScheduleSmallQueueStaysActive) {
  ContentionEstimator ce(ce_config(), RateTable::paper_rates());
  std::vector<sched::ActiveRequest> reqs = {{1, 128_MiB, 40, "gaussian2d"}};
  auto p = ce.schedule("gaussian2d", reqs);
  ASSERT_TRUE(p.is_ok());
  EXPECT_TRUE(p.value().active[0]);
  EXPECT_EQ(ce.decisions(), 1u);
}

TEST(ContentionEstimator, ScheduleLargeQueueDemotesMost) {
  ContentionEstimator ce(ce_config(), RateTable::paper_rates());
  std::vector<sched::ActiveRequest> reqs(32, {0, 128_MiB, 40, "gaussian2d"});
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].id = i + 1;
  auto p = ce.schedule("gaussian2d", reqs);
  ASSERT_TRUE(p.is_ok());
  EXPECT_LT(p.value().active_count(), 8u);
}

TEST(ContentionEstimator, SumQueueAlwaysActive) {
  ContentionEstimator ce(ce_config(), RateTable::paper_rates());
  std::vector<sched::ActiveRequest> reqs(64, {0, 128_MiB, 16, "sum"});
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].id = i + 1;
  auto p = ce.schedule("sum", reqs);
  ASSERT_TRUE(p.is_ok());
  EXPECT_EQ(p.value().active_count(), 64u);
}

// ---------------------------------------------------------------- storage server

TEST(StorageServer, ActiveSumCompletesWithCorrectResult) {
  Fixture fx(10'000);
  ActiveIoRequest req;
  req.handle = fx.meta.handle;
  req.object_offset = 0;
  req.length = fx.meta.size;
  req.operation = "sum";
  auto resp = fx.serve(req);
  ASSERT_EQ(resp.outcome, ActiveOutcome::kCompleted) << resp.status.to_string();

  auto sum = kernels::SumResult::decode(resp.result);
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, 10'000u);
  double expect = 0;
  for (std::size_t i = 0; i < 10'000; ++i) expect += static_cast<double>(i % 97);
  EXPECT_NEAR(sum.value().sum, expect, 1e-6);
  EXPECT_EQ(fx.server->stats().active_completed, 1u);
}

TEST(StorageServer, SubRangeActiveRequest) {
  Fixture fx(1'000);
  ActiveIoRequest req;
  req.handle = fx.meta.handle;
  req.object_offset = 100 * sizeof(double);
  req.length = 50 * sizeof(double);
  req.operation = "sum";
  auto resp = fx.serve(req);
  ASSERT_EQ(resp.outcome, ActiveOutcome::kCompleted);
  auto sum = kernels::SumResult::decode(resp.result);
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, 50u);
}

TEST(StorageServer, UnknownKernelFails) {
  Fixture fx(100);
  ActiveIoRequest req;
  req.handle = fx.meta.handle;
  req.length = fx.meta.size;
  req.operation = "fft";
  auto resp = fx.serve(req);
  EXPECT_EQ(resp.outcome, ActiveOutcome::kFailed);
  EXPECT_EQ(resp.status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(fx.server->stats().active_failed, 1u);
}

TEST(StorageServer, UnknownHandleFails) {
  Fixture fx(100);
  ActiveIoRequest req;
  req.handle = 999;
  req.length = 800;
  req.operation = "sum";
  auto resp = fx.serve(req);
  EXPECT_EQ(resp.outcome, ActiveOutcome::kFailed);
}

TEST(StorageServer, AllNormalPolicyRejectsEverything) {
  Fixture fx(1'000, "all-normal");
  ActiveIoRequest req;
  req.handle = fx.meta.handle;
  req.length = fx.meta.size;
  req.operation = "sum";
  auto resp = fx.serve(req);
  EXPECT_EQ(resp.outcome, ActiveOutcome::kRejected);
  EXPECT_EQ(resp.status.code(), ErrorCode::kRejected);
  EXPECT_EQ(fx.server->stats().active_rejected, 1u);
}

TEST(StorageServer, AllActivePolicyNeverRejects) {
  Fixture fx(1'000, "all-active");
  for (int i = 0; i < 4; ++i) {
    ActiveIoRequest req;
    req.handle = fx.meta.handle;
    req.length = fx.meta.size;
    req.operation = "gaussian2d:width=16";
    auto resp = fx.serve(req);
    EXPECT_EQ(resp.outcome, ActiveOutcome::kCompleted);
  }
  EXPECT_EQ(fx.server->stats().active_completed, 4u);
}

TEST(StorageServer, ServeNormalReadsObjectBytes) {
  Fixture fx(1'000);
  auto data = fx.server->serve_normal(fx.meta.handle, 0, 80);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value().size(), 80u);
  double first;
  std::memcpy(&first, data.value().data(), sizeof(double));
  EXPECT_DOUBLE_EQ(first, 0.0);
  EXPECT_EQ(fx.server->stats().normal_bytes_served, 80u);
  EXPECT_EQ(fx.server->stats().normal_requests, 1u);
}

TEST(StorageServer, GaussianQueueGetsDemotedUnderLoad) {
  // 8 concurrent Gaussian requests on one node: the DOSAS policy must
  // reject most of them (the paper's demotion behaviour), yet every call
  // returns a usable outcome.
  StorageServer::Config sc;
  sc.cores = 2;
  sc.chunk_size = 16_KiB;  // frequent interrupt checks
  // 8 MiB of doubles: kernels run for milliseconds, so the queue really
  // builds up while later clients arrive (the decision itself only depends
  // on the configured rates, not on this host's speed).
  Fixture fx(512 * 2048, "exhaustive", sc);

  constexpr int kClients = 8;
  std::vector<ActiveIoResponse> resp(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ActiveIoRequest req;
      req.handle = fx.meta.handle;
      req.length = fx.meta.size;
      req.operation = "gaussian2d:width=2048";
      resp[static_cast<std::size_t>(i)] = fx.serve(req);
    });
  }
  for (auto& t : threads) t.join();

  int completed = 0, rejected = 0, interrupted = 0;
  for (const auto& r : resp) {
    switch (r.outcome) {
      case ActiveOutcome::kCompleted: ++completed; break;
      case ActiveOutcome::kRejected: ++rejected; break;
      case ActiveOutcome::kInterrupted: ++interrupted; break;
      case ActiveOutcome::kFailed: FAIL() << r.status.to_string();
    }
  }
  EXPECT_EQ(completed + rejected + interrupted, kClients);
  EXPECT_GT(rejected + interrupted, 0) << "policy should demote under an 8-deep queue";
  EXPECT_EQ(fx.server->inflight(), 0u);
}

TEST(StorageServer, InterruptedResponseCarriesUsableCheckpoint) {
  // Force interruption deterministically: start one long sum with the
  // all-active policy (so it is admitted), then flip to rejection via a
  // probe after manually demoting: we emulate the CE flip by issuing a
  // second request under an exhaustive policy... Instead, drive the
  // interrupt path directly through a tiny pool and a policy that demotes
  // when the queue deepens.
  StorageServer::Config sc;
  sc.cores = 1;
  sc.chunk_size = 8_KiB;
  // 16 MiB of doubles: each kernel runs for tens of milliseconds so the
  // queue reliably deepens past the demotion threshold while later
  // requests arrive.
  Fixture fx(2 * 1024 * 1024, "exhaustive", sc);

  // First request occupies the single core; more arrivals make the
  // optimizer demote (gaussian is expensive), interrupting the runner.
  // Async submissions from one thread replace the old wall-clock stagger:
  // each per-arrival policy evaluation sees the queue one deeper.
  std::vector<ActiveIoResponse> resp(6);
  std::mutex done_mu;
  std::condition_variable done_cv;
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    ActiveIoRequest req;
    req.handle = fx.meta.handle;
    req.length = fx.meta.size;
    req.operation = "gaussian2d:width=256";
    fx.server->submit_active(std::move(req), [&, i](ActiveIoResponse r) {
      std::lock_guard lock(done_mu);
      resp[static_cast<std::size_t>(i)] = std::move(r);
      ++done;
      clock().wake_all(done_cv);
    });
  }
  {
    std::unique_lock lock(done_mu);
    clock().wait(done_cv, lock, [&] { return done == 6; });
  }

  bool saw_interrupt_or_reject = false;
  for (const auto& r : resp) {
    if (r.outcome == ActiveOutcome::kInterrupted) {
      saw_interrupt_or_reject = true;
      // The checkpoint must decode and identify the kernel.
      auto ck = Checkpoint::decode(r.checkpoint);
      ASSERT_TRUE(ck.is_ok());
      EXPECT_EQ(ck.value().get_string("kernel"), "gaussian2d");
      EXPECT_LE(r.resume_offset, fx.meta.size);
    }
    if (r.outcome == ActiveOutcome::kRejected) saw_interrupt_or_reject = true;
  }
  EXPECT_TRUE(saw_interrupt_or_reject);
}

TEST(StorageServer, ProbeFeedsEstimator) {
  Fixture fx(100);
  fx.server->probe();
  // No crash, and the CE has observed at least one (idle) sample.
  EXPECT_DOUBLE_EQ(fx.server->estimator().smoothed().cpu_utilization, 0.0);
}

TEST(StorageServer, StatsCountBytesProcessed) {
  Fixture fx(10'000, "all-active");
  ActiveIoRequest req;
  req.handle = fx.meta.handle;
  req.length = fx.meta.size;
  req.operation = "sum";
  (void)fx.serve(req);
  EXPECT_EQ(fx.server->stats().active_bytes_processed, fx.meta.size);
}

TEST(StorageServer, ShortObjectEndsCleanly) {
  // Request length exceeding the object: the kernel consumes what exists.
  Fixture fx(100, "all-active");
  ActiveIoRequest req;
  req.handle = fx.meta.handle;
  req.length = fx.meta.size + 4096;
  req.operation = "sum";
  auto resp = fx.serve(req);
  ASSERT_EQ(resp.outcome, ActiveOutcome::kCompleted);
  auto sum = kernels::SumResult::decode(resp.result);
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, 100u);
}

TEST(StorageServer, ConcurrentSumsAllComplete) {
  Fixture fx(50'000, "all-active");
  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      ActiveIoRequest req;
      req.handle = fx.meta.handle;
      req.length = fx.meta.size;
      req.operation = "sum";
      auto resp = fx.serve(req);
      if (resp.outcome == ActiveOutcome::kCompleted) ++ok;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
}

}  // namespace
}  // namespace dosas::server
