// Cross-module property suites:
//   * PFS fuzz: random create/write/read/truncate/unlink interleavings
//     checked against an in-memory reference model;
//   * fluid-resource conservation: served work == submitted work under
//     random arrival/cancel churn, rates never exceed capacity;
//   * scheduler optimality: no random assignment ever beats the exact
//     optimizers' objective;
//   * end-to-end determinism of the experiment models.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/sim_model.hpp"
#include "pfs/client.hpp"
#include "pfs/file_system.hpp"
#include "sched/optimizer.hpp"
#include "sim/fluid_resource.hpp"

namespace dosas {
namespace {

// ---------------------------------------------------------------- PFS fuzz

// No padding: gtest names each case by dumping the struct's bytes, and
// uninitialised padding would change the names from run to run.
struct FuzzCase {
  std::uint64_t seed;
  std::uint64_t servers;
  Bytes strip;
};

class PfsFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(PfsFuzz, MatchesReferenceModelUnderRandomOps) {
  const auto p = GetParam();
  pfs::FileSystem fs(static_cast<std::uint32_t>(p.servers), p.strip);
  pfs::Client client(fs);
  Rng rng(p.seed);

  // Reference: plain byte vectors per path.
  std::map<std::string, std::vector<std::uint8_t>> model;

  auto random_path = [&] { return "/f" + std::to_string(rng.uniform_index(6)); };
  auto random_bytes = [&](std::size_t n) {
    std::vector<std::uint8_t> b(n);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng());
    return b;
  };

  for (int op = 0; op < 400; ++op) {
    const std::string path = random_path();
    const bool exists = model.count(path) != 0;
    switch (rng.uniform_index(5)) {
      case 0: {  // create
        auto meta = client.create(path);
        ASSERT_EQ(meta.is_ok(), !exists) << "create " << path;
        if (!exists) model[path] = {};
        break;
      }
      case 1: {  // write at random offset
        if (!exists) break;
        auto meta = client.open(path);
        ASSERT_TRUE(meta.is_ok());
        const Bytes max_off = model[path].size() + 2 * p.strip;
        const Bytes off = rng.uniform_index(max_off + 1);
        const auto data = random_bytes(1 + rng.uniform_index(3 * p.strip));
        ASSERT_TRUE(client.write(meta.value(), off, data).is_ok());
        auto& ref = model[path];
        if (ref.size() < off + data.size()) ref.resize(off + data.size(), 0);
        std::copy(data.begin(), data.end(), ref.begin() + static_cast<std::ptrdiff_t>(off));
        break;
      }
      case 2: {  // read a random extent and compare
        if (!exists) {
          ASSERT_FALSE(client.open(path).is_ok());
          break;
        }
        auto meta = client.open(path);
        ASSERT_TRUE(meta.is_ok());
        const auto& ref = model[path];
        ASSERT_EQ(meta.value().size, ref.size());
        const Bytes off = rng.uniform_index(ref.size() + p.strip + 1);
        const Bytes len = 1 + rng.uniform_index(2 * p.strip);
        auto got = client.read(meta.value(), off, len);
        ASSERT_TRUE(got.is_ok());
        const Bytes expect_len =
            off >= ref.size() ? 0 : std::min<Bytes>(len, ref.size() - off);
        ASSERT_EQ(got.value().size(), expect_len);
        for (Bytes i = 0; i < expect_len; ++i) {
          ASSERT_EQ(got.value()[i], ref[off + i]) << path << " @" << off + i;
        }
        break;
      }
      case 3: {  // whole-file read
        if (!exists) break;
        auto meta = client.open(path);
        ASSERT_TRUE(meta.is_ok());
        auto got = client.read_all(meta.value());
        ASSERT_TRUE(got.is_ok());
        ASSERT_EQ(got.value(), model[path]);
        break;
      }
      case 4: {  // unlink
        const Status st = client.unlink(path);
        ASSERT_EQ(st.is_ok(), exists) << "unlink " << path;
        model.erase(path);
        break;
      }
    }
  }

  // Final audit: every surviving file matches, byte for byte.
  for (const auto& [path, ref] : model) {
    auto meta = client.open(path);
    ASSERT_TRUE(meta.is_ok());
    auto got = client.read_all(meta.value());
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value(), ref) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Volumes, PfsFuzz,
                         ::testing::Values(FuzzCase{1, 1, 128}, FuzzCase{2, 2, 128},
                                           FuzzCase{3, 4, 64}, FuzzCase{4, 3, 1000},
                                           FuzzCase{5, 8, 256}, FuzzCase{6, 2, 1}));

// ---------------------------------------------------------------- fluid conservation

struct ChurnCase {
  std::uint64_t seed;
  double capacity;
  double per_job_cap;
};

class FluidChurn : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(FluidChurn, WorkIsConservedUnderRandomArrivalsAndCancels) {
  const auto p = GetParam();
  sim::Simulator s;
  sim::FluidResource res(s, {.capacity = p.capacity, .per_job_cap = p.per_job_cap});
  Rng rng(p.seed);

  double submitted = 0.0;
  double completed_work = 0.0;
  double cancelled_remaining = 0.0;
  std::vector<sim::FluidResource::JobId> live;

  // 200 random arrivals over [0, 20); each completion records its work;
  // random cancels reclaim the remainder (cancel of an already-completed
  // id is a 0-work no-op by contract).
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 20.0);
    const double work = rng.uniform(0.1, 30.0);
    s.schedule_at(t, [&, work] {
      submitted += work;
      const auto id = res.submit(work, [&, work](sim::Time) { completed_work += work; });
      live.push_back(id);
    });
  }
  for (int i = 0; i < 60; ++i) {
    const double t = rng.uniform(0.0, 25.0);
    s.schedule_at(t, [&] {
      if (live.empty()) return;
      const auto idx = rng.uniform_index(live.size());
      const auto id = live[idx];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      cancelled_remaining += res.cancel(id);
    });
  }
  s.run();

  EXPECT_EQ(res.active_jobs(), 0u);
  EXPECT_GT(completed_work, 0.0);
  // Conservation: every submitted unit was either served or handed back.
  const double served = res.work_done();
  EXPECT_NEAR(served + cancelled_remaining, submitted, 1e-5);
  // Throughput bound: served work cannot exceed capacity x elapsed time.
  EXPECT_LE(served, p.capacity * s.now() * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Shapes, FluidChurn,
                         ::testing::Values(ChurnCase{1, 10.0, 0.0}, ChurnCase{2, 10.0, 1.0},
                                           ChurnCase{3, 100.0, 7.0}, ChurnCase{4, 1.0, 0.5},
                                           ChurnCase{5, 50.0, 50.0}));

// ---------------------------------------------------------------- scheduler optimality

TEST(SchedulerProperty, NoSampledAssignmentBeatsExactOptimum) {
  sched::CostModel m;
  m.bandwidth = mb_per_sec(118.0);
  m.storage_rate = mb_per_sec(80.0);
  m.compute_rate = mb_per_sec(80.0);

  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t k = 1 + rng.uniform_index(30);
    std::vector<sched::ActiveRequest> reqs(k);
    for (std::size_t i = 0; i < k; ++i) {
      reqs[i].id = i + 1;
      reqs[i].size = megabytes(static_cast<double>(1 + rng.uniform_index(2048)));
      reqs[i].result_size = rng.chance(0.3) ? reqs[i].size / 100 : 40;
    }
    const auto exact = sched::SortMinOptimizer{}.optimize(m, reqs);
    for (int sample = 0; sample < 200; ++sample) {
      std::vector<bool> a(k);
      for (std::size_t i = 0; i < k; ++i) a[i] = rng.chance(0.5);
      ASSERT_GE(m.objective(reqs, a), exact.predicted_time - 1e-9)
          << "trial " << trial << " sample " << sample;
    }
  }
}

// ---------------------------------------------------------------- model determinism

TEST(ModelProperty, SimulationsAreBitwiseRepeatable) {
  const auto cfg = core::ModelConfig::gaussian();
  for (auto scheme : {core::SchemeKind::kTraditional, core::SchemeKind::kActive,
                      core::SchemeKind::kDosas}) {
    const auto a = core::simulate_scheme(scheme, cfg, core::uniform_workload(16, 256_MiB));
    const auto b = core::simulate_scheme(scheme, cfg, core::uniform_workload(16, 256_MiB));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.demoted, b.demoted);
    EXPECT_EQ(a.interrupted, b.interrupted);
    EXPECT_EQ(a.bytes_over_link, b.bytes_over_link);
  }
}

TEST(ModelProperty, MakespanMonotonicInLoad) {
  const auto cfg = core::ModelConfig::gaussian();
  for (auto scheme : {core::SchemeKind::kTraditional, core::SchemeKind::kActive,
                      core::SchemeKind::kDosas}) {
    double prev = 0.0;
    for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u}) {
      const auto r = core::simulate_scheme(scheme, cfg, core::uniform_workload(n, 128_MiB));
      EXPECT_GE(r.makespan, prev - 1e-9) << core::scheme_name(scheme) << " n=" << n;
      prev = r.makespan;
    }
  }
}

TEST(ModelProperty, DosasNeverMovesMoreBytesThanTs) {
  const auto cfg = core::ModelConfig::gaussian();
  for (std::size_t n : {1u, 4u, 16u, 64u}) {
    const auto ts =
        core::simulate_scheme(core::SchemeKind::kTraditional, cfg, core::uniform_workload(n, 128_MiB));
    const auto dosas =
        core::simulate_scheme(core::SchemeKind::kDosas, cfg, core::uniform_workload(n, 128_MiB));
    EXPECT_LE(dosas.bytes_over_link, ts.bytes_over_link + n * cfg.checkpoint_size);
  }
}

}  // namespace
}  // namespace dosas
