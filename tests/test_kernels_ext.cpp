// Tests for the extension kernels: sobel2d, topk, reservoir — streaming
// correctness, checkpoint/restore, merging, and registry integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "kernels/registry.hpp"
#include "kernels/reservoir.hpp"
#include "kernels/sobel2d.hpp"
#include "kernels/topk.hpp"
#include "stencil_reference.hpp"

namespace dosas::kernels {
namespace {

std::vector<std::uint8_t> doubles_to_bytes(const std::vector<double>& values) {
  std::vector<std::uint8_t> out(values.size() * sizeof(double));
  std::memcpy(out.data(), values.data(), out.size());
  return out;
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(-100.0, 100.0);
  return out;
}

void consume_ragged(Kernel& kernel, const std::vector<std::uint8_t>& bytes, Rng& rng) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.uniform_index(97), bytes.size() - pos);
    kernel.consume(std::span(bytes.data() + pos, n));
    pos += n;
  }
}

// ---------------------------------------------------------------- sobel2d

TEST(Sobel2d, ConstantFieldHasZeroGradient) {
  const std::size_t w = 16, rows = 8;
  Sobel2dKernel k(w, 0.5);
  k.consume(doubles_to_bytes(std::vector<double>(w * rows, 3.0)));
  auto d = SobelDigest::decode(k.finalize());
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().rows, rows - 2);
  EXPECT_EQ(d.value().edges, 0u);
  EXPECT_NEAR(d.value().max_magnitude, 0.0, 1e-12);
}

TEST(Sobel2d, VerticalStepIsDetected) {
  // A sharp vertical edge: left half 0, right half 10.
  const std::size_t w = 16, rows = 8;
  std::vector<double> grid(w * rows, 0.0);
  for (std::size_t y = 0; y < rows; ++y) {
    for (std::size_t x = w / 2; x < w; ++x) grid[y * w + x] = 10.0;
  }
  Sobel2dKernel k(w, 5.0);
  k.consume(doubles_to_bytes(grid));
  auto d = SobelDigest::decode(k.finalize());
  ASSERT_TRUE(d.is_ok());
  // Two columns around the step exceed the threshold on every output row.
  EXPECT_EQ(d.value().edges, 2 * (rows - 2));
  EXPECT_NEAR(d.value().max_magnitude, 40.0, 1e-9);  // |Gx| = 4*10 at the step
}

TEST(Sobel2d, DigestMatchesReference) {
  const std::size_t w = 32, rows = 20;
  const auto grid = random_doubles(w * rows, 42);
  Sobel2dKernel k(w, 50.0);
  k.consume(doubles_to_bytes(grid));
  auto d = SobelDigest::decode(k.finalize());
  ASSERT_TRUE(d.is_ok());

  // The kernel folds magnitudes in the same order, so the digest matches
  // bit for bit.
  const auto mags = reference::sobel_magnitudes(grid, w);
  ASSERT_EQ(mags.size(), (rows - 2) * w);
  std::uint64_t edges = 0;
  double max_mag = 0, sum = 0;
  for (double m : mags) {
    if (m > 50.0) ++edges;
    max_mag = std::max(max_mag, m);
    sum += m;
  }
  EXPECT_EQ(d.value().edges, edges);
  EXPECT_TRUE(reference::same_bits(d.value().max_magnitude, max_mag));
  EXPECT_TRUE(reference::same_bits(d.value().mean_magnitude,
                                   sum / static_cast<double>(mags.size())));
}

TEST(Sobel2d, RaggedChunksMatchWholeBuffer) {
  const std::size_t w = 24, rows = 30;
  const auto bytes = doubles_to_bytes(random_doubles(w * rows, 7));
  Sobel2dKernel whole(w, 10.0);
  whole.consume(bytes);
  Sobel2dKernel ragged(w, 10.0);
  Rng rng(3);
  consume_ragged(ragged, bytes, rng);
  EXPECT_EQ(whole.finalize(), ragged.finalize());
}

TEST(Sobel2d, CheckpointResumeMatches) {
  const std::size_t w = 16, rows = 24;
  const auto bytes = doubles_to_bytes(random_doubles(w * rows, 9));
  Sobel2dKernel ref(w, 20.0);
  ref.consume(bytes);

  const std::size_t cut = (w * 5) * sizeof(double) + 13;
  Sobel2dKernel first(w, 20.0);
  first.consume(std::span(bytes.data(), cut));
  auto decoded = Checkpoint::decode(first.checkpoint().encode());
  ASSERT_TRUE(decoded.is_ok());
  Sobel2dKernel second(w, 20.0);
  ASSERT_TRUE(second.restore(decoded.value()).is_ok());
  second.consume(std::span(bytes.data() + cut, bytes.size() - cut));
  EXPECT_EQ(second.finalize(), ref.finalize());
}

TEST(Sobel2d, RestoreRejectsWidthMismatch) {
  Sobel2dKernel a(16), b(32);
  EXPECT_FALSE(b.restore(a.checkpoint()).is_ok());
}

TEST(Sobel2d, RestoreRejectsRowStateThatDoesNotFitWidth) {
  // Checksum-valid checkpoints whose row state does not fit the width: the
  // next row would be read past the short previous rows.
  const std::size_t w = 128, row_bytes = w * sizeof(double);
  Sobel2dKernel src(w, 2.0);
  src.consume(doubles_to_bytes(random_doubles(w * 5, 4)));
  const Checkpoint good = src.checkpoint();
  const std::vector<std::uint8_t> item(sizeof(double), 0), row(row_bytes, 0), none;

  auto restore_with = [&](const std::function<void(Checkpoint&)>& edit) {
    Checkpoint ck = good;
    edit(ck);
    auto decoded = Checkpoint::decode(ck.encode());
    EXPECT_TRUE(decoded.is_ok());
    Sobel2dKernel k(w, 2.0);
    return k.restore(decoded.value()).code();
  };
  const auto bad = ErrorCode::kInvalidArgument;
  EXPECT_EQ(restore_with([](Checkpoint&) {}), ErrorCode::kOk);
  EXPECT_EQ(restore_with([&](Checkpoint& ck) {
              ck.set_blob("prev1", item);
              ck.set_blob("prev2", item);
            }), bad);
  EXPECT_EQ(restore_with([&](Checkpoint& ck) { ck.set_blob("pending", row); }), bad);
  EXPECT_EQ(restore_with([&](Checkpoint& ck) { ck.set_blob("prev1", none); }), bad);
}

TEST(Sobel2d, RestoreRejectsThresholdMismatch) {
  // The threshold is part of the operation, as the width is: a checkpoint
  // taken under another threshold is refused, not silently adopted.
  Sobel2dKernel a(16, 1.0), b(16, 2.0);
  a.consume(doubles_to_bytes(random_doubles(16 * 4, 5)));
  EXPECT_EQ(b.restore(a.checkpoint()).code(), ErrorCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(b.threshold(), 2.0);
  Sobel2dKernel c(16, 1.0);
  EXPECT_TRUE(c.restore(a.checkpoint()).is_ok());
}

TEST(Sobel2d, FromSpecParsesArgs) {
  auto k = Sobel2dKernel::from_spec(OperationSpec::parse("sobel2d:width=64,t=3.5").value());
  ASSERT_TRUE(k.is_ok());
  auto* s = dynamic_cast<Sobel2dKernel*>(k.value().get());
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->width(), 64u);
  EXPECT_DOUBLE_EQ(s->threshold(), 3.5);
  EXPECT_FALSE(
      Sobel2dKernel::from_spec(OperationSpec::parse("sobel2d:width=0").value()).is_ok());
}

TEST(Sobel2d, NotMergeable) {
  Sobel2dKernel k(8);
  EXPECT_FALSE(k.mergeable());
  EXPECT_FALSE(k.merge(std::vector<std::uint8_t>{}).is_ok());
}

// ---------------------------------------------------------------- topk

TEST(TopK, FindsLargestValues) {
  TopKKernel k(3);
  k.reset();
  k.consume(doubles_to_bytes({5, 1, 9, 3, 7, 2, 8}));
  auto r = TopKResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().count, 7u);
  EXPECT_EQ(r.value().values, (std::vector<double>{9, 8, 7}));
}

TEST(TopK, FewerItemsThanK) {
  TopKKernel k(10);
  k.reset();
  k.consume(doubles_to_bytes({2, 1}));
  auto r = TopKResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().values, (std::vector<double>{2, 1}));
}

TEST(TopK, MatchesSortReference) {
  auto values = random_doubles(5000, 13);
  TopKKernel k(25);
  k.reset();
  k.consume(doubles_to_bytes(values));
  auto r = TopKResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());

  std::sort(values.begin(), values.end(), std::greater<>{});
  values.resize(25);
  EXPECT_EQ(r.value().values, values);
}

TEST(TopK, RaggedChunksMatchWholeBuffer) {
  const auto bytes = doubles_to_bytes(random_doubles(3000, 17));
  TopKKernel whole(16), ragged(16);
  whole.reset();
  ragged.reset();
  whole.consume(bytes);
  Rng rng(23);
  consume_ragged(ragged, bytes, rng);
  EXPECT_EQ(whole.finalize(), ragged.finalize());
}

TEST(TopK, CheckpointResumeMatches) {
  const auto bytes = doubles_to_bytes(random_doubles(4000, 29));
  TopKKernel ref(20);
  ref.reset();
  ref.consume(bytes);

  TopKKernel first(20);
  first.reset();
  const std::size_t cut = 10'001;
  first.consume(std::span(bytes.data(), cut));
  TopKKernel second(20);
  ASSERT_TRUE(second.restore(first.checkpoint()).is_ok());
  second.consume(std::span(bytes.data() + cut, bytes.size() - cut));
  EXPECT_EQ(second.finalize(), ref.finalize());
}

TEST(TopK, RestoreRejectsKMismatch) {
  TopKKernel a(5), b(6);
  a.reset();
  EXPECT_FALSE(b.restore(a.checkpoint()).is_ok());
}

TEST(TopK, MergeMatchesSequential) {
  const auto values = random_doubles(2000, 31);
  const auto bytes = doubles_to_bytes(values);
  TopKKernel seq(12), left(12), right(12);
  seq.reset();
  left.reset();
  right.reset();
  seq.consume(bytes);
  left.consume(std::span(bytes.data(), 8 * 600));
  right.consume(std::span(bytes.data() + 8 * 600, bytes.size() - 8 * 600));
  ASSERT_TRUE(left.merge(right.finalize()).is_ok());
  EXPECT_EQ(left.finalize(), seq.finalize());
}

TEST(TopK, ResultSizeScalesWithK) {
  TopKKernel small(4), big(1000);
  EXPECT_LT(small.result_size(1_GiB), big.result_size(1_GiB));
  EXPECT_EQ(big.result_size(128_MiB), big.result_size(1_GiB));
}

TEST(TopK, FromSpecValidation) {
  EXPECT_TRUE(TopKKernel::from_spec(OperationSpec::parse("topk:k=100").value()).is_ok());
  EXPECT_FALSE(TopKKernel::from_spec(OperationSpec::parse("topk:k=0").value()).is_ok());
}

// ---------------------------------------------------------------- reservoir

TEST(Reservoir, FillPhaseKeepsEverything) {
  ReservoirKernel k(100, 7);
  k.reset();
  const auto values = random_doubles(50, 3);
  k.consume(doubles_to_bytes(values));
  auto r = ReservoirResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().count, 50u);
  EXPECT_EQ(r.value().sample, values);  // order-preserving during fill
}

TEST(Reservoir, SampleSizeCapped) {
  ReservoirKernel k(32, 7);
  k.reset();
  k.consume(doubles_to_bytes(random_doubles(10'000, 5)));
  auto r = ReservoirResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().sample.size(), 32u);
  EXPECT_EQ(r.value().count, 10'000u);
}

TEST(Reservoir, DeterministicForSeed) {
  const auto bytes = doubles_to_bytes(random_doubles(5000, 11));
  ReservoirKernel a(16, 99), b(16, 99), c(16, 100);
  a.reset();
  b.reset();
  c.reset();
  a.consume(bytes);
  b.consume(bytes);
  c.consume(bytes);
  EXPECT_EQ(a.finalize(), b.finalize());
  EXPECT_NE(a.finalize(), c.finalize());
}

TEST(Reservoir, SampleElementsComeFromStream) {
  std::vector<double> values(2000);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
  ReservoirKernel k(64, 1);
  k.reset();
  k.consume(doubles_to_bytes(values));
  auto r = ReservoirResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  for (double v : r.value().sample) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 2000.0);
    EXPECT_EQ(v, std::floor(v));
  }
}

TEST(Reservoir, SamplingIsRoughlyUniform) {
  // Items 0..999; with n=200 and many seeds, the mean of sampled values
  // should approach the stream mean (499.5).
  std::vector<double> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
  const auto bytes = doubles_to_bytes(values);
  double total = 0;
  std::size_t count = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ReservoirKernel k(200, seed);
    k.reset();
    k.consume(bytes);
    auto r = ReservoirResult::decode(k.finalize());
    ASSERT_TRUE(r.is_ok());
    for (double v : r.value().sample) {
      total += v;
      ++count;
    }
  }
  EXPECT_NEAR(total / static_cast<double>(count), 499.5, 25.0);
}

TEST(Reservoir, CheckpointResumeMatchesUninterrupted) {
  const auto bytes = doubles_to_bytes(random_doubles(4000, 41));
  ReservoirKernel ref(32, 5);
  ref.reset();
  ref.consume(bytes);

  ReservoirKernel first(32, 5);
  first.reset();
  const std::size_t cut = 9'999;
  first.consume(std::span(bytes.data(), cut));
  auto decoded = Checkpoint::decode(first.checkpoint().encode());
  ASSERT_TRUE(decoded.is_ok());
  ReservoirKernel second(32, 5);
  ASSERT_TRUE(second.restore(decoded.value()).is_ok());
  second.consume(std::span(bytes.data() + cut, bytes.size() - cut));
  EXPECT_EQ(second.finalize(), ref.finalize());
}

TEST(Reservoir, MergeCombinesCountsAndStaysInRange) {
  const auto a_vals = random_doubles(3000, 51);
  const auto b_vals = random_doubles(5000, 52);
  ReservoirKernel a(40, 1), b(40, 2);
  a.reset();
  b.reset();
  a.consume(doubles_to_bytes(a_vals));
  b.consume(doubles_to_bytes(b_vals));
  ASSERT_TRUE(a.merge(b.finalize()).is_ok());
  auto r = ReservoirResult::decode(a.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().count, 8000u);
  EXPECT_EQ(r.value().sample.size(), 40u);
}

TEST(Reservoir, FromSpecValidation) {
  EXPECT_TRUE(
      ReservoirKernel::from_spec(OperationSpec::parse("reservoir:n=10,seed=3").value()).is_ok());
  EXPECT_FALSE(
      ReservoirKernel::from_spec(OperationSpec::parse("reservoir:n=0").value()).is_ok());
}

// ---------------------------------------------------------------- through the cluster

TEST(ExtKernelsCluster, SobelDigestOffloadsAndMatchesReference) {
  core::ClusterConfig cfg;
  cfg.scheme = core::SchemeKind::kActive;
  core::Cluster cluster(cfg);
  constexpr std::size_t kWidth = 64, kRows = 128;
  auto meta = pfs::write_doubles(cluster.pfs_client(), "/sobel", kWidth * kRows,
                                 [](std::size_t i) { return static_cast<double>(i % 23); });
  ASSERT_TRUE(meta.is_ok());

  auto out =
      cluster.asc().read_ex(meta.value(), 0, meta.value().size, "sobel2d:width=64,t=5");
  ASSERT_TRUE(out.is_ok());

  auto raw = cluster.pfs_client().read_all(meta.value());
  ASSERT_TRUE(raw.is_ok());
  Sobel2dKernel ref(kWidth, 5.0);
  ref.consume(raw.value());
  EXPECT_EQ(out.value(), ref.finalize());
  EXPECT_EQ(cluster.storage_server(0).stats().active_completed, 1u);
}

TEST(ExtKernelsCluster, StripedTopKMatchesSort) {
  core::ClusterConfig cfg;
  cfg.scheme = core::SchemeKind::kActive;
  cfg.storage_nodes = 4;
  cfg.strip_size = 8_KiB;
  core::Cluster cluster(cfg);
  constexpr std::size_t kCount = 40'000;
  auto meta = pfs::write_doubles(cluster.pfs_client(), "/tk", kCount, [](std::size_t i) {
    return static_cast<double>((i * 2654435761u) % 1000003);
  });
  ASSERT_TRUE(meta.is_ok());

  auto out = cluster.asc().read_ex(meta.value(), 0, meta.value().size, "topk:k=15");
  ASSERT_TRUE(out.is_ok());
  auto got = TopKResult::decode(out.value());
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().count, kCount);

  std::vector<double> all(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    all[i] = static_cast<double>((i * 2654435761u) % 1000003);
  }
  std::sort(all.begin(), all.end(), std::greater<>{});
  all.resize(15);
  EXPECT_EQ(got.value().values, all);
  EXPECT_EQ(cluster.asc().stats().striped_fanouts, 1u);
}

TEST(ExtKernelsCluster, StripedReservoirSamplesWholeFile) {
  core::ClusterConfig cfg;
  cfg.scheme = core::SchemeKind::kDosas;
  cfg.storage_nodes = 3;
  cfg.strip_size = 16_KiB;
  core::Cluster cluster(cfg);
  constexpr std::size_t kCount = 30'000;
  auto meta = pfs::write_doubles(cluster.pfs_client(), "/rs", kCount,
                                 [](std::size_t i) { return static_cast<double>(i); });
  ASSERT_TRUE(meta.is_ok());

  auto out =
      cluster.asc().read_ex(meta.value(), 0, meta.value().size, "reservoir:n=50,seed=4");
  ASSERT_TRUE(out.is_ok());
  auto got = ReservoirResult::decode(out.value());
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().count, kCount);
  EXPECT_EQ(got.value().sample.size(), 50u);
  for (double v : got.value().sample) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, static_cast<double>(kCount));
  }
}

// ---------------------------------------------------------------- registry

TEST(RegistryExt, NewKernelsCreatable) {
  const auto reg = Registry::with_builtins();
  for (const char* op : {"sobel2d:width=64", "topk:k=5", "reservoir:n=8"}) {
    auto k = reg.create(op);
    ASSERT_TRUE(k.is_ok()) << op;
  }
}

}  // namespace
}  // namespace dosas::kernels
