// Tests for streaming kernel composition: the scale transformer, the
// gaussian2d full-mode stream, PipelineKernel semantics (pumping, stage
// validation, composed checkpoints), and pipelines through the cluster.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "kernels/gaussian2d.hpp"
#include "kernels/minmax.hpp"
#include "kernels/pipeline.hpp"
#include "kernels/registry.hpp"
#include "kernels/scale.hpp"
#include "kernels/sum.hpp"
#include "kernels/threshold_count.hpp"

namespace dosas::kernels {
namespace {

std::vector<std::uint8_t> doubles_to_bytes(const std::vector<double>& values) {
  std::vector<std::uint8_t> out(values.size() * sizeof(double));
  std::memcpy(out.data(), values.data(), out.size());
  return out;
}

// ---------------------------------------------------------------- scale

TEST(ScaleKernel, TransformsValues) {
  ScaleKernel k(2.0, 1.0);
  k.reset();
  k.consume(doubles_to_bytes({1.0, 2.0, 3.0}));
  const auto out = k.drain_stream();
  ASSERT_EQ(out.size(), 3 * sizeof(double));
  std::vector<double> values(3);
  std::memcpy(values.data(), out.data(), out.size());
  EXPECT_EQ(values, (std::vector<double>{3.0, 5.0, 7.0}));
}

TEST(ScaleKernel, DrainEmptiesBuffer) {
  ScaleKernel k(1.0, 0.0);
  k.reset();
  k.consume(doubles_to_bytes({1.0}));
  EXPECT_FALSE(k.drain_stream().empty());
  EXPECT_TRUE(k.drain_stream().empty());
}

TEST(ScaleKernel, StreamsOutputFlag) {
  ScaleKernel k;
  EXPECT_TRUE(k.streams_output());
  SumKernel s;
  EXPECT_FALSE(s.streams_output());
  EXPECT_TRUE(s.drain_stream().empty());
}

TEST(ScaleKernel, CheckpointCarriesUndrainedOutput) {
  ScaleKernel a(3.0, -1.0);
  a.reset();
  a.consume(doubles_to_bytes({2.0, 4.0}));
  const Checkpoint ck = a.checkpoint();
  ScaleKernel b(3.0, -1.0);
  ASSERT_TRUE(b.restore(ck).is_ok());
  EXPECT_EQ(b.drain_stream(), a.drain_stream());
  // a and b are the operation's parameters, not state: a kernel built with
  // others refuses the checkpoint and keeps its own.
  ScaleKernel other;
  EXPECT_EQ(other.restore(ck).code(), ErrorCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(other.a(), 1.0);
  EXPECT_DOUBLE_EQ(other.b(), 0.0);
  EXPECT_TRUE(other.drain_stream().empty());
}

// ---------------------------------------------------------------- gaussian stream

TEST(GaussianStream, FullModeDrainsFilteredValues) {
  const std::size_t w = 8, rows = 6;
  std::vector<double> grid(w * rows, 5.0);
  Gaussian2dKernel k(w, Gaussian2dKernel::Mode::kFull);
  k.consume(doubles_to_bytes(grid));
  EXPECT_TRUE(k.streams_output());
  const auto out = k.drain_stream();
  EXPECT_EQ(out.size(), (rows - 2) * w * sizeof(double));
  double first;
  std::memcpy(&first, out.data(), sizeof(double));
  EXPECT_NEAR(first, 5.0, 1e-12);
}

TEST(GaussianStream, DigestModeDoesNotStream) {
  Gaussian2dKernel k(8, Gaussian2dKernel::Mode::kDigest);
  EXPECT_FALSE(k.streams_output());
  k.consume(doubles_to_bytes(std::vector<double>(8 * 5, 1.0)));
  EXPECT_TRUE(k.drain_stream().empty());
}

// ---------------------------------------------------------------- stage parsing

TEST(PipelineStage, ParsesSemicolonSyntax) {
  auto spec = PipelineKernel::parse_stage("gaussian2d;width=64;mode=full");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec.value().kernel, "gaussian2d");
  EXPECT_EQ(spec.value().get_int("width", 0), 64);
  EXPECT_EQ(spec.value().get("mode", ""), "full");
}

TEST(PipelineStage, BareNameParses) {
  auto spec = PipelineKernel::parse_stage("minmax");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec.value().kernel, "minmax");
  EXPECT_TRUE(spec.value().args.empty());
}

// ---------------------------------------------------------------- pipeline semantics

TEST(Pipeline, ScaleThenSumMatchesManualComposition) {
  const auto reg = Registry::with_builtins();
  auto pipe = reg.create("pipe:ops=scale;a=2;b=1|sum");
  ASSERT_TRUE(pipe.is_ok()) << pipe.status().to_string();

  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 0.0);
  pipe.value()->reset();
  pipe.value()->consume(doubles_to_bytes(values));

  auto sum = SumResult::decode(pipe.value()->finalize());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, 1000u);
  double expect = 0;
  for (double v : values) expect += 2.0 * v + 1.0;
  EXPECT_NEAR(sum.value().sum, expect, 1e-6);
}

TEST(Pipeline, GaussianThenThresholdCountsFilteredField) {
  const auto reg = Registry::with_builtins();
  auto pipe = reg.create("pipe:ops=gaussian2d;width=16;mode=full|thresholdcount;t=7.0");
  ASSERT_TRUE(pipe.is_ok());

  // Constant-7.5 field: every filtered value is 7.5 > 7.0.
  const std::size_t w = 16, rows = 12;
  pipe.value()->reset();
  pipe.value()->consume(doubles_to_bytes(std::vector<double>(w * rows, 7.5)));
  auto r = ThresholdCountResult::decode(pipe.value()->finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().count, (rows - 2) * w);
  EXPECT_EQ(r.value().matches, (rows - 2) * w);
}

TEST(Pipeline, ThreeStageChain) {
  const auto reg = Registry::with_builtins();
  // Filter, rescale the filtered field, then min/max of the result.
  auto pipe = reg.create("pipe:ops=gaussian2d;width=8;mode=full|scale;a=10|minmax");
  ASSERT_TRUE(pipe.is_ok());
  pipe.value()->reset();
  pipe.value()->consume(doubles_to_bytes(std::vector<double>(8 * 10, 2.0)));
  auto mm = MinMaxResult::decode(pipe.value()->finalize());
  ASSERT_TRUE(mm.is_ok());
  EXPECT_EQ(mm.value().count, 8u * 8u);
  EXPECT_NEAR(mm.value().min, 20.0, 1e-9);
  EXPECT_NEAR(mm.value().max, 20.0, 1e-9);
}

TEST(Pipeline, RaggedChunksMatchWholeBuffer) {
  const auto reg = Registry::with_builtins();
  Rng data_rng(3);
  std::vector<double> values(2000);
  for (auto& v : values) v = data_rng.uniform(-5, 5);
  const auto bytes = doubles_to_bytes(values);

  auto whole = reg.create("pipe:ops=scale;a=3|thresholdcount;t=0");
  auto ragged = reg.create("pipe:ops=scale;a=3|thresholdcount;t=0");
  ASSERT_TRUE(whole.is_ok());
  ASSERT_TRUE(ragged.is_ok());
  whole.value()->reset();
  whole.value()->consume(bytes);
  ragged.value()->reset();
  Rng rng(5);
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.uniform_index(97), bytes.size() - pos);
    ragged.value()->consume(std::span(bytes.data() + pos, n));
    pos += n;
  }
  EXPECT_EQ(whole.value()->finalize(), ragged.value()->finalize());
}

TEST(Pipeline, CheckpointResumeComposes) {
  const auto reg = Registry::with_builtins();
  const std::string op = "pipe:ops=gaussian2d;width=16;mode=full|meanstddev";
  Rng data_rng(9);
  std::vector<double> values(16 * 64);
  for (auto& v : values) v = data_rng.uniform(0, 1);
  const auto bytes = doubles_to_bytes(values);

  auto ref = reg.create(op);
  ASSERT_TRUE(ref.is_ok());
  ref.value()->reset();
  ref.value()->consume(bytes);

  auto first = reg.create(op);
  ASSERT_TRUE(first.is_ok());
  first.value()->reset();
  const std::size_t cut = bytes.size() / 3 + 7;
  first.value()->consume(std::span(bytes.data(), cut));
  auto decoded = Checkpoint::decode(first.value()->checkpoint().encode());
  ASSERT_TRUE(decoded.is_ok());

  auto second = reg.create(op);
  ASSERT_TRUE(second.is_ok());
  ASSERT_TRUE(second.value()->restore(decoded.value()).is_ok());
  EXPECT_EQ(second.value()->consumed(), cut);
  second.value()->consume(std::span(bytes.data() + cut, bytes.size() - cut));
  EXPECT_EQ(second.value()->finalize(), ref.value()->finalize());
}

TEST(Pipeline, ResultSizeComposes) {
  const auto reg = Registry::with_builtins();
  auto pipe = reg.create("pipe:ops=scale;a=2|sum");
  ASSERT_TRUE(pipe.is_ok());
  // scale: h(x) = x; sum: h(x) = 16.
  EXPECT_EQ(pipe.value()->result_size(1_GiB), 16u);
}

TEST(Pipeline, RejectsNonStreamingInnerStage) {
  const auto reg = Registry::with_builtins();
  auto pipe = reg.create("pipe:ops=sum|minmax");
  ASSERT_FALSE(pipe.is_ok());
  EXPECT_EQ(pipe.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Pipeline, RejectsUnknownStageAndEmptyList) {
  const auto reg = Registry::with_builtins();
  EXPECT_FALSE(reg.create("pipe:ops=fft|sum").is_ok());
  EXPECT_FALSE(reg.create("pipe").is_ok());
  EXPECT_FALSE(reg.create("pipe:ops=").is_ok());
}

// ---------------------------------------------------------------- through the cluster

TEST(Pipeline, RunsActivelyOnStorageNode) {
  core::ClusterConfig cfg;
  cfg.scheme = core::SchemeKind::kActive;
  core::Cluster cluster(cfg);
  auto meta = pfs::write_doubles(cluster.pfs_client(), "/p", 50'000,
                                 [](std::size_t i) { return static_cast<double>(i % 10); });
  ASSERT_TRUE(meta.is_ok());

  auto out = cluster.asc().read_ex(meta.value(), 0, meta.value().size,
                                   "pipe:ops=scale;a=2;b=3|sum");
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  auto sum = SumResult::decode(out.value());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().count, 50'000u);
  double expect = 0;
  for (std::size_t i = 0; i < 50'000; ++i) expect += 2.0 * static_cast<double>(i % 10) + 3.0;
  EXPECT_NEAR(sum.value().sum, expect, 1e-5);
  EXPECT_EQ(cluster.storage_server(0).stats().active_completed, 1u);
}

TEST(Pipeline, DemotedPipelineComputesLocally) {
  core::ClusterConfig cfg;
  cfg.scheme = core::SchemeKind::kTraditional;
  core::Cluster cluster(cfg);
  auto meta = pfs::write_doubles(cluster.pfs_client(), "/p", 10'000,
                                 [](std::size_t i) { return static_cast<double>(i % 4); });
  ASSERT_TRUE(meta.is_ok());
  auto out = cluster.asc().read_ex(meta.value(), 0, meta.value().size,
                                   "pipe:ops=scale;a=1;b=1|thresholdcount;t=2.5");
  ASSERT_TRUE(out.is_ok());
  auto r = ThresholdCountResult::decode(out.value());
  ASSERT_TRUE(r.is_ok());
  // items: (i%4)+1 in {1,2,3,4}; > 2.5 means 3 or 4: half of them.
  EXPECT_EQ(r.value().matches, 5'000u);
  EXPECT_EQ(cluster.asc().stats().demoted, 1u);
}

}  // namespace
}  // namespace dosas::kernels
