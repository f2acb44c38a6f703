// Unit + property tests for dosas::kernels — the processing-kernel
// framework: streaming correctness under arbitrary chunking, checkpoint /
// restore (the paper's interruption protocol), merging, and the registry.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "kernels/byte_grep.hpp"
#include "kernels/calibrate.hpp"
#include "kernels/gaussian2d.hpp"
#include "kernels/histogram.hpp"
#include "kernels/mean_stddev.hpp"
#include "kernels/minmax.hpp"
#include "kernels/operation.hpp"
#include "kernels/registry.hpp"
#include "kernels/sum.hpp"
#include "kernels/threshold_count.hpp"
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

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Feed `bytes` to `kernel` in chunks whose sizes are drawn from `rng`,
/// deliberately misaligned with the 8-byte item size.
void consume_ragged(Kernel& kernel, const std::vector<std::uint8_t>& bytes, Rng& rng) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.uniform_index(97), bytes.size() - pos);
    kernel.consume(std::span(bytes.data() + pos, n));
    pos += n;
  }
}

// ---------------------------------------------------------------- operation

TEST(OperationSpec, ParsesBareKernel) {
  auto spec = OperationSpec::parse("sum");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec.value().kernel, "sum");
  EXPECT_TRUE(spec.value().args.empty());
}

TEST(OperationSpec, ParsesArguments) {
  auto spec = OperationSpec::parse("histogram:bins=32,lo=-1,hi=1");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec.value().kernel, "histogram");
  EXPECT_EQ(spec.value().get_int("bins", 0), 32);
  EXPECT_DOUBLE_EQ(spec.value().get_double("lo", 0), -1.0);
  EXPECT_DOUBLE_EQ(spec.value().get_double("hi", 0), 1.0);
}

TEST(OperationSpec, RejectsEmptyKernel) {
  EXPECT_FALSE(OperationSpec::parse("").is_ok());
  EXPECT_FALSE(OperationSpec::parse(":a=b").is_ok());
}

TEST(OperationSpec, RejectsMalformedPair) {
  EXPECT_FALSE(OperationSpec::parse("sum:novalue").is_ok());
  EXPECT_FALSE(OperationSpec::parse("sum:=v").is_ok());
}

TEST(OperationSpec, ToStringRoundTrips) {
  auto spec = OperationSpec::parse("gaussian2d:mode=digest,width=512");
  ASSERT_TRUE(spec.is_ok());
  auto again = OperationSpec::parse(spec.value().to_string());
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value(), spec.value());
}

TEST(OperationSpec, DefaultsWhenArgMissing) {
  auto spec = OperationSpec::parse("sum");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec.value().get("x", "dflt"), "dflt");
  EXPECT_EQ(spec.value().get_int("x", 9), 9);
}

// ---------------------------------------------------------------- sum

TEST(SumKernel, SumsDoublesExactly) {
  SumKernel k;
  k.reset();
  const std::vector<double> values = {1.5, 2.5, -4.0, 10.0};
  k.consume(doubles_to_bytes(values));
  auto result = SumResult::decode(k.finalize());
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().count, 4u);
  EXPECT_DOUBLE_EQ(result.value().sum, 10.0);
}

TEST(SumKernel, RaggedChunksMatchWholeBuffer) {
  const auto values = random_doubles(10'000, 3);
  const auto bytes = doubles_to_bytes(values);

  SumKernel whole;
  whole.reset();
  whole.consume(bytes);

  SumKernel ragged;
  ragged.reset();
  Rng rng(17);
  consume_ragged(ragged, bytes, rng);

  const auto a = SumResult::decode(whole.finalize());
  const auto b = SumResult::decode(ragged.finalize());
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().count, b.value().count);
  EXPECT_EQ(bits(a.value().sum), bits(b.value().sum));
  EXPECT_EQ(ragged.consumed(), bytes.size());
}

/// The documented lane order (sum.hpp), as a reference: item i into lane
/// i mod 8, the lanes folded pairwise.
double lane_sum(const std::vector<double>& values) {
  double l[8] = {};
  for (std::size_t i = 0; i < values.size(); ++i) l[i % 8] += values[i];
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/// Random values with 1e16 spikes, whose ulp (2) swallows the low bits of
/// whatever partial sum they join: the rounding depends on the order.
std::vector<double> spiky_doubles(std::size_t n, std::uint64_t seed) {
  auto values = random_doubles(n, seed);
  for (std::size_t i = 3; i < n; i += 101) values[i] = 1e16;
  return values;
}

TEST(SumKernel, MatchesDocumentedLaneOrderBitForBit) {
  const auto values = spiky_doubles(10'001, 7);
  const double want = lane_sum(values);
  const double serial = std::accumulate(values.begin(), values.end(), 0.0);
  ASSERT_NE(bits(serial), bits(want)) << "the input does not tell the orders apart";

  SumKernel k;
  k.reset();
  k.consume(doubles_to_bytes(values));
  const auto got = SumResult::decode(k.finalize());
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().count, values.size());
  EXPECT_EQ(bits(got.value().sum), bits(want)) << got.value().sum << " vs " << want;
}

TEST(SumKernel, ResultSizeIsConstant) {
  SumKernel k;
  EXPECT_EQ(k.result_size(128_MiB), k.result_size(1_GiB));
  EXPECT_EQ(k.result_size(0), 16u);
}

TEST(SumKernel, MergeCombinesPartials) {
  const auto values = random_doubles(1000, 5);
  const auto bytes = doubles_to_bytes(values);

  SumKernel left, right;
  left.reset();
  right.reset();
  left.consume(std::span(bytes.data(), 400 * sizeof(double)));
  right.consume(std::span(bytes.data() + 400 * sizeof(double), 600 * sizeof(double)));
  ASSERT_TRUE(left.merge(right.finalize()).is_ok());

  auto merged = SumResult::decode(left.finalize());
  ASSERT_TRUE(merged.is_ok());
  EXPECT_EQ(merged.value().count, 1000u);
  const double expect = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_NEAR(merged.value().sum, expect, 1e-9);
}

TEST(SumKernel, MergeRejectsGarbage) {
  SumKernel k;
  k.reset();
  EXPECT_FALSE(k.merge(std::vector<std::uint8_t>{1, 2, 3}).is_ok());
}

// ---------------------------------------------------------------- checkpoint/restore (all itemwise)

template <typename K>
std::unique_ptr<Kernel> make_kernel();
template <>
std::unique_ptr<Kernel> make_kernel<SumKernel>() { return std::make_unique<SumKernel>(); }
template <>
std::unique_ptr<Kernel> make_kernel<MinMaxKernel>() { return std::make_unique<MinMaxKernel>(); }
template <>
std::unique_ptr<Kernel> make_kernel<MeanStddevKernel>() {
  return std::make_unique<MeanStddevKernel>();
}
template <>
std::unique_ptr<Kernel> make_kernel<HistogramKernel>() {
  return std::make_unique<HistogramKernel>(16, -100.0, 100.0);
}
template <>
std::unique_ptr<Kernel> make_kernel<ThresholdCountKernel>() {
  return std::make_unique<ThresholdCountKernel>(0.0);
}

template <typename K>
class ItemwiseCheckpointTest : public ::testing::Test {};

using ItemwiseKernels = ::testing::Types<SumKernel, MinMaxKernel, MeanStddevKernel,
                                         HistogramKernel, ThresholdCountKernel>;
TYPED_TEST_SUITE(ItemwiseCheckpointTest, ItemwiseKernels);

TYPED_TEST(ItemwiseCheckpointTest, InterruptRestoreMatchesUninterrupted) {
  const auto values = random_doubles(5000, 11);
  const auto bytes = doubles_to_bytes(values);

  // Uninterrupted reference.
  auto ref = make_kernel<TypeParam>();
  ref->reset();
  ref->consume(bytes);

  // Interrupted at an item-misaligned byte offset, checkpointed, restored
  // into a *fresh* instance (the client side), and resumed.
  const std::size_t cut = 12'345;  // not a multiple of 8
  auto first = make_kernel<TypeParam>();
  first->reset();
  first->consume(std::span(bytes.data(), cut));
  const Checkpoint ck = first->checkpoint();

  // Simulate the network hop: encode + decode.
  auto decoded = Checkpoint::decode(ck.encode());
  ASSERT_TRUE(decoded.is_ok());

  auto second = make_kernel<TypeParam>();
  ASSERT_TRUE(second->restore(decoded.value()).is_ok());
  EXPECT_EQ(second->consumed(), cut);
  second->consume(std::span(bytes.data() + cut, bytes.size() - cut));

  EXPECT_EQ(second->finalize(), ref->finalize());
  EXPECT_EQ(second->consumed(), bytes.size());
}

TYPED_TEST(ItemwiseCheckpointTest, RestoreRejectsWrongKernelCheckpoint) {
  ByteGrepKernel other("zzz");
  other.reset();
  auto k = make_kernel<TypeParam>();
  EXPECT_FALSE(k->restore(other.checkpoint()).is_ok());
}

// ---------------------------------------------------------------- minmax

TEST(MinMaxKernel, TracksExtremes) {
  MinMaxKernel k;
  k.reset();
  k.consume(doubles_to_bytes({3.0, -7.5, 12.25, 0.0}));
  auto r = MinMaxResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_DOUBLE_EQ(r.value().min, -7.5);
  EXPECT_DOUBLE_EQ(r.value().max, 12.25);
  EXPECT_EQ(r.value().count, 4u);
}

TEST(MinMaxKernel, EmptyStreamFinalizes) {
  MinMaxKernel k;
  k.reset();
  auto r = MinMaxResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().count, 0u);
}

TEST(MinMaxKernel, MergeWithEmptySideIsIdentity) {
  MinMaxKernel a, b;
  a.reset();
  b.reset();
  a.consume(doubles_to_bytes({5.0, -1.0}));
  ASSERT_TRUE(a.merge(b.finalize()).is_ok());
  auto r = MinMaxResult::decode(a.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().count, 2u);
  EXPECT_DOUBLE_EQ(r.value().min, -1.0);
}

TEST(MinMaxKernel, MergeMatchesSequential) {
  const auto values = random_doubles(2000, 23);
  const auto bytes = doubles_to_bytes(values);
  MinMaxKernel seq, left, right;
  seq.reset();
  left.reset();
  right.reset();
  seq.consume(bytes);
  left.consume(std::span(bytes.data(), 8 * 700));
  right.consume(std::span(bytes.data() + 8 * 700, bytes.size() - 8 * 700));
  ASSERT_TRUE(left.merge(right.finalize()).is_ok());
  EXPECT_EQ(left.finalize(), seq.finalize());
}

/// The ordered loop that defines MinMaxKernel's result, as a reference.
MinMaxResult serial_minmax(const std::vector<double>& values) {
  MinMaxResult r;
  for (double v : values) {
    if (r.count == 0) {
      r.min = r.max = v;
    } else {
      if (v < r.min) r.min = v;
      if (v > r.max) r.max = v;
    }
    ++r.count;
  }
  return r;
}

/// The kernel's result for `values`, fed whole, in ragged chunks, and
/// across a checkpoint/restore, must equal the ordered loop bit for bit.
void expect_bit_exact(const std::vector<double>& values, const std::string& label) {
  SCOPED_TRACE(label);
  const MinMaxResult want = serial_minmax(values);
  const auto bytes = doubles_to_bytes(values);
  auto check = [&](const std::vector<std::uint8_t>& encoded, const char* how) {
    auto got = MinMaxResult::decode(encoded);
    ASSERT_TRUE(got.is_ok()) << how;
    EXPECT_EQ(got.value().count, want.count) << how;
    EXPECT_EQ(bits(got.value().min), bits(want.min)) << how << " min " << got.value().min;
    EXPECT_EQ(bits(got.value().max), bits(want.max)) << how << " max " << got.value().max;
  };

  MinMaxKernel whole;
  whole.reset();
  whole.consume(bytes);
  check(whole.finalize(), "whole");

  MinMaxKernel ragged;
  ragged.reset();
  Rng rng(values.size());
  consume_ragged(ragged, bytes, rng);
  check(ragged.finalize(), "ragged");

  // Interrupt at an unaligned byte offset, resume on a fresh instance.
  const std::size_t cut = bytes.size() / 2 + 3;
  MinMaxKernel first;
  first.reset();
  first.consume(std::span(bytes.data(), cut));
  MinMaxKernel resumed;
  ASSERT_TRUE(resumed.restore(first.checkpoint()).is_ok());
  resumed.consume(std::span(bytes.data() + cut, bytes.size() - cut));
  check(resumed.finalize(), "checkpoint/restore");
}

TEST(MinMaxKernel, BlockCheckedLoopIsBitExactWithOrderedLoop) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t n = 1000;  // many 64-item blocks plus a remainder

  expect_bit_exact(random_doubles(n, 31), "random");

  auto nan_first = random_doubles(n, 32);
  nan_first[0] = nan;
  expect_bit_exact(nan_first, "NaN first");

  auto nan_later = random_doubles(n, 33);
  for (std::size_t i = 5; i < n; i += 97) nan_later[i] = nan;
  // A NaN first in its block, then new extremes in the same lane of it;
  // the other lane's values are well inside the range.
  nan_later[0] = -500.0;
  nan_later[1] = 500.0;
  const double block[] = {nan, 0.0, -1000.0, 0.0, 1000.0, 0.0, 0.0, 0.0};
  std::copy(std::begin(block), std::end(block), nan_later.begin() + 16);
  expect_bit_exact(nan_later, "NaN later");

  // +0/-0 compare equal, so whichever zero comes first must stay — also
  // when the other sign sits in the same block or an earlier lane.
  for (const bool negative_first : {false, true}) {
    std::vector<double> zeros(n);
    for (std::size_t i = 0; i < n; ++i) zeros[i] = static_cast<double>(i % 13 + 1);
    const double a = negative_first ? -0.0 : 0.0;
    zeros[17] = a;
    zeros[18] = -a;
    zeros[20] = -a;
    zeros[400] = -a;
    expect_bit_exact(zeros, negative_first ? "-0 before +0" : "+0 before -0");
    for (auto& v : zeros) v = -v;  // now zeros are the max
    expect_bit_exact(zeros, negative_first ? "max: +0 before -0" : "max: -0 before +0");
  }

  auto infs = random_doubles(n, 34);
  infs[3] = inf;
  infs[500] = -inf;
  infs[501] = inf;
  infs[900] = -inf;
  expect_bit_exact(infs, "+-inf");

  std::vector<double> descending(n), ascending(n);
  for (std::size_t i = 0; i < n; ++i) {
    descending[i] = -static_cast<double>(i);
    ascending[i] = static_cast<double>(i) * 0.5;
  }
  expect_bit_exact(descending, "strictly descending");
  expect_bit_exact(ascending, "strictly ascending");

  // A NaN first in a 64-item block, then new extremes in its accumulator
  // lane and in the other lane of that accumulator.
  auto nan_block = random_doubles(n, 36);
  nan_block[128] = nan;
  nan_block[129] = 1000.0;
  nan_block[136] = -1000.0;
  expect_bit_exact(nan_block, "NaN first in a block");

  // The only value beyond the range, at each position of a 64-item block
  // that a different accumulator lane checks (0-7), and at its last (63):
  // a block check that leaves one accumulator out of its mask misses it.
  for (std::size_t pos : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 63u}) {
    for (const double beyond : {-1000.0, 1000.0}) {
      std::vector<double> values(3 * 64 + 5);
      for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i % 10) - 5;
      values[64 + pos] = beyond;
      expect_bit_exact(values, "only " + std::to_string(beyond) + " at " + std::to_string(pos));
    }
  }

  for (std::size_t len : {1u, 7u, 8u, 9u, 16u, 17u, 63u, 64u, 65u, 128u, 129u}) {
    expect_bit_exact(random_doubles(len, 35 + len), "short " + std::to_string(len));
  }
}

// ---------------------------------------------------------------- meanstddev

TEST(MeanStddevKernel, MatchesClosedForm) {
  MeanStddevKernel k;
  k.reset();
  k.consume(doubles_to_bytes({2, 4, 4, 4, 5, 5, 7, 9}));
  auto r = MeanStddevResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_DOUBLE_EQ(r.value().mean, 5.0);
  EXPECT_NEAR(std::sqrt(r.value().variance()), 2.138, 0.001);
}

TEST(MeanStddevKernel, MergeMatchesSequentialWithinTolerance) {
  const auto values = random_doubles(4000, 31);
  const auto bytes = doubles_to_bytes(values);
  MeanStddevKernel seq, left, right;
  seq.reset();
  left.reset();
  right.reset();
  seq.consume(bytes);
  const std::size_t cut_items = 1234;
  left.consume(std::span(bytes.data(), 8 * cut_items));
  right.consume(std::span(bytes.data() + 8 * cut_items, bytes.size() - 8 * cut_items));
  ASSERT_TRUE(left.merge(right.finalize()).is_ok());

  auto a = MeanStddevResult::decode(seq.finalize());
  auto b = MeanStddevResult::decode(left.finalize());
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().count, b.value().count);
  EXPECT_NEAR(a.value().mean, b.value().mean, 1e-9);
  EXPECT_NEAR(a.value().m2, b.value().m2, 1e-5);
}

// ---------------------------------------------------------------- histogram

TEST(HistogramKernel, BinsValuesCorrectly) {
  HistogramKernel k(4, 0.0, 4.0);
  k.reset();
  k.consume(doubles_to_bytes({0.5, 1.5, 1.6, 2.5, 3.5, -1.0, 9.0}));
  auto r = HistogramResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().counts, (std::vector<std::uint64_t>{1, 2, 1, 1}));
  EXPECT_EQ(r.value().below, 1u);
  EXPECT_EQ(r.value().above, 1u);
  EXPECT_EQ(r.value().total(), 7u);
}

TEST(HistogramKernel, HiBoundaryGoesToOverflow) {
  HistogramKernel k(2, 0.0, 2.0);
  k.reset();
  k.consume(doubles_to_bytes({2.0}));
  auto r = HistogramResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().above, 1u);
}

TEST(HistogramKernel, FromSpecValidation) {
  EXPECT_TRUE(HistogramKernel::from_spec(OperationSpec::parse("histogram:bins=8").value()).is_ok());
  EXPECT_FALSE(
      HistogramKernel::from_spec(OperationSpec::parse("histogram:bins=0").value()).is_ok());
  EXPECT_FALSE(
      HistogramKernel::from_spec(OperationSpec::parse("histogram:lo=2,hi=1").value()).is_ok());
}

TEST(HistogramKernel, MergeRejectsMismatchedBinning) {
  HistogramKernel a(4, 0.0, 1.0), b(8, 0.0, 1.0);
  a.reset();
  b.reset();
  EXPECT_FALSE(a.merge(b.finalize()).is_ok());
}

TEST(HistogramKernel, MergeMatchesSequential) {
  const auto values = random_doubles(3000, 41);
  const auto bytes = doubles_to_bytes(values);
  HistogramKernel seq(32, -100, 100), left(32, -100, 100), right(32, -100, 100);
  seq.reset();
  left.reset();
  right.reset();
  seq.consume(bytes);
  left.consume(std::span(bytes.data(), 8 * 1000));
  right.consume(std::span(bytes.data() + 8 * 1000, bytes.size() - 8 * 1000));
  ASSERT_TRUE(left.merge(right.finalize()).is_ok());
  EXPECT_EQ(left.finalize(), seq.finalize());
}

// ---------------------------------------------------------------- thresholdcount

TEST(ThresholdCountKernel, CountsAboveThreshold) {
  ThresholdCountKernel k(1.0);
  k.reset();
  k.consume(doubles_to_bytes({0.5, 1.0, 1.5, 2.0, -3.0}));
  auto r = ThresholdCountResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().count, 5u);
  EXPECT_EQ(r.value().matches, 2u);  // strictly greater
  EXPECT_DOUBLE_EQ(r.value().threshold, 1.0);
}

TEST(ThresholdCountKernel, MergeRejectsDifferentThreshold) {
  ThresholdCountKernel a(1.0), b(2.0);
  a.reset();
  b.reset();
  EXPECT_FALSE(a.merge(b.finalize()).is_ok());
}

// ---------------------------------------------------------------- gaussian2d

TEST(Gaussian2d, ConstantFieldIsInvariant) {
  const std::size_t w = 16, rows = 10;
  std::vector<double> grid(w * rows, 7.5);
  Gaussian2dKernel k(w, Gaussian2dKernel::Mode::kDigest);
  k.consume(doubles_to_bytes(grid));
  auto d = GaussianDigest::decode(k.finalize());
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().rows, rows - 2);
  EXPECT_EQ(d.value().count, (rows - 2) * w);
  EXPECT_NEAR(d.value().min, 7.5, 1e-12);
  EXPECT_NEAR(d.value().max, 7.5, 1e-12);
  EXPECT_NEAR(d.value().sum, 7.5 * static_cast<double>((rows - 2) * w), 1e-9);
}

TEST(Gaussian2d, FullModeMatchesReference) {
  const std::size_t w = 8, rows = 12;
  const auto grid = random_doubles(w * rows, 55);
  Gaussian2dKernel k(w, Gaussian2dKernel::Mode::kFull);
  k.consume(doubles_to_bytes(grid));

  const auto result = k.finalize();
  ByteReader r(result);
  std::uint64_t out_rows = 0, width = 0;
  ASSERT_TRUE(r.get_u64(out_rows));
  ASSERT_TRUE(r.get_u64(width));
  EXPECT_EQ(out_rows, rows - 2);
  EXPECT_EQ(width, w);

  const auto expect = reference::gaussian_filter(grid, w);
  ASSERT_EQ(expect.size(), out_rows * w);
  for (double e : expect) {
    double got;
    ASSERT_TRUE(r.get_f64(got));
    ASSERT_TRUE(reference::same_bits(got, e)) << got << " vs " << e;
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(Gaussian2d, FullModeMatchesReferenceBitForBitOnSignedZerosAndSpecials) {
  // Rows 0-3 are all -0.0 (so rows 1-2 filter all -0.0 neighbourhoods,
  // which must stay -0.0); the rest mix NaN, +-inf and +-0 into noise.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, 0.0, -0.0};
  const std::size_t w = 8, rows = 16;
  std::vector<double> grid = random_doubles(w * rows, 91);
  Rng rng(91);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i < 4 * w) {
      grid[i] = -0.0;
    } else if (rng.uniform_index(4) == 0) {
      grid[i] = specials[rng.uniform_index(5)];
    }
  }
  Gaussian2dKernel k(w, Gaussian2dKernel::Mode::kFull);
  k.consume(doubles_to_bytes(grid));

  const auto result = k.finalize();
  ByteReader r(result);
  std::uint64_t out_rows = 0, width = 0;
  ASSERT_TRUE(r.get_u64(out_rows));
  ASSERT_TRUE(r.get_u64(width));
  const auto expect = reference::gaussian_filter(grid, w);
  ASSERT_EQ(expect.size(), out_rows * w);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    double got;
    ASSERT_TRUE(r.get_f64(got));
    if (i < 2 * w) {
      ASSERT_TRUE(std::signbit(got)) << "pixel " << i << " lost the sign of -0.0";
    }
    ASSERT_TRUE(reference::same_bits(got, expect[i]))
        << "pixel " << i << ": " << got << " vs " << expect[i];
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(Gaussian2d, RaggedChunksMatchWholeBuffer) {
  const std::size_t w = 32, rows = 40;
  const auto grid = random_doubles(w * rows, 77);
  const auto bytes = doubles_to_bytes(grid);

  Gaussian2dKernel whole(w);
  whole.consume(bytes);

  Gaussian2dKernel ragged(w);
  Rng rng(99);
  consume_ragged(ragged, bytes, rng);

  EXPECT_EQ(whole.finalize(), ragged.finalize());
}

TEST(Gaussian2d, FewerThanThreeRowsProducesNothing) {
  const std::size_t w = 8;
  Gaussian2dKernel k(w);
  k.consume(doubles_to_bytes(random_doubles(w * 2, 5)));
  auto d = GaussianDigest::decode(k.finalize());
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().rows, 0u);
  EXPECT_EQ(d.value().count, 0u);
}

TEST(CheckpointEncoding, SumAndGaussianMatchRecordedDigests) {
  // sum and gaussian2d are the checkpoints the paced scenarios (perfbench's
  // contend, bench_scale, the DST suite) ship over the link model, so their
  // encoded size feeds virtual time: an encoding may change only on
  // purpose. Pinned as the FNV-1a 64 of each encoded checkpoint, at cuts
  // mid-item and mid-row, in both gaussian2d modes. sum's checkpoint
  // carries its eight lanes (sum.hpp), 62 bytes more than one f64 sum:
  // about 0.5 us of link time per handed-back sum at 118 MB/s, which buys
  // a sum whose bits depend only on its leg's bytes, and a kernel that
  // sums at memory speed.
  const auto fnv = [](const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
    return h;
  };
  std::vector<double> values(128 * 12);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = 0.125 * (i % 29) - 1.0;
  const auto bytes = doubles_to_bytes(values);
  std::ostringstream got;
  const auto digest = [&](Kernel& k, std::size_t cut) {
    k.reset();
    k.consume(std::span(bytes.data(), cut));
    got << std::hex << fnv(k.checkpoint().encode()) << ' ';
  };
  for (std::size_t cut : {std::size_t{0}, std::size_t{5}, std::size_t{8 * 37 + 3}, bytes.size()}) {
    SumKernel sum;
    digest(sum, cut);
  }
  for (auto mode : {Gaussian2dKernel::Mode::kDigest, Gaussian2dKernel::Mode::kFull}) {
    for (std::size_t cut : {std::size_t{0}, std::size_t{1024 * 2 + 100},
                            std::size_t{1024 * 5 + 8 * 3 + 5}, bytes.size()}) {
      Gaussian2dKernel gaussian(128, mode);
      digest(gaussian, cut);
    }
  }
  EXPECT_EQ(got.str(),
            "55544a00fc77a35c 2b932c3935bf7a88 28c9be3dd533d39 3d6fb551dd83e77 "  // sum
            "19b711749ecfe606 824da58b2c87b95a 466ab99eedc119e8 57e3c5f3847641e2 "  // digest
            "113c2cb9a9e76f81 d2a32e9d362033a7 b6394d66192a8de7 f653253c3e958e1e ");  // full
}

TEST(Gaussian2d, CheckpointRestoreMidRowMatches) {
  const std::size_t w = 16, rows = 30;
  const auto grid = random_doubles(w * rows, 88);
  const auto bytes = doubles_to_bytes(grid);

  Gaussian2dKernel ref(w);
  ref.consume(bytes);

  // Cut mid-row, mid-item.
  const std::size_t cut = (w * 7 + 3) * sizeof(double) + 5;
  Gaussian2dKernel first(w);
  first.consume(std::span(bytes.data(), cut));
  auto decoded = Checkpoint::decode(first.checkpoint().encode());
  ASSERT_TRUE(decoded.is_ok());

  Gaussian2dKernel second(w);
  ASSERT_TRUE(second.restore(decoded.value()).is_ok());
  EXPECT_EQ(second.consumed(), cut);
  second.consume(std::span(bytes.data() + cut, bytes.size() - cut));

  EXPECT_EQ(second.finalize(), ref.finalize());
}

TEST(Gaussian2d, FullModeCheckpointCarriesOutput) {
  const std::size_t w = 8, rows = 20;
  const auto grid = random_doubles(w * rows, 91);
  const auto bytes = doubles_to_bytes(grid);

  Gaussian2dKernel ref(w, Gaussian2dKernel::Mode::kFull);
  ref.consume(bytes);

  const std::size_t cut = bytes.size() / 2 + 3;
  Gaussian2dKernel first(w, Gaussian2dKernel::Mode::kFull);
  first.consume(std::span(bytes.data(), cut));
  Gaussian2dKernel second(w, Gaussian2dKernel::Mode::kFull);
  ASSERT_TRUE(second.restore(first.checkpoint()).is_ok());
  second.consume(std::span(bytes.data() + cut, bytes.size() - cut));

  EXPECT_EQ(second.finalize(), ref.finalize());
}

TEST(Gaussian2d, RestoreRejectsWidthMismatch) {
  Gaussian2dKernel a(16), b(32);
  EXPECT_FALSE(b.restore(a.checkpoint()).is_ok());
}

TEST(Gaussian2d, RestoreRejectsModeMismatch) {
  Gaussian2dKernel a(16, Gaussian2dKernel::Mode::kDigest);
  Gaussian2dKernel b(16, Gaussian2dKernel::Mode::kFull);
  EXPECT_FALSE(b.restore(a.checkpoint()).is_ok());
}

TEST(Gaussian2d, RestoreRejectsRowStateThatDoesNotFitWidth) {
  // Checksum-valid checkpoints whose row state does not fit the width: a
  // short previous row would be read past, and a pending blob of a whole
  // row would swallow all later input.
  const std::size_t w = 128, row_bytes = w * sizeof(double);
  Gaussian2dKernel src(w, Gaussian2dKernel::Mode::kFull);
  src.consume(doubles_to_bytes(random_doubles(w * 5, 4)));
  const Checkpoint good = src.checkpoint();
  ASSERT_EQ(good.get_i64("rows_seen"), 5);
  const std::vector<std::uint8_t> item(sizeof(double), 0), row(row_bytes, 0), none;

  auto restore_with = [&](const std::function<void(Checkpoint&)>& edit) {
    Checkpoint ck = good;
    edit(ck);
    auto decoded = Checkpoint::decode(ck.encode());
    EXPECT_TRUE(decoded.is_ok());
    Gaussian2dKernel k(w, Gaussian2dKernel::Mode::kFull);
    return k.restore(decoded.value()).code();
  };
  const auto ok = ErrorCode::kOk, bad = ErrorCode::kInvalidArgument;
  EXPECT_EQ(restore_with([](Checkpoint&) {}), ok);
  EXPECT_EQ(restore_with([&](Checkpoint& ck) {
              ck.set_blob("prev1", item);
              ck.set_blob("prev2", item);
            }), bad);
  EXPECT_EQ(restore_with([&](Checkpoint& ck) {
              std::vector<std::uint8_t> longer = row;
              longer.push_back(0);
              ck.set_blob("prev2", longer);
            }), bad);
  EXPECT_EQ(restore_with([&](Checkpoint& ck) { ck.set_blob("pending", row); }), bad);
  EXPECT_EQ(restore_with([&](Checkpoint& ck) { ck.set_blob("prev2", none); }), bad);
  EXPECT_EQ(restore_with([&](Checkpoint& ck) {
              ck.set_i64("rows_seen", 1);
              ck.set_blob("prev1", none);
              ck.set_blob("prev2", none);
            }), bad);
  EXPECT_EQ(restore_with([&](Checkpoint& ck) { ck.set_i64("rows_seen", -1); }), bad);
  EXPECT_EQ(restore_with([&](Checkpoint& ck) { ck.set_blob("full_out", {1, 2, 3}); }), bad);
  // After one row only prev1 is held; that state is whole.
  EXPECT_EQ(restore_with([&](Checkpoint& ck) {
              ck.set_i64("rows_seen", 1);
              ck.set_blob("prev2", none);
            }), ok);
}

TEST(Gaussian2d, DigestResultSizeConstantFullProportional) {
  Gaussian2dKernel digest(1024, Gaussian2dKernel::Mode::kDigest);
  EXPECT_EQ(digest.result_size(128_MiB), digest.result_size(1_GiB));

  Gaussian2dKernel full(1024, Gaussian2dKernel::Mode::kFull);
  const Bytes in = 128_MiB;
  EXPECT_GT(full.result_size(in), in - 3 * 1024 * sizeof(double));
  EXPECT_LE(full.result_size(in), in);
}

TEST(Gaussian2d, FromSpecParsesWidthAndMode) {
  auto k = Gaussian2dKernel::from_spec(
      OperationSpec::parse("gaussian2d:width=256,mode=full").value());
  ASSERT_TRUE(k.is_ok());
  auto* g = dynamic_cast<Gaussian2dKernel*>(k.value().get());
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->width(), 256u);
  EXPECT_EQ(g->mode(), Gaussian2dKernel::Mode::kFull);
}

TEST(Gaussian2d, FromSpecRejectsBadArgs) {
  EXPECT_FALSE(
      Gaussian2dKernel::from_spec(OperationSpec::parse("gaussian2d:width=0").value()).is_ok());
  EXPECT_FALSE(
      Gaussian2dKernel::from_spec(OperationSpec::parse("gaussian2d:mode=weird").value()).is_ok());
}

// Property sweep: checkpoint/restore correctness across cut points.
class GaussianCutProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GaussianCutProperty, AnyCutPointResumesExactly) {
  const std::size_t w = 8, rows = 12;
  const auto grid = random_doubles(w * rows, 123);
  const auto bytes = doubles_to_bytes(grid);
  const std::size_t cut = std::min(GetParam(), bytes.size());

  Gaussian2dKernel ref(w);
  ref.consume(bytes);

  Gaussian2dKernel first(w);
  first.consume(std::span(bytes.data(), cut));
  Gaussian2dKernel second(w);
  ASSERT_TRUE(second.restore(first.checkpoint()).is_ok());
  second.consume(std::span(bytes.data() + cut, bytes.size() - cut));
  EXPECT_EQ(second.finalize(), ref.finalize());
}

INSTANTIATE_TEST_SUITE_P(CutPoints, GaussianCutProperty,
                         ::testing::Values(0u, 1u, 7u, 8u, 63u, 64u, 65u, 100u, 512u, 511u,
                                           640u, 767u, 768u, 5000u));

// A sum is a function of the stream's bytes: resumed on a fresh kernel from
// a checkpoint taken at any cut (mid-item included), fed in ragged chunks,
// or staged from a misaligned base, it has the same bits.
class SumCutProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SumCutProperty, AnyCutPointResumesExactly) {
  const auto bytes = doubles_to_bytes(spiky_doubles(1003, 125));
  const std::size_t cut = std::min(GetParam(), bytes.size());
  const std::span<const std::uint8_t> all(bytes);

  SumKernel ref;
  ref.reset();
  ref.consume(all);
  const auto want = ref.finalize();

  SumKernel first;
  first.reset();
  first.consume(all.first(cut));
  auto decoded = Checkpoint::decode(first.checkpoint().encode());
  ASSERT_TRUE(decoded.is_ok());
  SumKernel second;
  ASSERT_TRUE(second.restore(decoded.value()).is_ok());
  second.consume(all.subspan(cut));
  EXPECT_EQ(second.finalize(), want) << "resumed";

  SumKernel ragged;
  ragged.reset();
  Rng rng(cut + 1);
  consume_ragged(ragged, bytes, rng);
  EXPECT_EQ(ragged.finalize(), want) << "ragged";

  std::vector<std::uint8_t> backing(bytes.size() + 1);
  std::memcpy(backing.data() + 1, bytes.data(), bytes.size());
  const std::span<const std::uint8_t> shifted(backing.data() + 1, bytes.size());
  SumKernel staged;
  staged.reset();
  staged.consume(shifted.first(cut));
  staged.consume(shifted.subspan(cut));
  EXPECT_EQ(staged.finalize(), want) << "misaligned";
}

INSTANTIATE_TEST_SUITE_P(CutPoints, SumCutProperty,
                         ::testing::Values(0u, 1u, 7u, 8u, 13u, 63u, 64u, 65u, 100u, 511u, 512u,
                                           517u, 4001u, 8024u));

// ---------------------------------------------------------------- bytegrep

TEST(ByteGrep, CountsOccurrences) {
  ByteGrepKernel k("ab");
  k.reset();
  const std::string text = "abxxabab";
  k.consume(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  auto r = ByteGrepResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().matches, 3u);
  EXPECT_EQ(r.value().scanned, text.size());
}

TEST(ByteGrep, CountsOverlappingMatches) {
  ByteGrepKernel k("aa");
  k.reset();
  const std::string text = "aaaa";
  k.consume(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  auto r = ByteGrepResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().matches, 3u);
}

TEST(ByteGrep, FindsMatchSpanningChunks) {
  ByteGrepKernel k("ERROR");
  k.reset();
  const std::string a = "xxxxER";
  const std::string b = "RORyyyy";
  k.consume(std::span(reinterpret_cast<const std::uint8_t*>(a.data()), a.size()));
  k.consume(std::span(reinterpret_cast<const std::uint8_t*>(b.data()), b.size()));
  auto r = ByteGrepResult::decode(k.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().matches, 1u);
}

TEST(ByteGrep, RaggedChunksMatchWholeBuffer) {
  Rng data_rng(7);
  std::vector<std::uint8_t> hay(50'000);
  for (auto& b : hay) b = static_cast<std::uint8_t>('a' + data_rng.uniform_index(3));

  ByteGrepKernel whole("abc");
  whole.reset();
  whole.consume(hay);

  ByteGrepKernel ragged("abc");
  ragged.reset();
  Rng rng(13);
  consume_ragged(ragged, hay, rng);

  EXPECT_EQ(whole.finalize(), ragged.finalize());
}

TEST(ByteGrep, CheckpointResumeFindsBoundaryMatch) {
  const std::string text = "....NEEDLE....";
  ByteGrepKernel first("NEEDLE");
  first.reset();
  first.consume(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), 7));  // "....NEE"

  ByteGrepKernel second("NEEDLE");
  ASSERT_TRUE(second.restore(first.checkpoint()).is_ok());
  second.consume(
      std::span(reinterpret_cast<const std::uint8_t*>(text.data()) + 7, text.size() - 7));
  auto r = ByteGrepResult::decode(second.finalize());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().matches, 1u);
}

TEST(ByteGrep, RestoreRejectsPatternMismatch) {
  ByteGrepKernel a("AAA"), b("BBB");
  a.reset();
  EXPECT_FALSE(b.restore(a.checkpoint()).is_ok());
}

// ---------------------------------------------------------------- registry

TEST(Registry, BuiltinsArePresent) {
  const auto reg = Registry::with_builtins();
  for (const char* name : {"sum", "minmax", "meanstddev", "histogram", "thresholdcount",
                           "gaussian2d", "bytegrep", "sobel2d", "topk", "reservoir"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_EQ(reg.names().size(), 12u);
}

TEST(Registry, CreatesKernelFromOperationString) {
  const auto reg = Registry::with_builtins();
  auto k = reg.create("gaussian2d:width=64");
  ASSERT_TRUE(k.is_ok());
  EXPECT_EQ(k.value()->name(), "gaussian2d");
}

TEST(Registry, UnknownKernelFails) {
  const auto reg = Registry::with_builtins();
  auto k = reg.create("fft");
  ASSERT_FALSE(k.is_ok());
  EXPECT_EQ(k.status().code(), ErrorCode::kNotFound);
}

TEST(Registry, MalformedOperationFails) {
  const auto reg = Registry::with_builtins();
  EXPECT_FALSE(reg.create(":oops").is_ok());
}

TEST(Registry, CustomKernelRegisters) {
  Registry reg;
  reg.register_kernel("custom", [](const OperationSpec&) -> Result<std::unique_ptr<Kernel>> {
    return std::unique_ptr<Kernel>(std::make_unique<SumKernel>());
  });
  EXPECT_TRUE(reg.contains("custom"));
  EXPECT_TRUE(reg.create("custom").is_ok());
}

// ---------------------------------------------------------------- calibration

TEST(Calibrate, ProducesPositiveRate) {
  SumKernel k;
  CalibrationOptions opts;
  opts.total_bytes = 4_MiB;
  opts.chunk_size = 256_KiB;
  opts.warmup_chunks = 1;
  const auto r = calibrate(k, opts);
  EXPECT_GT(r.rate, 0.0);
  EXPECT_GE(r.bytes_processed, opts.total_bytes);
  EXPECT_GT(r.elapsed, 0.0);
}

TEST(Calibrate, SumIsFasterThanGaussian) {
  // The paper's Table III ordering (860 vs 80 MB/s) must hold on any host:
  // SUM does 1 add/item, the Gaussian does 19 FLOPs over 9 neighbours.
  SumKernel sum;
  Gaussian2dKernel gauss(1024);
  CalibrationOptions opts;
  opts.total_bytes = 8_MiB;
  opts.chunk_size = 512_KiB;
  opts.warmup_chunks = 1;
  const auto rs = calibrate(sum, opts);
  const auto rg = calibrate(gauss, opts);
  EXPECT_GT(rs.rate, rg.rate);
}

}  // namespace
}  // namespace dosas::kernels
