// Robustness fuzzing: hostile/corrupted inputs at every decode boundary
// must fail cleanly (error Status), never crash or accept garbage:
// checkpoint codec, kernel result decoders, operation strings, and trace
// parsing. Kernel restore is fuzzed field by field in test_stress.cpp.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/trace.hpp"
#include "kernels/gaussian2d.hpp"
#include "kernels/histogram.hpp"
#include "kernels/registry.hpp"
#include "kernels/sum.hpp"
#include "kernels/topk.hpp"

namespace dosas {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(FuzzCheckpoint, RandomBytesNeverDecode) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto bytes = random_bytes(rng, rng.uniform_index(200));
    const auto decoded = Checkpoint::decode(bytes);
    // Random bytes essentially never carry the magic; decode must either
    // reject or produce a valid object — never crash.
    if (decoded.is_ok()) {
      EXPECT_GE(decoded.value().field_count(), 0u);
    }
  }
}

TEST(FuzzCheckpoint, TruncationsOfValidCheckpointReject) {
  kernels::SumKernel k;
  k.reset();
  std::vector<double> vals(100, 1.5);
  k.consume(std::span(reinterpret_cast<const std::uint8_t*>(vals.data()), 800));
  const auto bytes = k.checkpoint().encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> trunc(bytes.begin(),
                                    bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(Checkpoint::decode(trunc).is_ok()) << "cut=" << cut;
  }
}

TEST(FuzzResults, DecodersRejectRandomPayloads) {
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const auto bytes = random_bytes(rng, rng.uniform_index(100));
    // Each decoder must return an error or a well-formed value.
    (void)kernels::SumResult::decode(bytes);
    (void)kernels::HistogramResult::decode(bytes);
    (void)kernels::TopKResult::decode(bytes);
    (void)kernels::GaussianDigest::decode(bytes);
  }
  SUCCEED();
}

TEST(FuzzResults, TopKWithHugeClaimedCountRejects) {
  // A hostile header claiming 4 billion values must not allocate blindly.
  ByteWriter w;
  w.put_u64(10);
  w.put_u32(0xFFFFFFFF);
  const auto r = kernels::TopKResult::decode(w.bytes());
  EXPECT_FALSE(r.is_ok());
}

TEST(FuzzOperation, RandomStringsNeverCrashRegistry) {
  const auto reg = kernels::Registry::with_builtins();
  Rng rng(4);
  const std::string charset = "abcdefgh0123456789:=,._-";
  for (int i = 0; i < 500; ++i) {
    std::string op;
    const auto len = rng.uniform_index(30);
    for (std::size_t c = 0; c < len; ++c) op += charset[rng.uniform_index(charset.size())];
    (void)reg.create(op);  // error or kernel; never crash
  }
  SUCCEED();
}

TEST(FuzzOperation, HostileParameterValues) {
  const auto reg = kernels::Registry::with_builtins();
  for (const char* op : {
           "histogram:bins=-1", "histogram:bins=99999999999", "histogram:lo=nan,hi=nan",
           "gaussian2d:width=-5", "gaussian2d:width=999999999999", "topk:k=-2",
           "reservoir:n=0", "sobel2d:width=0", "thresholdcount:t=",
           "histogram:bins=", "sum:,,,,", "gaussian2d:mode=",
       }) {
    auto k = reg.create(op);
    if (k.is_ok()) {
      // If accepted, it must behave: consume a little data and finalize.
      std::vector<std::uint8_t> chunk(64, 7);
      k.value()->reset();
      k.value()->consume(chunk);
      (void)k.value()->finalize();
    }
  }
  SUCCEED();
}

TEST(FuzzTrace, RandomLinesNeverCrash) {
  Rng rng(5);
  const std::string charset = "tnodesizp=., 0123456789MiBG#\n";
  for (int i = 0; i < 300; ++i) {
    std::string text;
    const auto len = rng.uniform_index(200);
    for (std::size_t c = 0; c < len; ++c) text += charset[rng.uniform_index(charset.size())];
    (void)core::Trace::parse_text(text);  // error or trace; never crash
  }
  SUCCEED();
}

TEST(FuzzTrace, ValidTracesSurviveRandomRoundTrips) {
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    core::Trace trace;
    const auto n = rng.uniform_index(20);
    for (std::size_t i = 0; i < n; ++i) {
      core::TraceRecord rec;
      rec.arrival = rng.uniform(0.0, 100.0);
      rec.node = static_cast<std::uint32_t>(rng.uniform_index(16));
      rec.size = 1 + rng.uniform_index(1_GiB);
      rec.operation = rng.chance(0.5) ? "sum" : "gaussian2d:width=64";
      trace.records.push_back(rec);
    }
    auto again = core::Trace::parse_text(trace.to_text());
    ASSERT_TRUE(again.is_ok());
    ASSERT_EQ(again.value().records.size(), trace.records.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(again.value().records[i].size, trace.records[i].size);
      EXPECT_EQ(again.value().records[i].node, trace.records[i].node);
      EXPECT_NEAR(again.value().records[i].arrival, trace.records[i].arrival, 1e-5);
    }
  }
}

}  // namespace
}  // namespace dosas
