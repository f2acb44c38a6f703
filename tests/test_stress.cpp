// Stress & boundary suites:
//   * every registered kernel fed one byte at a time (and with empty
//     chunks interleaved) must match its whole-buffer result exactly;
//   * a mixed-operation thread storm against one DOSAS cluster must return
//     reference-exact results for every request;
//   * repeated interrupt/restore cycles (checkpoint ping-pong) preserve
//     kernel state across arbitrarily many migrations;
//   * a field-level fuzzer: every well-formed checkpoint with one field
//     mutated is either refused cleanly or resumes without fault.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/cluster.hpp"
#include "kernels/registry.hpp"

namespace dosas {
namespace {

std::vector<std::uint8_t> test_payload(std::size_t doubles, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(doubles);
  for (auto& v : values) v = rng.uniform(0.0, 1.0);
  std::vector<std::uint8_t> bytes(values.size() * sizeof(double));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

/// Operations with small enough state to ping-pong quickly; one per
/// registered kernel family.
const char* kOps[] = {
    "sum",
    "minmax",
    "meanstddev",
    "histogram:bins=8,lo=0,hi=1",
    "thresholdcount:t=0.5",
    "gaussian2d:width=32",
    "gaussian2d:width=32,mode=full",
    "bytegrep:pat=xyz",
    "sobel2d:width=32,t=1",
    "topk:k=7",
    "reservoir:n=9,seed=3",
    "scale:a=2,b=0.5",
    "pipe:ops=scale;a=2|sum",
};

class EveryKernel : public ::testing::TestWithParam<const char*> {};

TEST_P(EveryKernel, SingleByteFeedingMatchesWholeBuffer) {
  const auto reg = kernels::Registry::with_builtins();
  const auto bytes = test_payload(32 * 40, 11);  // 40 rows of width 32

  auto whole = reg.create(GetParam());
  auto drip = reg.create(GetParam());
  ASSERT_TRUE(whole.is_ok());
  ASSERT_TRUE(drip.is_ok());
  whole.value()->reset();
  whole.value()->consume(bytes);

  drip.value()->reset();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    drip.value()->consume(std::span(bytes.data() + i, 1));
  }
  EXPECT_EQ(drip.value()->finalize(), whole.value()->finalize());
  EXPECT_EQ(drip.value()->consumed(), bytes.size());
}

TEST_P(EveryKernel, EmptyChunksAreNoops) {
  const auto reg = kernels::Registry::with_builtins();
  const auto bytes = test_payload(32 * 10, 13);

  auto a = reg.create(GetParam());
  auto b = reg.create(GetParam());
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  a.value()->reset();
  a.value()->consume(bytes);

  b.value()->reset();
  b.value()->consume({});
  b.value()->consume(std::span(bytes.data(), 100));
  b.value()->consume({});
  b.value()->consume(std::span(bytes.data() + 100, bytes.size() - 100));
  b.value()->consume({});
  EXPECT_EQ(a.value()->finalize(), b.value()->finalize());
}

TEST_P(EveryKernel, CheckpointPingPongPreservesState) {
  // Migrate the kernel between "nodes" after every 97-byte slice: each hop
  // encodes + decodes the checkpoint into a brand-new instance.
  const auto reg = kernels::Registry::with_builtins();
  const auto bytes = test_payload(32 * 20, 17);

  auto ref = reg.create(GetParam());
  ASSERT_TRUE(ref.is_ok());
  ref.value()->reset();
  ref.value()->consume(bytes);

  auto current = reg.create(GetParam());
  ASSERT_TRUE(current.is_ok());
  current.value()->reset();
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t n = std::min<std::size_t>(97, bytes.size() - pos);
    current.value()->consume(std::span(bytes.data() + pos, n));
    pos += n;

    auto decoded = Checkpoint::decode(current.value()->checkpoint().encode());
    ASSERT_TRUE(decoded.is_ok()) << "at " << pos;
    auto next = reg.create(GetParam());
    ASSERT_TRUE(next.is_ok());
    ASSERT_TRUE(next.value()->restore(decoded.value()).is_ok()) << "at " << pos;
    current = std::move(next);
  }
  EXPECT_EQ(current.value()->finalize(), ref.value()->finalize());
  EXPECT_EQ(current.value()->consumed(), bytes.size());
}

/// One <name, type, value> record of a checkpoint.
struct Record {
  std::string name;
  FieldType type = FieldType::kI64;
  std::int64_t i64 = 0;
  double f64 = 0.0;
  std::string str;
  std::vector<std::uint8_t> blob;
};

/// The records of `ck`, read back from its encoding: magic, record count,
/// then name, type tag and value per record, then the checksum.
std::vector<Record> records_of(const Checkpoint& ck) {
  const auto bytes = ck.encode();
  ByteReader r(bytes);
  std::uint32_t magic = 0, count = 0;
  EXPECT_TRUE(r.get_u32(magic) && r.get_u32(count));
  std::vector<Record> out(count);
  for (auto& rec : out) {
    std::uint8_t tag = 0;
    EXPECT_TRUE(r.get_string(rec.name) && r.get_u8(tag));
    rec.type = static_cast<FieldType>(tag);
    const bool ok = rec.type == FieldType::kI64      ? r.get_i64(rec.i64)
                    : rec.type == FieldType::kF64    ? r.get_f64(rec.f64)
                    : rec.type == FieldType::kString ? r.get_string(rec.str)
                                                     : r.get_blob(rec.blob);
    EXPECT_TRUE(ok) << rec.name;
  }
  return out;
}

Checkpoint checkpoint_of(const std::vector<Record>& records) {
  Checkpoint ck;
  for (const auto& rec : records) {
    switch (rec.type) {
      case FieldType::kI64: ck.set_i64(rec.name, rec.i64); break;
      case FieldType::kF64: ck.set_f64(rec.name, rec.f64); break;
      case FieldType::kString: ck.set_string(rec.name, rec.str); break;
      case FieldType::kBlob: ck.set_blob(rec.name, rec.blob); break;
    }
  }
  return ck;
}

struct Mutant {
  std::string what;
  std::vector<Record> records;
};

/// Every checkpoint that differs from `records` in one field: dropped,
/// ±1 (element or byte), 0, −1, INT64_MAX or NaN. A pipeline's stage
/// checkpoints are mutated field by field too.
std::vector<Mutant> mutants_of(const std::vector<Record>& records) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Mutant> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& rec = records[i];
    auto add = [&](const std::string& what, auto&& edit) {
      Mutant m{rec.name + ": " + what, records};
      edit(m.records[i]);
      out.push_back(std::move(m));
    };
    Mutant dropped{rec.name + ": dropped", records};
    dropped.records.erase(dropped.records.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(dropped));
    switch (rec.type) {
      case FieldType::kI64:
        for (std::int64_t v : {rec.i64 + 1, rec.i64 - 1, std::int64_t{0}, std::int64_t{-1}, kMax}) {
          add("i64 " + std::to_string(v), [v](Record& r) { r.i64 = v; });
        }
        break;
      case FieldType::kF64:
        for (double v : {rec.f64 + 1, rec.f64 - 1, 0.0, -1.0, static_cast<double>(kMax), nan}) {
          add("f64 " + std::to_string(v), [v](Record& r) { r.f64 = v; });
        }
        break;
      case FieldType::kString:
        add("+1 byte", [](Record& r) { r.str += 'x'; });
        add("empty", [](Record& r) { r.str.clear(); });
        if (!rec.str.empty()) add("-1 byte", [](Record& r) { r.str.pop_back(); });
        break;
      case FieldType::kBlob: {
        auto word = [](std::vector<std::uint8_t>& b, auto v) { std::memcpy(b.data(), &v, 8); };
        add("+1 byte", [](Record& r) { r.blob.push_back(7); });
        add("+1 element", [](Record& r) {
          const double v = 0.5;
          const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
          r.blob.insert(r.blob.end(), p, p + sizeof v);
        });
        add("empty", [](Record& r) { r.blob.clear(); });
        add("all zero", [](Record& r) { std::fill(r.blob.begin(), r.blob.end(), 0); });
        if (!rec.blob.empty()) add("-1 byte", [](Record& r) { r.blob.pop_back(); });
        if (rec.blob.size() >= 8) {
          add("-1 element", [](Record& r) { r.blob.resize(r.blob.size() - 8); });
          add("word NaN", [&](Record& r) { word(r.blob, nan); });
          add("word INT64_MAX", [&](Record& r) { word(r.blob, kMax); });
          add("word -1", [&](Record& r) { word(r.blob, std::int64_t{-1}); });
        }
        if (auto stage = Checkpoint::decode(rec.blob); stage.is_ok()) {
          for (auto& m : mutants_of(records_of(stage.value()))) {
            add(m.what, [&](Record& r) { r.blob = checkpoint_of(m.records).encode(); });
          }
        }
        break;
      }
    }
  }
  return out;
}

/// The records naming the operation — every kernel's config field, in
/// stage checkpoints too — as one string.
std::string config_of(const Checkpoint& ck) {
  static const std::set<std::string> kConfig = {
      "kernel", "k", "n", "seed", "bins", "lo", "hi", "threshold",
      "a", "b", "width", "mode", "pattern", "stages"};
  std::ostringstream out;
  for (const auto& rec : records_of(ck)) {
    if (rec.type == FieldType::kBlob && rec.name.rfind("stage", 0) == 0) {
      if (auto stage = Checkpoint::decode(rec.blob); stage.is_ok()) {
        out << rec.name << "{" << config_of(stage.value()) << "}";
      }
    } else if (kConfig.count(rec.name) != 0) {
      out << rec.name << "=" << rec.i64 << "/" << std::bit_cast<std::uint64_t>(rec.f64) << "/"
          << rec.str << ";";
    }
  }
  return out.str();
}

TEST_P(EveryKernel, MutatedFieldIsRefusedCleanlyOrResumes) {
  // A checksum-valid checkpoint of a random cut of random input, with one
  // decoded field mutated, is either refused — kInvalidArgument, the kernel
  // untouched — or restored with its configuration kept, and then consumes
  // the rest and finalizes (under the sanitizer tiers: with no report).
  // The unmutated checkpoint resumes to the uninterrupted result bit for bit.
  // sum's lanes field holds exactly eight doubles, so one of 7 or 9 — in a
  // pipeline stage too — is always refused.
  const auto reg = kernels::Registry::with_builtins();
  const auto wrong_lane_count = [](const std::string& what) {
    return what.ends_with("lanes: -1 element") || what.ends_with("lanes: +1 element");
  };
  std::size_t lane_mutants = 0;
  Rng rng(0xF1E1D);
  for (int round = 0; round < 3; ++round) {
    const auto bytes = test_payload(32 * (3 + rng.uniform_index(10)), rng());
    const std::size_t cut = rng.uniform_index(bytes.size() + 1);
    const std::span<const std::uint8_t> head(bytes.data(), cut), rest(bytes.data() + cut,
                                                                       bytes.size() - cut);
    auto ref = reg.create(GetParam()).value();
    ref->reset();
    ref->consume(bytes);
    auto first = reg.create(GetParam()).value();
    first->reset();
    first->consume(head.first(cut / 2));
    first->consume(head.subspan(cut / 2));
    const Checkpoint ck = first->checkpoint();
    const auto fresh = reg.create(GetParam()).value();
    const std::string config = config_of(fresh->checkpoint());

    auto resumed = reg.create(GetParam()).value();
    ASSERT_TRUE(resumed->restore(checkpoint_of(records_of(ck))).is_ok()) << "cut " << cut;
    resumed->consume(rest);
    EXPECT_EQ(resumed->finalize(), ref->finalize()) << "cut " << cut;

    for (const auto& m : mutants_of(records_of(ck))) {
      SCOPED_TRACE("cut " + std::to_string(cut) + ", " + m.what);
      auto decoded = Checkpoint::decode(checkpoint_of(m.records).encode());
      ASSERT_TRUE(decoded.is_ok());
      auto k = reg.create(GetParam()).value();
      k->reset();
      const Bytes consumed = k->consumed();
      const auto result = k->finalize();
      const Status st = k->restore(decoded.value());
      if (wrong_lane_count(m.what)) {
        ++lane_mutants;
        EXPECT_FALSE(st.is_ok());
      }
      if (!st.is_ok()) {
        EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.to_string();
        EXPECT_EQ(k->consumed(), consumed);
        EXPECT_EQ(k->finalize(), result);
        continue;
      }
      EXPECT_EQ(config_of(k->checkpoint()), config);
      k->consume(rest);
      (void)k->finalize();
    }
  }
  EXPECT_EQ(lane_mutants > 0, std::string_view(GetParam()).ends_with("sum"));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, EveryKernel, ::testing::ValuesIn(kOps),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------- cluster storm

TEST(Stress, MixedOperationThreadStormIsReferenceExact) {
  core::ClusterConfig cfg;
  cfg.scheme = core::SchemeKind::kDosas;
  cfg.storage_nodes = 2;
  cfg.strip_size = 16_KiB;
  cfg.server_chunk_size = 32_KiB;
  cfg.result_cache_entries = 4;  // exercise the cache concurrently too
  core::Cluster cluster(cfg);

  constexpr std::size_t kFiles = 4;
  constexpr std::size_t kDoubles = 64 * 256;  // 128 KiB each
  for (std::size_t f = 0; f < kFiles; ++f) {
    // One node per file: striped-sum merging would change the float
    // summation order and break the byte-exact comparison below.
    pfs::StripingParams striping;
    striping.strip_size = cfg.strip_size;
    striping.server_count = 1;
    striping.base_server = static_cast<pfs::ServerId>(f % 2);
    auto meta = cluster.pfs_client().create("/s" + std::to_string(f), striping);
    ASSERT_TRUE(meta.is_ok());
    std::vector<double> values(kDoubles);
    for (std::size_t i = 0; i < kDoubles; ++i) {
      values[i] = static_cast<double>((i * (f + 1)) % 100) / 100.0;
    }
    auto written = cluster.pfs_client().write(
        meta.value(), 0,
        std::span(reinterpret_cast<const std::uint8_t*>(values.data()), kDoubles * 8));
    ASSERT_TRUE(written.is_ok());
  }

  const char* storm_ops[] = {"sum", "minmax", "histogram:bins=8,lo=0,hi=1",
                             "thresholdcount:t=0.5", "pipe:ops=scale;a=2|sum"};
  constexpr int kThreads = 10;
  constexpr int kRequestsPerThread = 8;

  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) * 7919 + 1);
      const auto reg = kernels::Registry::with_builtins();
      for (int r = 0; r < kRequestsPerThread; ++r) {
        const std::size_t f = rng.uniform_index(kFiles);
        const char* op = storm_ops[rng.uniform_index(std::size(storm_ops))];
        auto meta = cluster.pfs_client().open("/s" + std::to_string(f));
        if (!meta.is_ok()) {
          failures[t] = meta.status().to_string();
          return;
        }
        auto out = cluster.asc().read_ex(meta.value(), 0, meta.value().size, op);
        if (!out.is_ok()) {
          failures[t] = out.status().to_string();
          return;
        }
        // Reference: sequential local pass over the same bytes.
        auto raw = cluster.pfs_client().read_all(meta.value());
        auto ref = reg.create(op);
        if (!raw.is_ok() || !ref.is_ok()) {
          failures[t] = "reference setup failed";
          return;
        }
        ref.value()->reset();
        ref.value()->consume(raw.value());
        if (out.value() != ref.value()->finalize()) {
          failures[t] = std::string("mismatch for ") + op;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
  }
}

}  // namespace
}  // namespace dosas
