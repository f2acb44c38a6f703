// Oracle tests for the 3×3 stencil kernels: gaussian2d and sobel2d must
// match, bit for bit, the pixel-at-a-time loops they replaced. The
// reference kernels below are those loops as they stood before the shared
// row window (kernels/row_window.hpp) and gaussian2d's vector row pass:
// every row copied out of the chunk twice, one pixel per iteration,
// accumulators updated in place. They also write the checkpoint encoding
// the kernels must keep byte for byte.
//
// Every chunk is handed over in its own heap buffer that is freed as soon
// as consume() returns, so a window that keeps a pointer into a released
// chunk is caught by ASan (heap-use-after-free) and usually by value too.
//
// Results are compared bit for bit, except that any NaN equals any NaN.
// When both operands of an add are NaN, x86 returns the first one, and the
// compiler may put either operand first: the reference loop below, built
// at -O3 in this file, gives some NaN sums the other sign bit than the same
// loop built into the kernel library. Signed zeros and infinities are
// compared exactly. Checkpoint encodings are compared byte for byte on
// NaN-free input. GaussianNanSignBits.MatchRecordedDigests pins the NaN
// sign bits against digests recorded from the per-pixel kernel library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "kernels/gaussian2d.hpp"
#include "kernels/sobel2d.hpp"
#include "scale/traffic.hpp"

namespace dosas::kernels {
namespace {

// ---------------------------------------------------------------- reference loops

constexpr double kW[3][3] = {{1, 2, 1}, {2, 4, 2}, {1, 2, 1}};
constexpr double kDivisor = 16.0;

std::vector<std::uint8_t> rows_to_blob(const std::vector<double>& row) {
  std::vector<std::uint8_t> b(row.size() * sizeof(double));
  if (!row.empty()) std::memcpy(b.data(), row.data(), b.size());
  return b;
}

/// The row loop both kernels carried: partial-row bytes and two previous
/// rows, each row copied into a fresh vector and again into prev1.
class RefStencil {
 public:
  explicit RefStencil(std::size_t width) : width_(width) {}
  virtual ~RefStencil() = default;

  std::size_t width() const { return width_; }
  virtual std::vector<std::uint8_t> drain_stream() { return {}; }

  void consume(std::span<const std::uint8_t> chunk) {
    consumed_ += chunk.size();
    const std::size_t row_bytes = width_ * sizeof(double);

    std::size_t pos = 0;
    if (!pending_.empty()) {
      const std::size_t need = row_bytes - pending_.size();
      const std::size_t take = std::min(need, chunk.size());
      pending_.insert(pending_.end(), chunk.begin(),
                      chunk.begin() + static_cast<std::ptrdiff_t>(take));
      pos = take;
      if (pending_.size() == row_bytes) {
        std::vector<double> row(width_);
        std::memcpy(row.data(), pending_.data(), row_bytes);
        pending_.clear();
        push_row(row.data());
      } else {
        return;
      }
    }

    std::vector<double> row(width_);
    while (chunk.size() - pos >= row_bytes) {
      std::memcpy(row.data(), chunk.data() + pos, row_bytes);
      push_row(row.data());
      pos += row_bytes;
    }
    if (pos < chunk.size()) {
      pending_.assign(chunk.begin() + static_cast<std::ptrdiff_t>(pos), chunk.end());
    }
  }

 protected:
  virtual void center(const double* above, const double* middle, const double* below) = 0;

  void save_rows(Checkpoint& ck) const {
    ck.set_i64("consumed", static_cast<std::int64_t>(consumed_));
    ck.set_i64("rows_seen", static_cast<std::int64_t>(rows_seen_));
    ck.set_blob("pending", pending_);
    ck.set_blob("prev1", rows_to_blob(prev1_));
    ck.set_blob("prev2", rows_to_blob(prev2_));
  }

  std::size_t width_;

 private:
  void push_row(const double* row) {
    ++rows_seen_;
    if (rows_seen_ >= 3) center(prev2_.data(), prev1_.data(), row);
    prev2_.swap(prev1_);
    prev1_.assign(row, row + width_);
  }

  Bytes consumed_ = 0;
  std::vector<std::uint8_t> pending_;
  std::vector<double> prev1_;
  std::vector<double> prev2_;
  std::size_t rows_seen_ = 0;
};

class RefGaussian final : public RefStencil {
 public:
  RefGaussian(std::size_t width, bool full) : RefStencil(width), full_(full) {}

  std::vector<std::uint8_t> finalize() const {
    ByteWriter w;
    w.put_u64(out_rows_);
    if (!full_) {
      w.put_u64(out_count_);
      w.put_f64(sum_);
      w.put_f64(min_);
      w.put_f64(max_);
    } else {
      w.put_u64(static_cast<std::uint64_t>(width_));
      for (double v : full_out_) w.put_f64(v);
    }
    return w.take();
  }

  std::vector<std::uint8_t> drain_stream() override {
    auto out = rows_to_blob(full_out_);
    full_out_.clear();
    return out;
  }

  Checkpoint checkpoint() const {
    Checkpoint ck;
    ck.set_string("kernel", "gaussian2d");
    ck.set_i64("width", static_cast<std::int64_t>(width_));
    ck.set_string("mode", full_ ? "full" : "digest");
    ck.set_i64("out_rows", static_cast<std::int64_t>(out_rows_));
    ck.set_i64("out_count", static_cast<std::int64_t>(out_count_));
    ck.set_f64("sum", sum_);
    ck.set_f64("min", min_);
    ck.set_f64("max", max_);
    save_rows(ck);
    if (full_) ck.set_blob("full_out", rows_to_blob(full_out_));
    return ck;
  }

 private:
  void center(const double* above, const double* center, const double* below) override {
    ++out_rows_;
    const std::size_t w = width_;
    for (std::size_t x = 0; x < w; ++x) {
      const std::size_t xl = x == 0 ? 0 : x - 1;
      const std::size_t xr = x + 1 == w ? x : x + 1;
      const double v = (kW[0][0] * above[xl] + kW[0][1] * above[x] + kW[0][2] * above[xr] +
                        kW[1][0] * center[xl] + kW[1][1] * center[x] + kW[1][2] * center[xr] +
                        kW[2][0] * below[xl] + kW[2][1] * below[x] + kW[2][2] * below[xr]) /
                       kDivisor;
      if (out_count_ == 0) {
        min_ = max_ = v;
      } else {
        if (v < min_) min_ = v;
        if (v > max_) max_ = v;
      }
      sum_ += v;
      ++out_count_;
      if (full_) full_out_.push_back(v);
    }
  }

  bool full_;
  std::uint64_t out_rows_ = 0;
  std::uint64_t out_count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<double> full_out_;
};

class RefSobel final : public RefStencil {
 public:
  RefSobel(std::size_t width, double threshold) : RefStencil(width), threshold_(threshold) {}

  std::vector<std::uint8_t> finalize() const {
    ByteWriter w;
    w.put_u64(out_rows_);
    w.put_u64(out_count_);
    w.put_u64(edges_);
    w.put_f64(max_mag_);
    w.put_f64(out_count_ > 0 ? sum_mag_ / static_cast<double>(out_count_) : 0.0);
    return w.take();
  }

  Checkpoint checkpoint() const {
    Checkpoint ck;
    ck.set_string("kernel", "sobel2d");
    ck.set_i64("width", static_cast<std::int64_t>(width_));
    ck.set_f64("threshold", threshold_);
    ck.set_i64("out_rows", static_cast<std::int64_t>(out_rows_));
    ck.set_i64("out_count", static_cast<std::int64_t>(out_count_));
    ck.set_i64("edges", static_cast<std::int64_t>(edges_));
    ck.set_f64("max_mag", max_mag_);
    ck.set_f64("sum_mag", sum_mag_);
    save_rows(ck);
    return ck;
  }

 private:
  void center(const double* above, const double* center, const double* below) override {
    ++out_rows_;
    const std::size_t w = width_;
    for (std::size_t x = 0; x < w; ++x) {
      const std::size_t xl = x == 0 ? 0 : x - 1;
      const std::size_t xr = x + 1 == w ? x : x + 1;
      const double gx = -above[xl] + above[xr] - 2.0 * center[xl] + 2.0 * center[xr] -
                        below[xl] + below[xr];
      const double gy = -above[xl] - 2.0 * above[x] - above[xr] + below[xl] +
                        2.0 * below[x] + below[xr];
      const double mag = std::sqrt(gx * gx + gy * gy);
      if (mag > threshold_) ++edges_;
      if (mag > max_mag_) max_mag_ = mag;
      sum_mag_ += mag;
      ++out_count_;
    }
  }

  double threshold_;
  std::uint64_t out_rows_ = 0;
  std::uint64_t out_count_ = 0;
  std::uint64_t edges_ = 0;
  double max_mag_ = 0.0;
  double sum_mag_ = 0.0;
};

// ---------------------------------------------------------------- inputs

enum class Field { kNoise, kSpecial, kSignedZeros };
enum class Cut { kWhole, kRagged, kOddBase };

/// rows × width doubles: uniform noise; noise with NaN, ±inf and ±0 mixed
/// into one value in six; or only +0 and -0.
std::vector<std::uint8_t> field(std::size_t width, std::size_t rows, Field kind,
                                std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, 0.0, -0.0};
  Rng rng(seed);
  std::vector<double> v(width * rows);
  for (auto& x : v) {
    x = rng.uniform(-100.0, 100.0);
    if (kind == Field::kSpecial && rng.uniform_index(6) == 0) x = specials[rng.uniform_index(5)];
    if (kind == Field::kSignedZeros) x = rng.uniform_index(2) == 0 ? 0.0 : -0.0;
  }
  std::vector<std::uint8_t> bytes(v.size() * sizeof(double));
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

std::size_t rows_for(std::size_t width) { return width >= 1024 ? 7 : width >= 128 ? 20 : 40; }

/// Feed `bytes` in pieces: one piece, ragged pieces of up to three rows, or
/// one piece whose base sits at an odd byte offset (every row misaligned).
/// Each piece is copied into its own heap buffer, freed right after
/// consume(); full-mode output drained after each piece lands in `stream`.
template <class K>
void feed(K& k, std::span<const std::uint8_t> bytes, Cut how, std::uint64_t seed,
          std::vector<std::uint8_t>* stream = nullptr) {
  Rng rng(seed);
  const std::size_t row_bytes = k.width() * sizeof(double);
  for (std::size_t pos = 0; pos < bytes.size();) {
    std::size_t n = bytes.size() - pos;
    if (how == Cut::kRagged) n = std::min<std::size_t>(n, 1 + rng.uniform_index(3 * row_bytes));
    const std::size_t base = how == Cut::kOddBase ? 1 : 0;
    auto buf = std::make_unique<std::uint8_t[]>(base + n);
    std::memcpy(buf.get() + base, bytes.data() + pos, n);
    k.consume(std::span<const std::uint8_t>(buf.get() + base, n));
    buf.reset();
    if (stream != nullptr) {
      const auto out = k.drain_stream();
      stream->insert(stream->end(), out.begin(), out.end());
    }
    pos += n;
  }
}

/// Every 8-byte word that holds a NaN becomes the one quiet NaN. The
/// compared outputs are sequences of u64 counts and f64 values, and no
/// count comes near a NaN's bit pattern.
std::vector<std::uint8_t> nan_blind(std::vector<std::uint8_t> bytes) {
  for (std::size_t i = 0; i + sizeof(double) <= bytes.size(); i += sizeof(double)) {
    double v;
    std::memcpy(&v, bytes.data() + i, sizeof v);
    if (std::isnan(v)) {
      v = std::numeric_limits<double>::quiet_NaN();
      std::memcpy(bytes.data() + i, &v, sizeof v);
    }
  }
  return bytes;
}

const char* name_of(Field f) {
  return f == Field::kNoise ? "noise" : f == Field::kSpecial ? "nan/inf/0" : "signed zeros";
}
const char* name_of(Cut c) {
  return c == Cut::kWhole ? "one chunk" : c == Cut::kRagged ? "ragged" : "odd base";
}

constexpr Field kFields[] = {Field::kNoise, Field::kSpecial, Field::kSignedZeros};
constexpr Cut kCuts[] = {Cut::kWhole, Cut::kRagged, Cut::kOddBase};

// ---------------------------------------------------------------- tests

class StencilOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StencilOracle, GaussianMatchesPixelLoop) {
  const std::size_t w = GetParam();
  for (const bool full : {false, true}) {
    for (const Field f : kFields) {
      const auto bytes = field(w, rows_for(w), f, 1000 + w);
      RefGaussian ref(w, full);
      ref.consume(bytes);
      for (const Cut c : kCuts) {
        SCOPED_TRACE(std::string(full ? "full, " : "digest, ") + name_of(f) + ", " + name_of(c));
        Gaussian2dKernel k(w, full ? Gaussian2dKernel::Mode::kFull : Gaussian2dKernel::Mode::kDigest);
        feed(k, bytes, c, 7 + w);
        EXPECT_EQ(nan_blind(k.finalize()), nan_blind(ref.finalize()));
        if (f != Field::kSpecial) {
          EXPECT_EQ(k.checkpoint().encode(), ref.checkpoint().encode());
        }
        if (!full) continue;
        // Drained after every chunk, the stream carries the same values.
        RefGaussian ref_drained(w, true);
        ref_drained.consume(bytes);
        Gaussian2dKernel drained(w, Gaussian2dKernel::Mode::kFull);
        std::vector<std::uint8_t> stream;
        feed(drained, bytes, c, 7 + w, &stream);
        EXPECT_EQ(nan_blind(stream), nan_blind(ref_drained.drain_stream()));
        EXPECT_EQ(drained.finalize(), ref_drained.finalize());
      }
    }
  }
}

TEST_P(StencilOracle, SobelMatchesPixelLoop) {
  const std::size_t w = GetParam();
  for (const Field f : kFields) {
    const auto bytes = field(w, rows_for(w), f, 2000 + w);
    RefSobel ref(w, 40.0);
    ref.consume(bytes);
    for (const Cut c : kCuts) {
      SCOPED_TRACE(std::string(name_of(f)) + ", " + name_of(c));
      Sobel2dKernel k(w, 40.0);
      feed(k, bytes, c, 11 + w);
      EXPECT_EQ(nan_blind(k.finalize()), nan_blind(ref.finalize()));
      if (f != Field::kSpecial) {
        EXPECT_EQ(k.checkpoint().encode(), ref.checkpoint().encode());
      }
    }
  }
}

/// Cut at every row boundary and once mid-item: checkpoint there, restore
/// into a fresh kernel, finish, and compare with one uninterrupted pass of
/// the reference. On NaN-free input the checkpoint must also encode as the
/// reference's does.
template <class K, class Ref, class Make, class MakeRef>
void resume_everywhere(std::size_t w, Make make, MakeRef make_ref) {
  const std::size_t rows = rows_for(w), row_bytes = w * sizeof(double);
  std::vector<std::size_t> cuts;
  for (std::size_t r = 0; r <= rows; ++r) cuts.push_back(r * row_bytes);
  cuts.push_back(rows / 2 * row_bytes + row_bytes / 2 + 3);

  for (const Field f : {Field::kNoise, Field::kSpecial}) {
    const auto bytes = field(w, rows, f, 3000 + w);
    Ref whole = make_ref();
    whole.consume(bytes);
    for (const std::size_t cut : cuts) {
      SCOPED_TRACE(std::string(name_of(f)) + ", cut at byte " + std::to_string(cut));
      const auto head = std::span(bytes).first(cut);
      K first = make();
      feed(first, head, Cut::kRagged, cut);
      const auto encoded = first.checkpoint().encode();
      if (f == Field::kNoise) {
        Ref ref_head = make_ref();
        ref_head.consume(head);
        EXPECT_EQ(encoded, ref_head.checkpoint().encode());
      }

      auto decoded = Checkpoint::decode(encoded);
      ASSERT_TRUE(decoded.is_ok());
      K second = make();
      ASSERT_TRUE(second.restore(decoded.value()).is_ok());
      feed(second, std::span(bytes).subspan(cut), Cut::kRagged, cut + 1);
      EXPECT_EQ(nan_blind(second.finalize()), nan_blind(whole.finalize()));
    }
  }
}

TEST_P(StencilOracle, GaussianResumesAtEveryRow) {
  const std::size_t w = GetParam();
  for (const bool full : {false, true}) {
    SCOPED_TRACE(full ? "full" : "digest");
    const auto mode = full ? Gaussian2dKernel::Mode::kFull : Gaussian2dKernel::Mode::kDigest;
    resume_everywhere<Gaussian2dKernel, RefGaussian>(
        w, [&] { return Gaussian2dKernel(w, mode); }, [&] { return RefGaussian(w, full); });
  }
}

TEST_P(StencilOracle, SobelResumesAtEveryRow) {
  const std::size_t w = GetParam();
  resume_everywhere<Sobel2dKernel, RefSobel>(
      w, [&] { return Sobel2dKernel(w, 40.0); }, [&] { return RefSobel(w, 40.0); });
}

INSTANTIATE_TEST_SUITE_P(Widths, StencilOracle, ::testing::Values(1u, 2u, 3u, 5u, 128u, 1024u),
                         [](const auto& info) { return "width" + std::to_string(info.param); });

/// FNV-1a of the NaN/±inf/±0 fields' outputs: digest-mode finalize(),
/// full-mode finalize() and the full-mode stream drained after every chunk.
/// Recorded from the per-pixel kernel library (commit a10aef7) built by
/// GCC 12 on x86-64 at -O2 (RelWithDebInfo); its -O3 (Release) build gives
/// the same bytes. That library's NaN sign bits depend on the build type
/// (its -O0, -O1 and sanitizer builds each differ in some of these), so the
/// digests hold only in optimized GCC builds on x86-64. This kernel matched
/// them at -O1, -O2, -O3 and under ASan, UBSan and TSan.
TEST(GaussianNanSignBits, MatchRecordedDigests) {
#if !defined(__x86_64__) || !defined(__OPTIMIZE__) || !defined(__GNUC__) || defined(__clang__)
  GTEST_SKIP() << "digests recorded for optimized GCC builds on x86-64";
#endif
  struct Recorded {
    std::size_t width;
    std::uint64_t digest, full, stream;
  };
  const Recorded recorded[] = {
      {3, 0xd2aad19ee164e36eULL, 0xa52c9d239b37f591ULL, 0x5d24eb20d30b0bd0ULL},
      {5, 0x1a42819c906778faULL, 0x68ce22541df10b37ULL, 0x10608b1f501e0274ULL},
      {128, 0xefa5d25affe2a957ULL, 0xcce59ee2da16f689ULL, 0x9d7965ae26ecd4b3ULL},
  };
  const auto fnv = [](const std::vector<std::uint8_t>& b) { return scale::fnv1a(b.data(), b.size()); };
  for (const Recorded& r : recorded) {
    const auto bytes = field(r.width, rows_for(r.width), Field::kSpecial, 1000 + r.width);
    for (const Cut c : kCuts) {
      SCOPED_TRACE("width " + std::to_string(r.width) + ", " + name_of(c));
      Gaussian2dKernel digest(r.width, Gaussian2dKernel::Mode::kDigest);
      Gaussian2dKernel full(r.width, Gaussian2dKernel::Mode::kFull);
      Gaussian2dKernel drained(r.width, Gaussian2dKernel::Mode::kFull);
      std::vector<std::uint8_t> stream;
      feed(digest, bytes, c, 7 + r.width);
      feed(full, bytes, c, 7 + r.width);
      feed(drained, bytes, c, 7 + r.width, &stream);
      EXPECT_EQ(fnv(digest.finalize()), r.digest);
      EXPECT_EQ(fnv(full.finalize()), r.full);
      EXPECT_EQ(fnv(stream), r.stream);
    }
  }
}

}  // namespace
}  // namespace dosas::kernels
