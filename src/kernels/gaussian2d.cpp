#include "kernels/gaussian2d.hpp"

#include <cassert>
#include <cstring>

namespace dosas::kernels {

namespace {
// 3x3 Gaussian weights; the explicit divide (not a multiply by 1/16) keeps
// the per-item operation mix identical to the paper's Table III.
constexpr double kW[3][3] = {{1, 2, 1}, {2, 4, 2}, {1, 2, 1}};
constexpr double kDivisor = 16.0;

// Adjacent output columns, computed together (GCC/Clang vector extension).
using Lanes = double __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(double);

// One filtered value from its 3×3 neighbourhood (l/m/r = left/mid/right
// column). Scalar columns and vector lanes both run this one expression.
template <class T>
T stencil(T al, T am, T ar, T cl, T cm, T cr, T bl, T bm, T br) {
  return (kW[0][0] * al + kW[0][1] * am + kW[0][2] * ar + kW[1][0] * cl + kW[1][1] * cm +
          kW[1][2] * cr + kW[2][0] * bl + kW[2][1] * bm + kW[2][2] * br) /
         kDivisor;
}
}  // namespace

Gaussian2dKernel::Gaussian2dKernel(std::size_t width, Mode mode) : mode_(mode), window_(width) {
  assert(width >= 1);
  reset();
}

Result<std::unique_ptr<Kernel>> Gaussian2dKernel::from_spec(const OperationSpec& spec) {
  const auto width = spec.get_int("width", 1024);
  if (width < 1 || width > (1 << 26)) {
    return error(ErrorCode::kInvalidArgument, "gaussian2d: width out of range");
  }
  const std::string mode_s = spec.get("mode", "digest");
  Mode mode;
  if (mode_s == "digest") {
    mode = Mode::kDigest;
  } else if (mode_s == "full") {
    mode = Mode::kFull;
  } else {
    return error(ErrorCode::kInvalidArgument, "gaussian2d: unknown mode '" + mode_s + "'");
  }
  return std::unique_ptr<Kernel>(
      std::make_unique<Gaussian2dKernel>(static_cast<std::size_t>(width), mode));
}

void Gaussian2dKernel::reset() {
  window_.reset();
  out_rows_ = 0;
  out_count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  full_out_.clear();
}

void Gaussian2dKernel::consume(std::span<const std::uint8_t> chunk) {
  window_.consume(chunk, [this](auto... rows) { filter_center(rows...); });
}

void Gaussian2dKernel::filter_center(const double* a, const double* c, const double* b) {
  // Full mode appends the row to full_out_; digest mode overwrites one row.
  const std::size_t w = width(), at = mode_ == Mode::kFull ? full_out_.size() : 0;
  full_out_.resize(at + w);
  double* out = full_out_.data() + at;

  // Edge columns clamp to the row; the interior runs kLanes columns at a time.
  const auto load = [](const double* p) { Lanes v; std::memcpy(&v, p, sizeof v); return v; };
  const auto column = [&](std::size_t x) {
    const std::size_t l = x == 0 ? 0 : x - 1, r = x + 1 == w ? x : x + 1;
    return stencil(a[l], a[x], a[r], c[l], c[x], c[r], b[l], b[x], b[r]);
  };
  // Values are folded into sum/min/max in column order, with the same
  // compares and adds as one pixel at a time. Which NaN an add of two NaNs
  // returns is the compiler's choice; a recorded-digest test pins it.
  const double first = column(0);
  double sum = sum_, lo = out_count_ == 0 ? first : min_, hi = out_count_ == 0 ? first : max_;
  const auto emit = [&](std::size_t x, double v) {
    sum += v;
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
    out[x] = v;
  };
  emit(0, first);
  std::size_t x = 1;
  for (; x + kLanes < w; x += kLanes) {
    const Lanes v = stencil(load(a + x - 1), load(a + x), load(a + x + 1), load(c + x - 1),
                            load(c + x), load(c + x + 1), load(b + x - 1), load(b + x),
                            load(b + x + 1));
    for (std::size_t i = 0; i < kLanes; ++i) emit(x + i, v[i]);
  }
  for (; x < w; ++x) emit(x, column(x));
  sum_ = sum;
  min_ = lo;
  max_ = hi;
  out_count_ += w;
  ++out_rows_;
}

std::vector<std::uint8_t> Gaussian2dKernel::drain_stream() {
  if (mode_ != Mode::kFull || full_out_.empty()) return {};
  std::vector<std::uint8_t> out(full_out_.size() * sizeof(double));
  std::memcpy(out.data(), full_out_.data(), out.size());
  full_out_.clear();
  return out;
}

std::vector<std::uint8_t> Gaussian2dKernel::finalize() const {
  ByteWriter w;
  if (mode_ == Mode::kDigest) {
    w.put_u64(out_rows_);
    w.put_u64(out_count_);
    w.put_f64(sum_);
    w.put_f64(min_);
    w.put_f64(max_);
  } else {
    w.put_u64(out_rows_);
    w.put_u64(static_cast<std::uint64_t>(width()));
    for (double v : full_out_) w.put_f64(v);
  }
  return w.take();
}

Bytes Gaussian2dKernel::result_size(Bytes input) const {
  if (mode_ == Mode::kDigest) {
    return 2 * sizeof(std::uint64_t) + 3 * sizeof(double);
  }
  // Full mode: (rows - 2) output rows for `rows` input rows.
  const Bytes row_bytes = width() * sizeof(double);
  const Bytes rows = input / row_bytes;
  const Bytes out_rows = rows >= 2 ? rows - 2 : 0;
  return 2 * sizeof(std::uint64_t) + out_rows * row_bytes;
}

void Gaussian2dKernel::fields(Fields& f) {
  window_.fields(f);
  f.config("mode", mode_ == Mode::kDigest ? "digest" : "full");
  f.counter("out_rows", out_rows_);
  f.counter("out_count", out_count_);
  f.counter("sum", sum_);
  f.counter("min", min_);
  f.counter("max", max_);
  if (mode_ == Mode::kFull) f.array("full_out", full_out_, {.step = width()});  // whole rows
}

Result<GaussianDigest> GaussianDigest::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  GaussianDigest out;
  if (!r.get_u64(out.rows) || !r.get_u64(out.count) || !r.get_f64(out.sum) ||
      !r.get_f64(out.min) || !r.get_f64(out.max) || !r.exhausted()) {
    return error(ErrorCode::kInvalidArgument, "gaussian2d: bad digest payload");
  }
  return out;
}

}  // namespace dosas::kernels
