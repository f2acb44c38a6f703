#include "kernels/sobel2d.hpp"

#include <bit>
#include <cassert>
#include <cmath>

namespace dosas::kernels {

Sobel2dKernel::Sobel2dKernel(std::size_t width, double threshold)
    : threshold_(threshold), window_(width) {
  assert(width >= 1);
  reset();
}

Result<std::unique_ptr<Kernel>> Sobel2dKernel::from_spec(const OperationSpec& spec) {
  const auto width = spec.get_int("width", 1024);
  if (width < 1 || width > (1 << 26)) {
    return error(ErrorCode::kInvalidArgument, "sobel2d: width out of range");
  }
  const double threshold = spec.get_double("t", 1.0);
  return std::unique_ptr<Kernel>(
      std::make_unique<Sobel2dKernel>(static_cast<std::size_t>(width), threshold));
}

void Sobel2dKernel::reset() {
  window_.reset();
  out_rows_ = 0;
  out_count_ = 0;
  edges_ = 0;
  max_mag_ = 0.0;
  sum_mag_ = 0.0;
}

void Sobel2dKernel::consume(std::span<const std::uint8_t> chunk) {
  window_.consume(chunk, [this](auto... rows) { process_center(rows...); });
}

void Sobel2dKernel::process_center(const double* above, const double* center,
                                   const double* below) {
  ++out_rows_;
  const std::size_t w = width();
  for (std::size_t x = 0; x < w; ++x) {
    const std::size_t xl = x == 0 ? 0 : x - 1;
    const std::size_t xr = x + 1 == w ? x : x + 1;
    // Sobel gradients:  Gx = [-1 0 1; -2 0 2; -1 0 1],  Gy = Gx^T.
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

std::vector<std::uint8_t> Sobel2dKernel::finalize() const {
  ByteWriter w;
  w.put_u64(out_rows_);
  w.put_u64(out_count_);
  w.put_u64(edges_);
  w.put_f64(max_mag_);
  w.put_f64(out_count_ > 0 ? sum_mag_ / static_cast<double>(out_count_) : 0.0);
  return w.take();
}

Bytes Sobel2dKernel::result_size(Bytes input) const {
  (void)input;
  return 3 * sizeof(std::uint64_t) + 2 * sizeof(double);
}

Result<SobelDigest> SobelDigest::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  SobelDigest out;
  if (!r.get_u64(out.rows) || !r.get_u64(out.count) || !r.get_u64(out.edges) ||
      !r.get_f64(out.max_magnitude) || !r.get_f64(out.mean_magnitude) || !r.exhausted()) {
    return error(ErrorCode::kInvalidArgument, "sobel2d: bad digest payload");
  }
  return out;
}

}  // namespace dosas::kernels
