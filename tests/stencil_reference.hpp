// stencil_reference.hpp — pixel-at-a-time references for the 3×3 stencil
// kernels (gaussian2d, sobel2d), shared by the tests that check them.
//
// Each output pixel is computed in the kernel's own operation order:
// gaussian2d's 9-term sum starts from its first product (so an all -0.0
// neighbourhood stays -0.0) and is then divided by 16; sobel2d's
// gradients are the kernel's per-pixel expressions. A kernel output can
// therefore be compared with these bit for bit (same_bits), NaN payloads
// aside.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

namespace dosas::kernels::reference {

inline constexpr double kGaussianWeights[3][3] = {{1, 2, 1}, {2, 4, 2}, {1, 2, 1}};
inline constexpr double kGaussianDivisor = 16.0;

/// gaussian2d's value for column x of `center`, with edge-clamped
/// neighbour columns xl and xr.
inline double gaussian_pixel(const double* above, const double* center, const double* below,
                             std::size_t xl, std::size_t x, std::size_t xr) {
  const auto& k = kGaussianWeights;
  return (k[0][0] * above[xl] + k[0][1] * above[x] + k[0][2] * above[xr] +
          k[1][0] * center[xl] + k[1][1] * center[x] + k[1][2] * center[xr] +
          k[2][0] * below[xl] + k[2][1] * below[x] + k[2][2] * below[xr]) /
         kGaussianDivisor;
}

/// sobel2d's gradient magnitude for column x of `center`.
inline double sobel_magnitude(const double* above, const double* center, const double* below,
                              std::size_t xl, std::size_t x, std::size_t xr) {
  const double gx = -above[xl] + above[xr] - 2.0 * center[xl] + 2.0 * center[xr] -
                    below[xl] + below[xr];
  const double gy = -above[xl] - 2.0 * above[x] - above[xr] + below[xl] + 2.0 * below[x] +
                    below[xr];
  return std::sqrt(gx * gx + gy * gy);
}

/// `pixel` over the interior rows of a rows×width grid: (rows-2)×width
/// values, row-major, columns edge-clamped.
template <class Pixel>
std::vector<double> filter_interior(const std::vector<double>& grid, std::size_t width,
                                    Pixel pixel) {
  assert(width >= 1);
  assert(grid.size() % width == 0);
  const std::size_t rows = grid.size() / width;
  std::vector<double> out;
  if (rows < 3) return out;
  out.reserve((rows - 2) * width);
  for (std::size_t y = 1; y + 1 < rows; ++y) {
    const double* above = grid.data() + (y - 1) * width;
    const double* center = grid.data() + y * width;
    const double* below = grid.data() + (y + 1) * width;
    for (std::size_t x = 0; x < width; ++x) {
      const std::size_t xl = x == 0 ? 0 : x - 1;
      const std::size_t xr = x + 1 == width ? x : x + 1;
      out.push_back(pixel(above, center, below, xl, x, xr));
    }
  }
  return out;
}

inline std::vector<double> gaussian_filter(const std::vector<double>& grid, std::size_t width) {
  return filter_interior(grid, width, gaussian_pixel);
}

inline std::vector<double> sobel_magnitudes(const std::vector<double>& grid, std::size_t width) {
  return filter_interior(grid, width, sobel_magnitude);
}

/// Bit-for-bit equality of two doubles, except that any NaN equals any NaN
/// (an add of two NaNs may return either operand's payload, and the
/// compiler may order the operands either way).
inline bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace dosas::kernels::reference
