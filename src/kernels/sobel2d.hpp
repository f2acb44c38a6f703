// sobel2d.hpp — Sobel edge-detection kernel (extension).
//
// The second stencil kernel, from the active-disk literature's
// edge-detection workload (Riedel et al.): 3×3 Sobel gradients over a
// row-major grid of doubles, reporting an edge digest (count of pixels
// whose gradient magnitude exceeds a threshold, plus magnitude statistics).
// Structurally like the Gaussian filter — row-carrying, checkpointable,
// not stripe-mergeable — but with a different operation mix (12 mul,
// 10 add/sub, 1 sqrt, 1 cmp per item), giving the scheduler a third
// cost point between SUM and Gaussian.
//
// Rows come from a RowWindow (row_window.hpp), read in place; no pointer
// into a chunk is kept past consume(). Gradients are computed one pixel at
// a time in column order. restore() also refuses another threshold.
#pragma once

#include "kernels/kernel.hpp"
#include "kernels/operation.hpp"
#include "kernels/row_window.hpp"

namespace dosas::kernels {

struct SobelDigest {
  std::uint64_t rows = 0;    ///< output rows produced
  std::uint64_t count = 0;   ///< gradient magnitudes produced
  std::uint64_t edges = 0;   ///< magnitudes above the threshold
  double max_magnitude = 0.0;
  double mean_magnitude = 0.0;

  static Result<SobelDigest> decode(std::span<const std::uint8_t> bytes);
};

class Sobel2dKernel final : public Kernel {
 public:
  explicit Sobel2dKernel(std::size_t width = 1024, double threshold = 1.0);

  /// "sobel2d:width=512,t=2.5"
  static Result<std::unique_ptr<Kernel>> from_spec(const OperationSpec& spec);

  std::string name() const override { return "sobel2d"; }
  void reset() override;
  void consume(std::span<const std::uint8_t> chunk) override;
  Bytes consumed() const override { return window_.consumed(); }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  Checkpoint checkpoint() const override;
  Status restore(const Checkpoint& ck) override;
  std::unique_ptr<Kernel> clone() const override;

  std::size_t width() const { return window_.width(); }
  double threshold() const { return threshold_; }

 private:
  void process_center(const double* above, const double* center, const double* below);

  double threshold_;
  RowWindow window_;

  std::uint64_t out_rows_ = 0;
  std::uint64_t out_count_ = 0;
  std::uint64_t edges_ = 0;
  double max_mag_ = 0.0;
  double sum_mag_ = 0.0;
};

}  // namespace dosas::kernels
