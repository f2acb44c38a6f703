// gaussian2d.hpp — the 2D Gaussian Filter benchmark kernel (paper Table III).
//
// A 3×3 Gaussian convolution (weights 1-2-1 / 2-4-2 / 1-2-1, divided by 16)
// over a row-major grid of doubles: exactly the paper's "9 multiplication
// operations, 9 addition operations and 1 divide operation per data item".
// It is the *expensive* kernel (~80 MB/s per core on the paper's testbed)
// whose offloading causes the storage-node contention DOSAS schedules
// around.
//
// The stream is interpreted as rows of `width` doubles. Output rows are
// produced for every row with both vertical neighbours (the first and last
// input rows produce none); columns are edge-clamped. Two result modes:
//
//   * kDigest (default): (rows, count, sum, min, max) of the filtered
//     field — the "derived statistic of the filtered image" use case; this
//     is what makes active Gaussian worth offloading (h(x) constant).
//   * kFull: the filtered rows themselves (h(x) ≈ x), used by correctness
//     tests and by consumers that need the full filtered image.
//
// Rows come from a RowWindow (row_window.hpp), read in place; no pointer
// into a chunk is kept past consume(). Vector lanes filter adjacent columns
// with the per-pixel loop's products, sums and divide in its order, and the
// fold into sum/min/max runs in column order, so results are bit-exact.
// A restore also refuses another mode, and a full_out that is not whole rows.
#pragma once

#include "kernels/kernel.hpp"
#include "kernels/operation.hpp"
#include "kernels/row_window.hpp"

namespace dosas::kernels {

struct GaussianDigest {
  std::uint64_t rows = 0;   ///< output rows produced
  std::uint64_t count = 0;  ///< filtered values produced
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  static Result<GaussianDigest> decode(std::span<const std::uint8_t> bytes);
};

class Gaussian2dKernel final : public Kernel {
 public:
  enum class Mode { kDigest, kFull };

  /// width: doubles per row (>= 1).
  explicit Gaussian2dKernel(std::size_t width = 1024, Mode mode = Mode::kDigest);

  /// "gaussian2d:width=512,mode=full"
  static Result<std::unique_ptr<Kernel>> from_spec(const OperationSpec& spec);

  std::string name() const override { return "gaussian2d"; }
  void reset() override;
  void consume(std::span<const std::uint8_t> chunk) override;
  Bytes consumed() const override { return window_.consumed(); }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  void fields(Fields& f) override;

  /// Full mode doubles as a pipeline transformer: drain_stream() hands out
  /// the filtered values (raw doubles) produced so far and removes them
  /// from the full-mode buffer (finalize() then reports only undrained
  /// values). Digest mode does not stream.
  bool streams_output() const override { return mode_ == Mode::kFull; }
  std::vector<std::uint8_t> drain_stream() override;

  std::size_t width() const { return window_.width(); }
  Mode mode() const { return mode_; }

 private:
  void filter_center(const double* above, const double* center, const double* below);

  Mode mode_;
  RowWindow window_;

  // Digest accumulators.
  std::uint64_t out_rows_ = 0;
  std::uint64_t out_count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;

  // Full-mode output (filtered rows, row-major); digest mode's current row.
  std::vector<double> full_out_;
};

}  // namespace dosas::kernels
