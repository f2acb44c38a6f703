// minmax.hpp — min/max reduction kernel.
//
// Two comparisons per item; with SUM and MEAN/STDDEV this covers the cheap
// statistics family active storage was originally proposed for (Riedel's
// active-disk data-mining workloads).
//
// The result is defined by the ordered loop `if (v < min) min = v;
// if (v > max) max = v;` — a NaN first item sticks, later NaNs are
// ignored, and of two equal values (+0/-0) the first one stays. Most
// blocks of input cannot change either extreme, so process_items checks
// each block of 64 items first, with vector compares into four
// independent 2-lane accumulators per bound, and runs the ordered updates
// only on a block holding a value strictly beyond the current min or max
// (NaN never is). Skipping the ordered updates on any other block changes
// nothing, so the result stays bit-exact.
#pragma once

#include "kernels/kernel.hpp"

namespace dosas::kernels {

struct MinMaxResult {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;

  static Result<MinMaxResult> decode(std::span<const std::uint8_t> bytes);
};

class MinMaxKernel final : public ItemwiseKernel {
 public:
  std::string name() const override { return "minmax"; }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  void fields(Fields& f) override {
    ItemwiseKernel::fields(f);
    f.counter("count", count_);
    f.counter("min", min_);
    f.counter("max", max_);
  }
  bool mergeable() const override { return true; }
  Status merge(std::span<const std::uint8_t> other_result) override;

 protected:
  void reset_state() override {
    count_ = 0;
    min_ = 0.0;
    max_ = 0.0;
  }
  void process_items(std::span<const double> items) override;

 private:
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dosas::kernels
