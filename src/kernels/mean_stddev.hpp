// mean_stddev.hpp — streaming mean/standard-deviation kernel.
//
// Welford's algorithm, so checkpoints stay O(1) and stripe-level partials
// merge exactly (Chan et al.'s parallel variance combination).
#pragma once

#include "kernels/kernel.hpp"

namespace dosas::kernels {

struct MeanStddevResult {
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations

  double variance() const {
    return count > 1 ? m2 / static_cast<double>(count - 1) : 0.0;
  }

  static Result<MeanStddevResult> decode(std::span<const std::uint8_t> bytes);
};

class MeanStddevKernel final : public ItemwiseKernel {
 public:
  std::string name() const override { return "meanstddev"; }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  void fields(Fields& f) override {
    ItemwiseKernel::fields(f);
    f.counter("count", count_);
    f.counter("mean", mean_);
    f.counter("m2", m2_);
  }
  bool mergeable() const override { return true; }
  Status merge(std::span<const std::uint8_t> other_result) override;

 protected:
  void reset_state() override {
    count_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
  }
  void process_items(std::span<const double> items) override {
    for (double v : items) {
      ++count_;
      const double delta = v - mean_;
      mean_ += delta / static_cast<double>(count_);
      m2_ += delta * (v - mean_);
    }
  }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace dosas::kernels
