// histogram.hpp — fixed-bin histogram kernel.
//
// Parameters: bins (default 16), lo/hi value range (default [0,1)). Items
// outside the range land in dedicated under/overflow counters. The result
// size depends on the bin count, not the input size — a mid-size h(x)
// between SUM's constant and Gaussian's proportional output.
#pragma once

#include "kernels/kernel.hpp"
#include "kernels/operation.hpp"

namespace dosas::kernels {

struct HistogramResult {
  double lo = 0.0;
  double hi = 1.0;
  std::uint64_t below = 0;
  std::uint64_t above = 0;
  std::vector<std::uint64_t> counts;

  std::uint64_t total() const {
    std::uint64_t t = below + above;
    for (auto c : counts) t += c;
    return t;
  }

  static Result<HistogramResult> decode(std::span<const std::uint8_t> bytes);
};

class HistogramKernel final : public ItemwiseKernel {
 public:
  /// bins >= 1, lo < hi.
  HistogramKernel(std::uint32_t bins = 16, double lo = 0.0, double hi = 1.0);

  /// Construct from an operation spec: "histogram:bins=32,lo=-1,hi=1".
  static Result<std::unique_ptr<Kernel>> from_spec(const OperationSpec& spec);

  std::string name() const override { return "histogram"; }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  void fields(Fields& f) override {
    ItemwiseKernel::fields(f);
    f.config("bins", counts_.size());
    f.config("lo", lo_);
    f.config("hi", hi_);
    f.counter("below", below_);
    f.counter("above", above_);
    f.array("counts", counts_, {.min = counts_.size(), .max = counts_.size()});
  }
  bool mergeable() const override { return true; }
  Status merge(std::span<const std::uint8_t> other_result) override;

 protected:
  void reset_state() override {
    below_ = above_ = 0;
    std::fill(counts_.begin(), counts_.end(), 0);
  }
  void process_items(std::span<const double> items) override {
    const double scale = static_cast<double>(counts_.size()) / (hi_ - lo_);
    for (double v : items) {
      if (v < lo_) {
        ++below_;
      } else if (v >= hi_) {
        ++above_;
      } else {
        const auto bin = static_cast<std::size_t>((v - lo_) * scale);
        ++counts_[bin < counts_.size() ? bin : counts_.size() - 1];
      }
    }
  }

 private:
  double lo_;
  double hi_;
  std::uint64_t below_ = 0;
  std::uint64_t above_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace dosas::kernels
