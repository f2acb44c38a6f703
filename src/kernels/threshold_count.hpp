// threshold_count.hpp — count items exceeding a threshold.
//
// The classic active-disk "filter + count" selection kernel (Acharya et
// al.'s SQL-select analogue): one comparison per item, tiny result.
#pragma once

#include "kernels/kernel.hpp"
#include "kernels/operation.hpp"

namespace dosas::kernels {

struct ThresholdCountResult {
  std::uint64_t count = 0;    ///< items seen
  std::uint64_t matches = 0;  ///< items > threshold
  double threshold = 0.0;

  static Result<ThresholdCountResult> decode(std::span<const std::uint8_t> bytes);
};

class ThresholdCountKernel final : public ItemwiseKernel {
 public:
  explicit ThresholdCountKernel(double threshold = 0.5) : threshold_(threshold) {}

  /// "thresholdcount:t=0.9"
  static Result<std::unique_ptr<Kernel>> from_spec(const OperationSpec& spec);

  std::string name() const override { return "thresholdcount"; }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  void fields(Fields& f) override {
    ItemwiseKernel::fields(f);
    f.config("threshold", threshold_);
    f.counter("count", count_);
    f.counter("matches", matches_);
  }
  bool mergeable() const override { return true; }
  Status merge(std::span<const std::uint8_t> other_result) override;

 protected:
  void reset_state() override {
    count_ = 0;
    matches_ = 0;
  }
  void process_items(std::span<const double> items) override {
    for (double v : items) {
      if (v > threshold_) ++matches_;
    }
    count_ += items.size();
  }

 private:
  double threshold_;
  std::uint64_t count_ = 0;
  std::uint64_t matches_ = 0;
};

}  // namespace dosas::kernels
