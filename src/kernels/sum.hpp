// sum.hpp — the SUM benchmark kernel (paper Table III).
//
// One addition per data item; the cheapest kernel in the paper, processing
// ~860 MB/s per core on the Discfarm testbed. Its result is a 16-byte
// (count, sum) record, so active execution reduces an x-byte read to a
// constant-size transfer: the regime where active storage always wins.
#pragma once

#include "kernels/kernel.hpp"

namespace dosas::kernels {

/// Decoded result payload of SumKernel::finalize().
struct SumResult {
  std::uint64_t count = 0;
  double sum = 0.0;

  static Result<SumResult> decode(std::span<const std::uint8_t> bytes);
};

class SumKernel final : public ItemwiseKernel {
 public:
  std::string name() const override { return "sum"; }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  void fields(Fields& f) override {
    ItemwiseKernel::fields(f);
    f.counter("sum", sum_);
    f.counter("count", count_);
  }
  bool mergeable() const override { return true; }
  Status merge(std::span<const std::uint8_t> other_result) override;

 protected:
  void reset_state() override {
    sum_ = 0.0;
    count_ = 0;
  }
  void process_items(std::span<const double> items) override {
    for (double v : items) sum_ += v;
    count_ += items.size();
  }

 private:
  double sum_ = 0.0;
  std::uint64_t count_ = 0;
};

}  // namespace dosas::kernels
