// topk.hpp — top-K selection kernel (extension).
//
// Keeps the K largest items of the stream in a min-heap; the result is the
// sorted top-K list (descending). h(x) is K·8 bytes regardless of input
// size — a tunable middle ground between SUM's constant and Gaussian-full's
// proportional result. Mergeable across stripes (union of partial top-Ks
// re-selected), which makes it the interesting case for the striped
// fan-out path.
#pragma once

#include <algorithm>
#include <functional>

#include "kernels/kernel.hpp"
#include "kernels/operation.hpp"

namespace dosas::kernels {

struct TopKResult {
  std::uint64_t count = 0;       ///< items seen
  std::vector<double> values;    ///< top-K, descending

  static Result<TopKResult> decode(std::span<const std::uint8_t> bytes);
};

class TopKKernel final : public ItemwiseKernel {
 public:
  explicit TopKKernel(std::size_t k = 10);

  /// "topk:k=100"
  static Result<std::unique_ptr<Kernel>> from_spec(const OperationSpec& spec);

  std::string name() const override { return "topk"; }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  void fields(Fields& f) override {
    ItemwiseKernel::fields(f);
    f.config("k", k_);
    f.counter("count", count_);
    f.array("heap", heap_, {.max = k_});
    // Re-establish heap order: a checkpoint's heap need not be in it.
    f.commit([this] { std::make_heap(heap_.begin(), heap_.end(), std::greater<>{}); });
  }
  bool mergeable() const override { return true; }
  Status merge(std::span<const std::uint8_t> other_result) override;

  std::size_t k() const { return k_; }

 protected:
  void reset_state() override {
    heap_.clear();
    count_ = 0;
  }
  void process_items(std::span<const double> items) override;

 private:
  void push_value(double v);

  std::size_t k_;
  std::vector<double> heap_;  // min-heap of the current top-K
  std::uint64_t count_ = 0;
};

}  // namespace dosas::kernels
