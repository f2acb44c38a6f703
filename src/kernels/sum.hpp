// sum.hpp — the SUM benchmark kernel (paper Table III).
//
// One addition per data item; the cheapest kernel in the paper, processing
// ~860 MB/s per core on the Discfarm testbed. Its result is a 16-byte
// (count, sum) record, so active execution reduces an x-byte read to a
// constant-size transfer: the regime where active storage always wins.
//
// The sum is defined by item position, in eight lanes: item i of the
// stream (i counts from reset) is added into lane i mod 8, and finalize()
// returns ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)). That is still one addition
// per item, plus seven at finalize; the eight independent chains let a
// core sum at memory speed instead of at the latency of one add chain.
// Because the lane is the item's position, not its place in a chunk, a sum
// is a function of the stream's bytes alone: any chunking, misaligned
// staging or interrupt/resume point (the checkpoint carries the eight
// lanes) gives the same bits, on a server or on a client. merge() adds a
// partial's sum into lane 0, so a fresh kernel folding partials in stripe
// order returns exactly their running sum.
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
    f.array("lanes", lanes_, {.min = kLanes, .max = kLanes});
    f.counter("count", count_);
  }
  bool mergeable() const override { return true; }
  Status merge(std::span<const std::uint8_t> other_result) override;

 protected:
  void reset_state() override {
    lanes_.assign(kLanes, 0.0);
    count_ = 0;
  }
  void process_items(std::span<const double> items) override;

 private:
  static constexpr std::size_t kLanes = 8;

  std::vector<double> lanes_ = std::vector<double>(kLanes, 0.0);
  std::uint64_t count_ = 0;
};

}  // namespace dosas::kernels
