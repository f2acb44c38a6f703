// reservoir.hpp — uniform reservoir-sampling kernel (extension).
//
// Returns a uniform sample of N items from the stream (Vitter's Algorithm
// R), the active-storage answer to "give me a representative sample of this
// dataset without reading it": h(x) = N·8 bytes. Deterministic for a given
// seed, so interrupted/resumed runs reproduce exactly: the checkpoint
// carries the generator's four xoshiro words, and a restore refuses the
// all-zero state. Mergeable: two reservoirs combine by weighted
// subsampling using their item counts.
#pragma once

#include "common/rng.hpp"
#include "kernels/kernel.hpp"
#include "kernels/operation.hpp"

namespace dosas::kernels {

struct ReservoirResult {
  std::uint64_t count = 0;      ///< items seen
  std::uint64_t seed = 0;       ///< sampling seed (for reproducibility checks)
  std::vector<double> sample;   ///< the reservoir (size <= N)

  static Result<ReservoirResult> decode(std::span<const std::uint8_t> bytes);
};

class ReservoirKernel final : public ItemwiseKernel {
 public:
  explicit ReservoirKernel(std::size_t n = 64, std::uint64_t seed = 0xD05A5);

  /// "reservoir:n=128,seed=7"
  static Result<std::unique_ptr<Kernel>> from_spec(const OperationSpec& spec);

  std::string name() const override { return "reservoir"; }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  void fields(Fields& f) override;
  bool mergeable() const override { return true; }
  Status merge(std::span<const std::uint8_t> other_result) override;

  std::size_t capacity() const { return n_; }

 protected:
  void reset_state() override {
    sample_.clear();
    count_ = 0;
    rng_.reseed(seed_);
  }
  void process_items(std::span<const double> items) override;

 private:
  std::size_t n_;
  std::uint64_t seed_;
  Rng rng_;
  std::vector<double> sample_;
  std::uint64_t count_ = 0;
};

}  // namespace dosas::kernels
