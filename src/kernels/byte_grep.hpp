// byte_grep.hpp — count occurrences of a byte pattern in the raw stream.
//
// The unstructured-data representative (log scanning / sequence search à la
// Riedel's active-disk search workloads). Operates on raw bytes, not
// doubles, and carries a (pattern-1)-byte overlap window across chunks so
// matches spanning chunk boundaries are found exactly. Overlapping
// occurrences count (search resumes one byte after each match start).
#pragma once

#include "kernels/kernel.hpp"
#include "kernels/operation.hpp"

namespace dosas::kernels {

struct ByteGrepResult {
  std::uint64_t matches = 0;
  std::uint64_t scanned = 0;  ///< total bytes scanned

  static Result<ByteGrepResult> decode(std::span<const std::uint8_t> bytes);
};

class ByteGrepKernel final : public Kernel {
 public:
  /// pattern must be non-empty.
  explicit ByteGrepKernel(std::string pattern = "ERROR");

  /// "bytegrep:pat=needle"
  static Result<std::unique_ptr<Kernel>> from_spec(const OperationSpec& spec);

  std::string name() const override { return "bytegrep"; }
  void reset() override;
  void consume(std::span<const std::uint8_t> chunk) override;
  Bytes consumed() const override { return consumed_; }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  void fields(Fields& f) override {
    f.config("pattern", pattern_);
    f.counter("consumed", consumed_);
    f.counter("matches", matches_);
    f.array("tail", tail_, {.max = pattern_.size() - 1});
  }

  const std::string& pattern() const { return pattern_; }

 private:
  std::string pattern_;
  Bytes consumed_ = 0;
  std::uint64_t matches_ = 0;
  std::vector<std::uint8_t> tail_;  // last pattern-1 bytes of the stream so far
};

}  // namespace dosas::kernels
