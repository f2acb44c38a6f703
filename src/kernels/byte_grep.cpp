#include "kernels/byte_grep.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace dosas::kernels {

ByteGrepKernel::ByteGrepKernel(std::string pattern) : pattern_(std::move(pattern)) {
  assert(!pattern_.empty());
}

Result<std::unique_ptr<Kernel>> ByteGrepKernel::from_spec(const OperationSpec& spec) {
  const std::string pat = spec.get("pat", "ERROR");
  if (pat.empty()) return error(ErrorCode::kInvalidArgument, "bytegrep: empty pattern");
  return std::unique_ptr<Kernel>(std::make_unique<ByteGrepKernel>(pat));
}

void ByteGrepKernel::reset() {
  consumed_ = 0;
  matches_ = 0;
  tail_.clear();
}

void ByteGrepKernel::consume(std::span<const std::uint8_t> chunk) {
  consumed_ += chunk.size();
  const std::size_t plen = pattern_.size();

  // Scan tail_ + chunk so boundary-spanning matches are found; tail_ holds
  // at most plen-1 bytes, so matches found here were not counted before.
  std::vector<std::uint8_t> window;
  window.reserve(tail_.size() + chunk.size());
  window.insert(window.end(), tail_.begin(), tail_.end());
  window.insert(window.end(), chunk.begin(), chunk.end());

  if (window.size() >= plen) {
    const auto* hay = window.data();
    const auto* pat = reinterpret_cast<const std::uint8_t*>(pattern_.data());
    for (std::size_t i = 0; i + plen <= window.size(); ++i) {
      if (std::memcmp(hay + i, pat, plen) == 0) ++matches_;
    }
  }

  // Keep the trailing plen-1 bytes for the next chunk.
  const std::size_t keep = std::min(window.size(), plen - 1);
  tail_.assign(window.end() - static_cast<std::ptrdiff_t>(keep), window.end());
}

std::vector<std::uint8_t> ByteGrepKernel::finalize() const {
  ByteWriter w;
  w.put_u64(matches_);
  w.put_u64(consumed_);
  return w.take();
}

Bytes ByteGrepKernel::result_size(Bytes input) const {
  (void)input;
  return 2 * sizeof(std::uint64_t);
}

Result<ByteGrepResult> ByteGrepResult::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  ByteGrepResult out;
  if (!r.get_u64(out.matches) || !r.get_u64(out.scanned) || !r.exhausted()) {
    return error(ErrorCode::kInvalidArgument, "bytegrep: bad result payload");
  }
  return out;
}

}  // namespace dosas::kernels
