#include "kernels/sum.hpp"

namespace dosas::kernels {

Result<SumResult> SumResult::decode(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> buf(bytes.begin(), bytes.end());
  ByteReader r(buf);
  SumResult out;
  if (!r.get_u64(out.count) || !r.get_f64(out.sum) || !r.exhausted()) {
    return error(ErrorCode::kInvalidArgument, "sum: bad result payload");
  }
  return out;
}

std::vector<std::uint8_t> SumKernel::finalize() const {
  ByteWriter w;
  w.put_u64(count_);
  w.put_f64(sum_);
  return w.take();
}

Bytes SumKernel::result_size(Bytes input) const {
  (void)input;
  return sizeof(std::uint64_t) + sizeof(double);
}

Status SumKernel::merge(std::span<const std::uint8_t> other_result) {
  auto other = SumResult::decode(other_result);
  if (!other.is_ok()) return other.status();
  sum_ += other.value().sum;
  count_ += other.value().count;
  return Status::ok();
}

}  // namespace dosas::kernels
