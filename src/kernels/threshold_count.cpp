#include "kernels/threshold_count.hpp"

namespace dosas::kernels {

Result<std::unique_ptr<Kernel>> ThresholdCountKernel::from_spec(const OperationSpec& spec) {
  return std::unique_ptr<Kernel>(
      std::make_unique<ThresholdCountKernel>(spec.get_double("t", 0.5)));
}

Result<ThresholdCountResult> ThresholdCountResult::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  ThresholdCountResult out;
  if (!r.get_u64(out.count) || !r.get_u64(out.matches) || !r.get_f64(out.threshold) ||
      !r.exhausted()) {
    return error(ErrorCode::kInvalidArgument, "thresholdcount: bad result payload");
  }
  return out;
}

std::vector<std::uint8_t> ThresholdCountKernel::finalize() const {
  ByteWriter w;
  w.put_u64(count_);
  w.put_u64(matches_);
  w.put_f64(threshold_);
  return w.take();
}

Bytes ThresholdCountKernel::result_size(Bytes input) const {
  (void)input;
  return 2 * sizeof(std::uint64_t) + sizeof(double);
}

Status ThresholdCountKernel::merge(std::span<const std::uint8_t> other_result) {
  auto other = ThresholdCountResult::decode(other_result);
  if (!other.is_ok()) return other.status();
  if (other.value().threshold != threshold_) {
    return error(ErrorCode::kInvalidArgument, "thresholdcount: merge with mismatched threshold");
  }
  count_ += other.value().count;
  matches_ += other.value().matches;
  return Status::ok();
}

}  // namespace dosas::kernels
