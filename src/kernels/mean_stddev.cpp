#include "kernels/mean_stddev.hpp"

namespace dosas::kernels {

Result<MeanStddevResult> MeanStddevResult::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  MeanStddevResult out;
  if (!r.get_u64(out.count) || !r.get_f64(out.mean) || !r.get_f64(out.m2) || !r.exhausted()) {
    return error(ErrorCode::kInvalidArgument, "meanstddev: bad result payload");
  }
  return out;
}

std::vector<std::uint8_t> MeanStddevKernel::finalize() const {
  ByteWriter w;
  w.put_u64(count_);
  w.put_f64(mean_);
  w.put_f64(m2_);
  return w.take();
}

Bytes MeanStddevKernel::result_size(Bytes input) const {
  (void)input;
  return sizeof(std::uint64_t) + 2 * sizeof(double);
}

Status MeanStddevKernel::merge(std::span<const std::uint8_t> other_result) {
  auto other = MeanStddevResult::decode(other_result);
  if (!other.is_ok()) return other.status();
  const auto& o = other.value();
  if (o.count == 0) return Status::ok();
  if (count_ == 0) {
    count_ = o.count;
    mean_ = o.mean;
    m2_ = o.m2;
    return Status::ok();
  }
  // Chan et al. pairwise combination.
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(o.count);
  const double delta = o.mean - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += o.m2 + delta * delta * na * nb / n;
  count_ += o.count;
  return Status::ok();
}

}  // namespace dosas::kernels
