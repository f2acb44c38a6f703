#include "kernels/histogram.hpp"

#include <algorithm>
#include <cassert>

namespace dosas::kernels {

HistogramKernel::HistogramKernel(std::uint32_t bins, double lo, double hi)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(bins >= 1);
  assert(lo < hi);
}

Result<std::unique_ptr<Kernel>> HistogramKernel::from_spec(const OperationSpec& spec) {
  const auto bins = spec.get_int("bins", 16);
  const double lo = spec.get_double("lo", 0.0);
  const double hi = spec.get_double("hi", 1.0);
  if (bins < 1 || bins > 1 << 20) {
    return error(ErrorCode::kInvalidArgument, "histogram: bins out of range");
  }
  if (!(lo < hi)) {
    return error(ErrorCode::kInvalidArgument, "histogram: lo must be < hi");
  }
  return std::unique_ptr<Kernel>(
      std::make_unique<HistogramKernel>(static_cast<std::uint32_t>(bins), lo, hi));
}

Result<HistogramResult> HistogramResult::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  HistogramResult out;
  std::uint32_t bins = 0;
  if (!r.get_u32(bins) || !r.get_f64(out.lo) || !r.get_f64(out.hi) || !r.get_u64(out.below) ||
      !r.get_u64(out.above)) {
    return error(ErrorCode::kInvalidArgument, "histogram: bad result header");
  }
  if (r.remaining() != static_cast<std::size_t>(bins) * sizeof(std::uint64_t)) {
    return error(ErrorCode::kInvalidArgument, "histogram: bin count does not match payload");
  }
  out.counts.resize(bins);
  for (auto& c : out.counts) {
    if (!r.get_u64(c)) return error(ErrorCode::kInvalidArgument, "histogram: truncated counts");
  }
  if (!r.exhausted()) return error(ErrorCode::kInvalidArgument, "histogram: trailing bytes");
  return out;
}

std::vector<std::uint8_t> HistogramKernel::finalize() const {
  ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(counts_.size()));
  w.put_f64(lo_);
  w.put_f64(hi_);
  w.put_u64(below_);
  w.put_u64(above_);
  for (auto c : counts_) w.put_u64(c);
  return w.take();
}

Bytes HistogramKernel::result_size(Bytes input) const {
  (void)input;
  return sizeof(std::uint32_t) + 2 * sizeof(double) + (2 + counts_.size()) * sizeof(std::uint64_t);
}

Status HistogramKernel::merge(std::span<const std::uint8_t> other_result) {
  auto other = HistogramResult::decode(other_result);
  if (!other.is_ok()) return other.status();
  const auto& o = other.value();
  if (o.counts.size() != counts_.size() || o.lo != lo_ || o.hi != hi_) {
    return error(ErrorCode::kInvalidArgument, "histogram: merge with mismatched binning");
  }
  below_ += o.below;
  above_ += o.above;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts[i];
  return Status::ok();
}

}  // namespace dosas::kernels
