#include "kernels/topk.hpp"

#include <cassert>

namespace dosas::kernels {

TopKKernel::TopKKernel(std::size_t k) : k_(k) { assert(k_ >= 1); }

Result<std::unique_ptr<Kernel>> TopKKernel::from_spec(const OperationSpec& spec) {
  const auto k = spec.get_int("k", 10);
  if (k < 1 || k > (1 << 22)) {
    return error(ErrorCode::kInvalidArgument, "topk: k out of range");
  }
  return std::unique_ptr<Kernel>(std::make_unique<TopKKernel>(static_cast<std::size_t>(k)));
}

void TopKKernel::push_value(double v) {
  if (heap_.size() < k_) {
    heap_.push_back(v);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  } else if (v > heap_.front()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.back() = v;
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
}

void TopKKernel::process_items(std::span<const double> items) {
  for (double v : items) push_value(v);
  count_ += items.size();
}

std::vector<std::uint8_t> TopKKernel::finalize() const {
  std::vector<double> sorted = heap_;
  std::sort(sorted.begin(), sorted.end(), std::greater<>{});
  ByteWriter w;
  w.put_u64(count_);
  w.put_u32(static_cast<std::uint32_t>(sorted.size()));
  for (double v : sorted) w.put_f64(v);
  return w.take();
}

Bytes TopKKernel::result_size(Bytes input) const {
  (void)input;
  return sizeof(std::uint64_t) + sizeof(std::uint32_t) + k_ * sizeof(double);
}

Status TopKKernel::merge(std::span<const std::uint8_t> other_result) {
  auto other = TopKResult::decode(other_result);
  if (!other.is_ok()) return other.status();
  for (double v : other.value().values) push_value(v);
  count_ += other.value().count;
  return Status::ok();
}

Result<TopKResult> TopKResult::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  TopKResult out;
  std::uint32_t n = 0;
  if (!r.get_u64(out.count) || !r.get_u32(n)) {
    return error(ErrorCode::kInvalidArgument, "topk: bad result header");
  }
  if (r.remaining() != static_cast<std::size_t>(n) * sizeof(double)) {
    return error(ErrorCode::kInvalidArgument, "topk: value count does not match payload");
  }
  out.values.resize(n);
  for (auto& v : out.values) {
    if (!r.get_f64(v)) return error(ErrorCode::kInvalidArgument, "topk: truncated values");
  }
  if (!r.exhausted()) return error(ErrorCode::kInvalidArgument, "topk: trailing bytes");
  return out;
}

}  // namespace dosas::kernels
