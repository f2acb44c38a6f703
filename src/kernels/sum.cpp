#include "kernels/sum.hpp"

#include <cstring>

namespace dosas::kernels {

namespace {

// Two adjacent lanes in one SSE2 register (GCC/Clang vector extension).
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

Pair load(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

void SumKernel::process_items(std::span<const double> items) {
  const double* p = items.data();
  std::size_t n = items.size();
  double* l = lanes_.data();
  // Items up to the next stream position that is a multiple of kLanes.
  for (std::size_t lane = count_ % kLanes; lane != 0 && n > 0; lane = (lane + 1) % kLanes, --n) {
    l[lane] += *p++;
  }
  count_ += items.size();
  if (n >= kLanes) {
    Pair a = load(l), b = load(l + 2), c = load(l + 4), d = load(l + 6);
    for (; n >= kLanes; p += kLanes, n -= kLanes) {
      a += load(p);
      b += load(p + 2);
      c += load(p + 4);
      d += load(p + 6);
    }
    std::memcpy(l, &a, sizeof a);
    std::memcpy(l + 2, &b, sizeof b);
    std::memcpy(l + 4, &c, sizeof c);
    std::memcpy(l + 6, &d, sizeof d);
  }
  for (std::size_t k = 0; k < n; ++k) l[k] += p[k];
}

Result<SumResult> SumResult::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  SumResult out;
  if (!r.get_u64(out.count) || !r.get_f64(out.sum) || !r.exhausted()) {
    return error(ErrorCode::kInvalidArgument, "sum: bad result payload");
  }
  return out;
}

std::vector<std::uint8_t> SumKernel::finalize() const {
  const auto& l = lanes_;
  ByteWriter w;
  w.put_u64(count_);
  w.put_f64(((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7])));
  return w.take();
}

Bytes SumKernel::result_size(Bytes input) const {
  (void)input;
  return sizeof(std::uint64_t) + sizeof(double);
}

Status SumKernel::merge(std::span<const std::uint8_t> other_result) {
  auto other = SumResult::decode(other_result);
  if (!other.is_ok()) return other.status();
  lanes_[0] += other.value().sum;
  count_ += other.value().count;
  return Status::ok();
}

}  // namespace dosas::kernels
