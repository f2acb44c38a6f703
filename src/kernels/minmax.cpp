#include "kernels/minmax.hpp"

#include <cstring>

namespace dosas::kernels {

namespace {

constexpr std::size_t kBlock = 64;

// Two adjacent items in one SSE2 register (GCC/Clang vector extension).
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

Pair load(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Whether any of the kBlock values at `p` lies strictly beyond [lo, hi].
/// Four independent 2-lane accumulators per bound, so no compare waits on
/// the one before it; a lane starts at the bound and only ever takes a
/// value that compares beyond it, so a NaN never enters a lane.
bool block_beyond(const double* p, double lo, double hi) {
  const Pair lo2 = {lo, lo}, hi2 = {hi, hi};
  Pair l0 = lo2, l1 = lo2, l2 = lo2, l3 = lo2;
  Pair h0 = hi2, h1 = hi2, h2 = hi2, h3 = hi2;
  const auto step = [](Pair& l, Pair& h, const double* q) {
    const Pair v = load(q);
    l = v < l ? v : l;
    h = v > h ? v : h;
  };
  for (const double* end = p + kBlock; p != end; p += 8) {
    step(l0, h0, p);
    step(l1, h1, p + 2);
    step(l2, h2, p + 4);
    step(l3, h3, p + 6);
  }
  const auto beyond = (l0 < lo2) | (l1 < lo2) | (l2 < lo2) | (l3 < lo2) | (h0 > hi2) |
                      (h1 > hi2) | (h2 > hi2) | (h3 > hi2);
  return (beyond[0] | beyond[1]) != 0;
}

/// The ordered updates that define the result.
void update(const double* p, std::size_t n, double& lo, double& hi) {
  for (std::size_t i = 0; i < n; ++i) {
    lo = p[i] < lo ? p[i] : lo;
    hi = p[i] > hi ? p[i] : hi;
  }
}

}  // namespace

void MinMaxKernel::process_items(std::span<const double> items) {
  if (items.empty()) return;
  const double* p = items.data();
  std::size_t n = items.size();
  if (count_ == 0) min_ = max_ = *p;
  count_ += n;
  double lo = min_;
  double hi = max_;
  for (; n >= kBlock; p += kBlock, n -= kBlock) {
    if (block_beyond(p, lo, hi)) update(p, kBlock, lo, hi);
  }
  update(p, n, lo, hi);
  min_ = lo;
  max_ = hi;
}

Result<MinMaxResult> MinMaxResult::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  MinMaxResult out;
  if (!r.get_u64(out.count) || !r.get_f64(out.min) || !r.get_f64(out.max) || !r.exhausted()) {
    return error(ErrorCode::kInvalidArgument, "minmax: bad result payload");
  }
  return out;
}

std::vector<std::uint8_t> MinMaxKernel::finalize() const {
  ByteWriter w;
  w.put_u64(count_);
  w.put_f64(min_);
  w.put_f64(max_);
  return w.take();
}

Bytes MinMaxKernel::result_size(Bytes input) const {
  (void)input;
  return sizeof(std::uint64_t) + 2 * sizeof(double);
}

Status MinMaxKernel::merge(std::span<const std::uint8_t> other_result) {
  auto other = MinMaxResult::decode(other_result);
  if (!other.is_ok()) return other.status();
  const auto& o = other.value();
  if (o.count == 0) return Status::ok();
  if (count_ == 0) {
    count_ = o.count;
    min_ = o.min;
    max_ = o.max;
  } else {
    count_ += o.count;
    if (o.min < min_) min_ = o.min;
    if (o.max > max_) max_ = o.max;
  }
  return Status::ok();
}

}  // namespace dosas::kernels
