#include "kernels/minmax.hpp"

namespace dosas::kernels {

namespace {

constexpr std::size_t kBlock = 8;

/// Whether any of the kBlock values at `p` lies strictly beyond [lo, hi].
/// Two independent lanes per bound, so the compiler can keep them in one
/// vector register; a lane starts at the bound and only ever takes a
/// value that compares beyond it, so a NaN never enters a lane.
bool block_beyond(const double* p, double lo, double hi) {
  double l[2] = {lo, lo};
  double h[2] = {hi, hi};
  for (std::size_t j = 0; j < kBlock; j += 2) {
    for (std::size_t k = 0; k < 2; ++k) {
      l[k] = p[j + k] < l[k] ? p[j + k] : l[k];
      h[k] = p[j + k] > h[k] ? p[j + k] : h[k];
    }
  }
  return (l[0] < lo) | (l[1] < lo) | (h[0] > hi) | (h[1] > hi);
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
  std::vector<std::uint8_t> buf(bytes.begin(), bytes.end());
  ByteReader r(buf);
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
