#include "kernels/reservoir.hpp"

#include <cassert>
#include <cstring>

namespace dosas::kernels {

ReservoirKernel::ReservoirKernel(std::size_t n, std::uint64_t seed)
    : n_(n), seed_(seed), rng_(seed) {
  assert(n_ >= 1);
}

Result<std::unique_ptr<Kernel>> ReservoirKernel::from_spec(const OperationSpec& spec) {
  const auto n = spec.get_int("n", 64);
  if (n < 1 || n > (1 << 22)) {
    return error(ErrorCode::kInvalidArgument, "reservoir: n out of range");
  }
  const auto seed = static_cast<std::uint64_t>(spec.get_int("seed", 0xD05A5));
  return std::unique_ptr<Kernel>(
      std::make_unique<ReservoirKernel>(static_cast<std::size_t>(n), seed));
}

void ReservoirKernel::process_items(std::span<const double> items) {
  for (double v : items) {
    ++count_;
    if (sample_.size() < n_) {
      sample_.push_back(v);
    } else {
      // Algorithm R: replace a random slot with probability n/count.
      const std::uint64_t j = rng_.uniform_index(count_);
      if (j < n_) sample_[j] = v;
    }
  }
}

void ReservoirKernel::fields(Fields& f) {
  ItemwiseKernel::fields(f);
  f.config("n", n_);
  f.config("seed", seed_);
  f.counter("count", count_);
  f.array("sample", sample_, {.max = n_});
  // The generator's xoshiro words. All zero is refused: that state yields
  // 0 forever, and uniform_index's rejection loop would never exit.
  Rng::State words = rng_.state();
  const auto* p = reinterpret_cast<const std::uint8_t*>(words.data());
  const auto raw = f.bytes("rng", {p, sizeof words}, {.min = sizeof words, .max = sizeof words});
  if (f.reading() && !raw.empty()) {
    std::memcpy(words.data(), raw.data(), sizeof words);
    f.require(words != Rng::State{}, "generator state is all zero");
    f.commit([this, words] { rng_.set_state(words); });
  }
}

std::vector<std::uint8_t> ReservoirKernel::finalize() const {
  ByteWriter w;
  w.put_u64(count_);
  w.put_u64(seed_);
  w.put_u32(static_cast<std::uint32_t>(sample_.size()));
  for (double v : sample_) w.put_f64(v);
  return w.take();
}

Bytes ReservoirKernel::result_size(Bytes input) const {
  (void)input;
  return 2 * sizeof(std::uint64_t) + sizeof(std::uint32_t) + n_ * sizeof(double);
}

Status ReservoirKernel::merge(std::span<const std::uint8_t> other_result) {
  auto other = ReservoirResult::decode(other_result);
  if (!other.is_ok()) return other.status();
  const auto& o = other.value();
  if (o.sample.empty()) return Status::ok();
  if (sample_.empty()) {
    sample_ = o.sample;
    count_ = o.count;
    return Status::ok();
  }
  // Weighted merge: each slot of the combined reservoir comes from the
  // other side with probability count_other / (count_this + count_other).
  const double p_other =
      static_cast<double>(o.count) / static_cast<double>(count_ + o.count);
  const std::size_t limit = std::min(n_, o.sample.size());
  for (std::size_t i = 0; i < sample_.size(); ++i) {
    if (rng_.chance(p_other)) {
      sample_[i] = o.sample[rng_.uniform_index(limit)];
    }
  }
  count_ += o.count;
  return Status::ok();
}

Result<ReservoirResult> ReservoirResult::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  ReservoirResult out;
  std::uint32_t n = 0;
  if (!r.get_u64(out.count) || !r.get_u64(out.seed) || !r.get_u32(n)) {
    return error(ErrorCode::kInvalidArgument, "reservoir: bad result header");
  }
  if (r.remaining() != static_cast<std::size_t>(n) * sizeof(double)) {
    return error(ErrorCode::kInvalidArgument, "reservoir: sample count does not match payload");
  }
  out.sample.resize(n);
  for (auto& v : out.sample) {
    if (!r.get_f64(v)) return error(ErrorCode::kInvalidArgument, "reservoir: truncated sample");
  }
  if (!r.exhausted()) return error(ErrorCode::kInvalidArgument, "reservoir: trailing bytes");
  return out;
}

}  // namespace dosas::kernels
