#include "kernels/kernel.hpp"

#include <algorithm>
#include <cstring>

#include "common/arena.hpp"

namespace dosas::kernels {

void ItemwiseKernel::consume(std::span<const std::uint8_t> chunk) {
  consumed_ += chunk.size();

  // Complete a partial item carried from the previous chunk.
  if (carry_len_ > 0) {
    const std::size_t need = sizeof(double) - carry_len_;
    const std::size_t take = std::min(need, chunk.size());
    // Empty chunks have a null data(); memcpy's pointers must be non-null
    // even for size 0.
    if (take > 0) std::memcpy(carry_ + carry_len_, chunk.data(), take);
    carry_len_ += take;
    chunk = chunk.subspan(take);
    if (carry_len_ == sizeof(double)) {
      double item;
      std::memcpy(&item, carry_, sizeof(double));
      process_items(std::span(&item, 1));
      carry_len_ = 0;
    } else {
      return;  // chunk exhausted without completing the item
    }
  }

  // Process the whole-item middle.
  const std::size_t whole = chunk.size() / sizeof(double);
  if (whole > 0) {
    if (reinterpret_cast<std::uintptr_t>(chunk.data()) % alignof(double) == 0) {
      // Aligned input — every item-aligned extent of an object version is
      // (version slabs are allocator-aligned, and stream_extent keeps chunk
      // boundaries on item multiples) — is consumed IN PLACE: the data
      // server's version slab is the very memory process_items() reads.
      // No staging, no ledger charge.
      process_items(
          std::span(reinterpret_cast<const double*>(chunk.data()), whole));
    } else {
      // Misaligned byte stream (ragged head after a carry, foreign
      // buffers): copy into an aligned scratch in bounded blocks to keep
      // memory flat. This staging copy is what the ledger's kernel_stage
      // site measures.
      constexpr std::size_t kBlock = 8192;
      static thread_local std::vector<double> scratch;
      note_bytes_copied(whole * sizeof(double), CopySite::kKernelStage);
      std::size_t done = 0;
      while (done < whole) {
        const std::size_t n = std::min(kBlock, whole - done);
        scratch.resize(n);
        std::memcpy(scratch.data(), chunk.data() + done * sizeof(double), n * sizeof(double));
        process_items(std::span(scratch.data(), n));
        done += n;
      }
    }
  }

  // Stash the trailing partial item.
  const std::size_t tail = chunk.size() % sizeof(double);
  if (tail > 0) {
    std::memcpy(carry_, chunk.data() + chunk.size() - tail, tail);
    carry_len_ = tail;
  }
}

void ItemwiseKernel::save_carry(Checkpoint& ck) const {
  ck.set_i64("itemwise.consumed", static_cast<std::int64_t>(consumed_));
  ck.set_blob("itemwise.carry",
              std::vector<std::uint8_t>(carry_, carry_ + carry_len_));
}

Status ItemwiseKernel::load_carry(const Checkpoint& ck) {
  if (!ck.has_i64("itemwise.consumed") || ck.get_blob("itemwise.carry") == nullptr) {
    return error(ErrorCode::kInvalidArgument, "checkpoint missing itemwise state");
  }
  consumed_ = static_cast<Bytes>(ck.get_i64("itemwise.consumed"));
  const auto& carry = *ck.get_blob("itemwise.carry");
  if (carry.size() >= sizeof(double)) {
    return error(ErrorCode::kInvalidArgument, "checkpoint carry too large");
  }
  if (!carry.empty()) std::memcpy(carry_, carry.data(), carry.size());
  carry_len_ = carry.size();
  return Status::ok();
}

}  // namespace dosas::kernels
