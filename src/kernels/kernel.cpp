#include "kernels/kernel.hpp"

#include <algorithm>
#include <cstring>

#include "common/arena.hpp"

namespace dosas::kernels {

void ItemwiseKernel::consume(std::span<const std::uint8_t> chunk) {
  consumed_ += chunk.size();

  // Complete a partial item carried from the previous chunk.
  if (!carry_.empty()) {
    const std::size_t take = std::min(sizeof(double) - carry_.size(), chunk.size());
    carry_.insert(carry_.end(), chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(take));
    chunk = chunk.subspan(take);
    if (carry_.size() < sizeof(double)) return;  // chunk exhausted without completing the item
    double item;
    std::memcpy(&item, carry_.data(), sizeof(double));
    process_items(std::span(&item, 1));
    carry_.clear();
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
  carry_.assign(chunk.end() - static_cast<std::ptrdiff_t>(chunk.size() % sizeof(double)),
                chunk.end());
}

}  // namespace dosas::kernels
