// row_window.hpp — the three-row window of the 3×3 stencil kernels.
//
// gaussian2d and sobel2d read rows of `width` doubles and evaluate each row
// that has both neighbours from (above, center, below). RowWindow holds all
// but the arithmetic: the consumed count, a partial row's bytes, the two
// previous rows, the row loop and the stream half of the declared state.
//
//   * A row whose start is 8-byte aligned is read in place from the chunk,
//     as every item-aligned chunk of a version slab is. Only a row that
//     straddles chunks, or a misaligned one, is staged into a row slot.
//   * No pointer into a chunk outlives consume(): before it returns, the
//     last two rows are copied into slots, as the chunk may be released.
//   * A restore refuses (kInvalidArgument) another width's state and row
//     state that does not fit the width: a `pending` blob of a whole row
//     or more, a `prev1`/`prev2` blob neither empty nor one row, or a
//     `rows_seen` that claims rows whose blobs are empty.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "common/units.hpp"
#include "kernels/fields.hpp"

namespace dosas::kernels {

class RowWindow {
 public:
  explicit RowWindow(std::size_t width) : width_(width), row_bytes_(width * sizeof(double)) {}

  std::size_t width() const { return width_; }
  Bytes consumed() const { return consumed_; }
  void reset() {
    consumed_ = pending_ = rows_seen_ = 0;
    prev1_ = prev2_ = nullptr;
  }

  /// Feed the next chunk: on_row(above, center, below) runs, in row order,
  /// for every row that completes a window. The pointers live for the call.
  template <class OnRow>
  void consume(std::span<const std::uint8_t> chunk, OnRow&& on_row) {
    consumed_ += chunk.size();
    if (chunk.empty()) return;
    if (!store_) store_ = std::make_unique<double[]>(3 * width_);  // on the first chunk only
    std::size_t pos = 0;
    if (pending_ > 0) {
      double* row = spare();
      pos = std::min(row_bytes_ - pending_, chunk.size());
      std::memcpy(reinterpret_cast<std::uint8_t*>(row) + pending_, chunk.data(), pos);
      if ((pending_ += pos) < row_bytes_) return;
      pending_ = 0;
      push(row, on_row);
    }
    for (; chunk.size() - pos >= row_bytes_; pos += row_bytes_) {
      const std::uint8_t* p = chunk.data() + pos;
      const bool aligned = reinterpret_cast<std::uintptr_t>(p) % alignof(double) == 0;
      push(aligned ? reinterpret_cast<const double*>(p) : stage(p), on_row);
    }
    if (in_chunk(prev1_)) prev1_ = stage(prev1_);
    if (in_chunk(prev2_)) prev2_ = stage(prev2_);
    hold(chunk.subspan(pos));
  }

  /// The stream half of a stencil kernel's declared state: config `width`,
  /// counters `consumed` and `rows_seen`, and the byte fields `pending`
  /// (shorter than one row) and `prev1`/`prev2` (one row, or empty).
  void fields(Fields& f) {
    f.config("width", width_);
    f.counter("consumed", consumed_);
    const std::size_t rows = f.counter("rows_seen", rows_seen_);
    const Bound row{.max = row_bytes_, .step = row_bytes_};
    const auto pending =
        f.bytes("pending", bytes_of(pending_ > 0 ? spare() : nullptr, pending_),
                {.max = row_bytes_ - 1});
    const auto prev1 = f.bytes("prev1", bytes_of(prev1_, row_bytes_), row);
    const auto prev2 = f.bytes("prev2", bytes_of(prev2_, row_bytes_), row);
    // The one cross-field rule: a previous row may be empty only while
    // fewer rows have been seen.
    f.require((!prev1.empty() || rows < 1) && (!prev2.empty() || rows < 2),
              "row state does not fit the rows seen");
    f.commit([this, pending, prev1, prev2] {
      if (!store_) store_ = std::make_unique<double[]>(3 * width_);
      prev1_ = prev2_ = nullptr;
      prev2_ = prev2.empty() ? nullptr : stage(prev2.data());
      prev1_ = prev1.empty() ? nullptr : stage(prev1.data());
      hold(pending);
    });
  }

 private:
  template <class OnRow>
  void push(const double* row, OnRow& on_row) {
    if (++rows_seen_ >= 3) on_row(prev2_, prev1_, row);
    prev2_ = prev1_;
    prev1_ = row;
  }
  /// The slot holding neither previous row: staged rows and the partial
  /// row's bytes go there.
  double* spare() const {
    double* slot = store_.get();
    while (slot == prev1_ || slot == prev2_) slot += width_;
    return slot;
  }
  const double* stage(const void* row) {
    double* slot = spare();
    std::memcpy(slot, row, row_bytes_);
    return slot;
  }
  static std::span<const std::uint8_t> bytes_of(const void* p, std::size_t n) {
    if (p == nullptr) return {};
    return {static_cast<const std::uint8_t*>(p), n};
  }
  bool in_chunk(const double* row) const {
    const double* s = store_.get();
    return row != nullptr && row != s && row != s + width_ && row != s + 2 * width_;
  }
  void hold(std::span<const std::uint8_t> partial) {
    pending_ = partial.size();
    if (pending_ > 0) std::memcpy(spare(), partial.data(), pending_);
  }

  std::size_t width_;
  std::size_t row_bytes_;
  Bytes consumed_ = 0;
  std::unique_ptr<double[]> store_;  // three row slots; prev1_/prev2_ may point here
  const double* prev1_ = nullptr;    // last complete row
  const double* prev2_ = nullptr;    // the row before it
  std::size_t pending_ = 0;          // bytes of the partial row, in the spare slot
  std::size_t rows_seen_ = 0;
};

}  // namespace dosas::kernels
