#include "kernels/stream.hpp"

#include <algorithm>

namespace dosas::kernels {

Result<StreamResult> stream_extent(Kernel& kernel, Bytes from, Bytes end, Bytes chunk_size,
                                   const ChunkReader& read, const StopCheck& stop,
                                   const ProgressFn& progress) {
  StreamResult r;
  r.position = from;
  while (r.position < end) {
    if (stop && stop()) {
      r.stopped = true;
      return r;
    }
    Bytes n = std::min<Bytes>(chunk_size, end - r.position);
    if (r.position + n < end) {
      // Keep non-final chunk boundaries on whole-item (8-byte) multiples:
      // an item-aligned stream then never splits an item across chunks, so
      // ItemwiseKernel's carry stays empty and every aligned slab is
      // consumed in place instead of restaging around a ragged head.
      const Bytes ragged = n % sizeof(double);
      if (ragged != 0 && n > ragged) n -= ragged;
    }
    auto chunk = read(r.position, n);
    if (!chunk.is_ok()) return chunk.status();
    if (chunk.value().empty()) break;  // end of data
    kernel.consume(chunk.value().span());
    r.processed += chunk.value().size();
    r.position += chunk.value().size();
    if (progress) progress(chunk.value().size(), r.processed);
    if (chunk.value().size() < n) break;  // short read: end of object
  }
  return r;
}

Status resume(Kernel& kernel, std::span<const std::uint8_t> checkpoint, Bytes start, Bytes end,
              Bytes resume_from) {
  auto decoded = Checkpoint::decode(checkpoint);
  Status st = decoded.is_ok() ? kernel.restore(decoded.value()) : decoded.status();
  if (st.is_ok() &&
      (resume_from < start || resume_from > end || resume_from - start != kernel.consumed())) {
    st = error(ErrorCode::kInvalidArgument,
               kernel.name() + ": resume offset does not match the checkpoint's progress");
  }
  if (!st.is_ok()) kernel.reset();
  return st;
}

}  // namespace dosas::kernels
