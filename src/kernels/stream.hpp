// stream.hpp — the one chunk-streaming loop shared by every path that
// pumps an object extent through a kernel.
//
// Three call sites used to hand-roll this loop — the storage server's
// runtime path (run_kernel), the client's local-completion path
// (finish_leg_locally), and the client's whole-file TS path (local_kernel) —
// and they drifted once already on empty-chunk handling. stream_extent()
// is the single definition of the contract:
//
//   * a failed read fails the stream (status propagates);
//   * an empty chunk ends the stream (end of data);
//   * a short chunk is consumed, then ends the stream (end of object);
//   * the optional stop check runs before every read — the interruption
//     hook, evaluated at chunk granularity exactly as paper §III-C's
//     interruption-check interval prescribes.
#pragma once

#include <functional>

#include "common/arena.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "kernels/kernel.hpp"

namespace dosas::kernels {

/// How a stream_extent() call ended (when it did not fail).
struct StreamResult {
  Bytes processed = 0;   ///< bytes fed to the kernel by this call
  Bytes position = 0;    ///< next unread offset (resume point when stopped)
  bool stopped = false;  ///< the stop check ended the stream early
};

/// Produce the chunk at [pos, pos+len); may return short or empty at the
/// end of the data. May throw (the server's fault-injection path does);
/// exceptions propagate to the caller. Returns a ref-counted BufferRef so
/// the PFS data server's view of the object version flows straight into
/// Kernel::consume without an owning copy (locally produced bytes cross
/// via BufferRef::adopt).
using ChunkReader = std::function<Result<BufferRef>(Bytes pos, Bytes len)>;

/// Polled before each read; returning true stops the stream (the kernel
/// keeps its state, `position` is the resume offset). May be null.
using StopCheck = std::function<bool()>;

/// Invoked after each consumed chunk with (chunk bytes, total processed
/// this call). May be null.
using ProgressFn = std::function<void(Bytes chunk_bytes, Bytes total_processed)>;

/// Stream [from, end) through `kernel` in `chunk_size` pieces.
Result<StreamResult> stream_extent(Kernel& kernel, Bytes from, Bytes end, Bytes chunk_size,
                                   const ChunkReader& read, const StopCheck& stop = nullptr,
                                   const ProgressFn& progress = nullptr);

/// Restore `kernel` from the encoded `checkpoint` of a run over the extent
/// [start, end) that stopped at `resume_from`, the offset the stream then
/// continues from. Checked in order: the checksum (kCorrupted), the
/// kernel's declared fields, and the offset — kInvalidArgument unless
/// `resume_from` lies in [start, end] and `resume_from - start` equals the
/// bytes the restored kernel has consumed. On a refusal the kernel is reset.
Status resume(Kernel& kernel, std::span<const std::uint8_t> checkpoint, Bytes start, Bytes end,
              Bytes resume_from);

}  // namespace dosas::kernels
