// queue_poll.hpp — the tri-state poll protocol of the in-process queue
// (Ring, SpscRing). Its own header so callers that only name the enum
// need not pull in the ring.
#pragma once

#include <cstdint>

namespace dosas {

/// Tri-state result of a non-blocking queue poll. Distinguishes "nothing
/// right now" from "closed and fully drained" so pollers can terminate —
/// a plain optional cannot (nullopt is ambiguous between the two).
enum class QueuePoll : std::uint8_t {
  kItem,    // out-param holds a dequeued item
  kEmpty,   // nothing available, but the queue is still open
  kClosed,  // closed and drained: no item will ever arrive again
};

}  // namespace dosas
