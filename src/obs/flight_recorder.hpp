// flight_recorder.hpp — always-on, lock-light crash-dump ring buffer.
//
// The owners' Stats counts, the metrics registry and the tracer answer
// "how is the system doing"; the flight recorder answers "what just
// happened, and to which request". It keeps the last few thousand
// structured events — request state transitions, retries, breaker trips,
// demotions, fault injections — in a fixed-size ring of trivially-copyable
// slots, recording whether or not metrics/tracing are enabled. When
// something goes wrong (a deadline miss, an injected node crash), the
// failing site calls trigger_dump() and the recent history lands on the
// configured sink (stderr by default), so DST failures and stress-test
// flakes are debuggable post-hoc.
//
// Concurrency: writers claim a slot with one fetch_add and publish it with
// a per-slot sequence number (seqlock style) — no mutex on the record path.
// Readers (dump/snapshot) may observe a slot being overwritten mid-copy;
// they detect the torn read via the sequence number and drop that slot.
// Timestamps come from dosas::clock(), so recordings made under a
// VirtualClock carry virtual seconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace dosas::obs {

enum class FlightEventKind : std::uint8_t {
  kStateTransition = 0,  ///< request queued / launched / completed / ...
  kRetry,                ///< transport retry attempt
  kBreakerTrip,          ///< circuit breaker opened or re-probed
  kDemotion,             ///< active request demoted to normal I/O
  kInterrupt,            ///< interrupt signalled to a running kernel
  kFaultInjected,        ///< src/fault fired one of its sites
  kDeadlineMiss,         ///< watchdog cancelled a request past its deadline
  kCancel,               ///< request cancelled
  kResume,               ///< client resumed from a checkpoint
  kCoalesce,             ///< request coalesced onto an identical in-flight one
  kHedge,                ///< straggler leg hedged with a local twin
};

const char* flight_event_kind_name(FlightEventKind kind);

/// One recorded event. Trivially copyable (fixed-size note) so slots can be
/// claimed and published without allocation.
struct FlightEvent {
  double ts = 0.0;               ///< clock().now() seconds at record time
  std::uint64_t trace_id = 0;    ///< causal trace, 0 if unknown
  std::uint64_t detail = 0;      ///< site-specific (request id, attempt, ...)
  std::uint32_t node = 0;        ///< server / node id, 0 if n/a
  FlightEventKind kind = FlightEventKind::kStateTransition;
  char note[48] = {0};           ///< short site label, truncated to fit
};
static_assert(std::is_trivially_copyable_v<FlightEvent>);

class FlightRecorder {
 public:
  static constexpr std::size_t kSlots = 4096;

  /// The process-wide recorder every instrumented subsystem records to.
  static FlightRecorder& global();

  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  /// Record one event. Lock-free fast path (one fetch_add + one copy).
  void record(FlightEventKind kind, std::uint64_t trace_id, std::uint32_t node,
              std::uint64_t detail, const char* note);

  /// Dump the recent history to the sink (stderr unless set_sink() was
  /// called), prefixed with `reason`. When `trace_id` is nonzero the dump
  /// also counts how many of the recorded events belong to that trace.
  /// Rate-limited: at most one dump per simulated second per reason site
  /// would still flood, so we cap total dumps per process (resettable via
  /// clear()) — repeated failures point at the same history anyway.
  void trigger_dump(const std::string& reason, std::uint64_t trace_id = 0);

  /// Consistent copy of the ring in record order (oldest first). Torn slots
  /// (being overwritten concurrently) are skipped.
  std::vector<FlightEvent> snapshot() const;

  /// Human-readable rendering of snapshot(), newest last. `only_trace_id`
  /// filters to one trace; `tail` > 0 keeps only the newest N lines.
  std::string dump_text(std::uint64_t only_trace_id = 0, std::size_t tail = 0) const;

  std::uint64_t events_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  std::uint64_t dumps_triggered() const {
    return dumps_.load(std::memory_order_relaxed);
  }

  /// Redirect dumps (tests capture them here). nullptr restores stderr.
  void set_sink(std::function<void(const std::string&)> sink);

  /// Forget everything and reset the dump rate limiter — tests only.
  void clear();

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< odd while being written
    FlightEvent event;
  };

  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dumps_{0};

  std::mutex sink_mu_;  ///< guards sink_ only (dump path, never record path)
  std::function<void(const std::string&)> sink_;
};

/// Free helper: record on the global recorder.
inline void flight_record(FlightEventKind kind, std::uint64_t trace_id,
                          std::uint32_t node, std::uint64_t detail,
                          const char* note) {
  FlightRecorder::global().record(kind, trace_id, node, detail, note);
}

}  // namespace dosas::obs
