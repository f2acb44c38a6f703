// trace.hpp — lightweight scoped-event tracer with Chrome trace_event JSON
// export (loadable in chrome://tracing and https://ui.perfetto.dev).
//
// Two timelines share one trace file, separated by pid:
//   * pid 1 ("dosas runtime"): wall-clock events from the real runtime —
//     kernel executions, CE policy evaluations, client-side completions;
//   * pid 2 ("dosas sim, virtual time"): virtual-time counter samples from
//     the discrete-event models (per-link utilization), with virtual
//     seconds rendered as microseconds.
//
// Like the metrics registry, the tracer is disabled by default and every
// emission gates on one relaxed atomic load; ScopedTrace is a no-op when
// tracing is off, so instrumented hot paths cost nothing in tier-1 runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace dosas::obs {

/// Causal identity of one request, carried through rpc::Envelope and the
/// interceptor chain so spans emitted on different threads (client issue,
/// transport, server queue, kernel) join into a single tree.
///
/// Span ids are *derived*, never allocated: child(salt) hashes the parent
/// span id with a site-specific salt ("queue", "kernel", "retry1", ...), so
/// the ids a request produces depend only on its root trace id and the path
/// it took — not on which worker thread got there first. That keeps the ids
/// safe to include in DST canonical-trace fingerprints.
struct TraceContext {
  std::uint64_t trace_id = 0;        ///< one per client-visible request leg
  std::uint64_t span_id = 0;         ///< this span
  std::uint64_t parent_span_id = 0;  ///< 0 = root

  bool valid() const { return trace_id != 0; }

  /// Deterministically derive a child context at a named site.
  TraceContext child(const std::string& salt) const;
};

struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';        ///< 'X' complete, 'i' instant, 'C' counter, 's'/'f' flow
  double ts_us = 0.0;   ///< µs since the tracer epoch (or virtual µs)
  double dur_us = 0.0;  ///< 'X' only
  std::uint32_t pid = 1;
  std::uint32_t tid = 0;  ///< the emitting participant's Clock::lane()
  double value = 0.0;  ///< 'C' only: the counter sample
  std::uint64_t flow_id = 0;         ///< 's'/'f' only: binds the flow arrow
  std::uint64_t trace_id = 0;        ///< causal context (0 = none)
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

class Tracer {
 public:
  static constexpr std::uint32_t kWallPid = 1;  ///< wall-clock runtime events
  static constexpr std::uint32_t kSimPid = 2;   ///< virtual-time simulator events

  /// The process-wide tracer every instrumented subsystem emits to.
  static Tracer& global();

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since this tracer's epoch, on the injected clock
  /// (common/clock.hpp) — virtual µs under a VirtualClock. clear() resets
  /// the epoch to the current clock's now.
  double now_us() const;

  /// Allocate a fresh root context (new trace id, root span id derived from
  /// it). Ids come from a monotonically increasing counter that clear()
  /// resets, so seeded runs allocate identical ids — callers must only
  /// allocate roots from deterministically ordered sites (the client issue
  /// path), never from racing worker threads.
  TraceContext new_root();

  /// Record a complete ('X') event with explicit timing.
  void complete(std::string name, std::string cat, double ts_us, double dur_us);
  /// Context-carrying variant: the span's ids are emitted as trace args and
  /// joined into the causal tree by tests/viewers.
  void complete(std::string name, std::string cat, double ts_us, double dur_us,
                const TraceContext& ctx);
  /// Record an instant ('i') event at the current wall time.
  void instant(std::string name, std::string cat);
  /// Context-carrying instant.
  void instant(std::string name, std::string cat, const TraceContext& ctx);
  /// Flow events ('s' start / 'f' finish, bound by `id`) draw the arrow that
  /// links a request's spans across threads in the Chrome viewer. Emit the
  /// start on the producing thread and the finish on the consuming one with
  /// the same id (we use the envelope's span id).
  void flow_start(std::string name, std::string cat, std::uint64_t id,
                  const TraceContext& ctx);
  void flow_finish(std::string name, std::string cat, std::uint64_t id,
                   const TraceContext& ctx);
  /// Record a counter ('C') sample at the current wall time.
  void counter(std::string name, double value);
  /// Record a counter sample at an explicit timestamp — the virtual-time
  /// hook the simulator uses (pass sim-now seconds × 1e6 and kSimPid).
  void counter_at(std::string name, double value, double ts_us,
                  std::uint32_t pid = kSimPid);

  std::size_t event_count() const;

  /// Copy of the recorded events (determinism suites compare canonical
  /// projections of this across seeded runs).
  std::vector<TraceEvent> snapshot() const;

  /// Full Chrome trace_event JSON object ({"traceEvents":[...], ...}).
  std::string to_chrome_json() const;
  /// Write to_chrome_json() to `path`.
  Status write(const std::string& path) const;

  void clear();

 private:
  void push(TraceEvent e);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_trace_id_{1};  ///< reset by clear()
  /// clock().now() at construction / last clear(). Atomic: now_us() reads
  /// it lock-free from worker threads while clear() re-epochs it.
  std::atomic<Seconds> epoch_{0.0};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

inline bool tracing_enabled() { return Tracer::global().enabled(); }

/// RAII scope producing one complete event on the global tracer; measures
/// nothing and stores nothing while tracing is disabled.
class ScopedTrace {
 public:
  ScopedTrace(std::string name, std::string cat);
  /// Context-carrying scope: the resulting complete event joins the causal
  /// tree identified by `ctx`.
  ScopedTrace(std::string name, std::string cat, const TraceContext& ctx);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  bool active_ = false;
  std::string name_;
  std::string cat_;
  double start_us_ = 0.0;
  TraceContext ctx_;
};

}  // namespace dosas::obs
