// thread_pool.hpp — fixed-size worker pool.
//
// Storage servers in the real runtime run their kernels on a pool sized to
// the node's core count (2 in the paper's testbed), which is what makes the
// contention the paper studies *real* in our integration tests: queueing a
// fifth kernel behind two busy cores is observable behaviour, not a model.
//
// Workers never die: a task that throws is caught, counted, and reported
// through the optional error callback. Before this, one throwing kernel
// would propagate out of the worker thread and std::terminate the whole
// storage node — the opposite of the graceful degradation the paper's
// interrupt/demote machinery promises.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/ring.hpp"

namespace dosas {

class ThreadPool {
 public:
  /// Invoked (from the worker thread) with the exception a task leaked.
  /// Must not throw. May be null.
  using ErrorCallback = std::function<void(std::exception_ptr)>;

  /// `queue_capacity` bounds the dispatch ring; a submit against a full
  /// ring blocks (through the Clock seam) until a worker drains a slot —
  /// real backpressure instead of an unbounded queue.
  explicit ThreadPool(std::size_t threads, ErrorCallback on_error = nullptr,
                      std::size_t queue_capacity = 4096)
      : tasks_(queue_capacity), on_error_(std::move(on_error)) {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.push_back(clock().spawn([this] { run(); }, "pool worker " + std::to_string(i)));
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { shutdown(); }

  /// Enqueue work. Returns false after shutdown() — callers that ignore
  /// this leave their request unanswered forever (see StorageServer).
  bool submit(std::function<void()> task) { return tasks_.send(std::move(task)); }

  std::size_t thread_count() const { return workers_.size(); }

  /// Tasks whose exceptions were caught by the pool (monotonic).
  std::uint64_t task_exceptions() const {
    return task_exceptions_.load(std::memory_order_relaxed);
  }

  /// Contention counters of the lock-free dispatch ring (CAS retries,
  /// park/wake trylock probe). Snapshot; publish explicitly if desired.
  RingStats ring_stats() const { return tasks_.stats(); }

  /// Stop accepting work, drain the queue, join all workers. Idempotent.
  void shutdown() {
    tasks_.close();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

 private:
  void run() {
    // Workers are clock participants (fibers under a VirtualClock, spawned
    // at pool construction — install any override first): an idle worker
    // parked in receive() is quiescent, so virtual time can advance past it.
    while (auto task = tasks_.receive()) {
      try {
        (*task)();
      } catch (...) {
        task_exceptions_.fetch_add(1, std::memory_order_relaxed);
        if (on_error_) on_error_(std::current_exception());
      }
    }
  }

  // The dispatch hop every active request crosses: lock-free ring on the
  // fast path, Clock-seam parking when idle/full (see ring.hpp).
  Ring<std::function<void()>> tasks_;
  ErrorCallback on_error_;
  std::atomic<std::uint64_t> task_exceptions_{0};
  std::vector<Participant> workers_;
};

}  // namespace dosas
