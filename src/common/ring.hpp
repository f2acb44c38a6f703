// ring.hpp — bounded lock-free MPMC ring with a Clock-seam parking fallback.
//
// DOSAS's argument is about where *storage* contention lives; the runtime
// must not manufacture its own. A mutex-guarded queue takes a lock on
// every hop, so the storage-server dispatch queue and the scale-harness
// completer queues would serialize on locks the paper never modeled. Ring
// is the repo's one queue primitive, lock-free on those hot hops:
//
//   * fast path: a Vyukov-style bounded MPMC ring — per-slot sequence
//     numbers, one CAS on enqueue_pos_/dequeue_pos_ per operation, no
//     mutex, no syscall;
//   * slow path: after a bounded spin (one attempt under a VirtualClock,
//     where nothing else runs during a spin), producers/consumers park on
//     a condition variable *through the Clock seam* (clock.hpp), so a
//     worker blocked in receive() counts as quiescent under a VirtualClock
//     and DST bit-identity survives the swap;
//   * close(): sends fail after close, and any send() that returned true
//     is guaranteed to be drained by receivers
//     (a producers-in-flight count lets receivers distinguish "drained"
//     from "a producer is mid-commit");
//   * SPSC specialization: Ring<T, RingKind::kSpsc> (alias SpscRing<T>)
//     drops the cursor CAS entirely — with one producer owning
//     enqueue_pos_ and one consumer owning dequeue_pos_, a plain store
//     claims the slot. Same parking, same close-then-drain contract,
//     same stats shape; the CAS-retry counters simply stay at zero. Use
//     it ONLY where single-producer/single-consumer is provable (e.g.
//     the scale harness's per-completer queues: one submitter, one
//     completer each).
//
// Instrumented per the temporal-slab contention template (SNIPPETS.md
// Snippet 1): CAS retry counters with attempt denominators, and a
// trylock-probe on the wake path that splits lock acquisitions into
// fast vs contended. Stats are exposed only as a snapshot struct
// (RingStats), read directly by perfbench and `dosas_ctl runtime`; they are
// schedule-dependent, so they never enter the metrics registry, whose
// full text the DST fingerprints compare.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <utility>

#include "common/clock.hpp"
#include "common/queue_poll.hpp"

// ThreadSanitizer does not model std::atomic_thread_fence (GCC warns
// [-Wtsan] and the runtime ignores it), so the Dekker wake protocol
// below would look unsynchronized to it. Under TSan we substitute a
// seq_cst RMW on a shared dummy atomic: two RMWs on one location are
// ordered by its modification order, and the later one acquires every
// write that happened before the earlier one — the same pairing the
// fence provides, expressed in operations the sanitizer models.
#if defined(__SANITIZE_THREAD__)
#define DOSAS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DOSAS_TSAN 1
#endif
#endif
#ifndef DOSAS_TSAN
#define DOSAS_TSAN 0
#endif

namespace dosas {

/// Snapshot of a Ring's contention counters. `*_attempts` are the
/// denominators for the CAS retry rates; `lock_fast`/`lock_contended` is
/// the trylock probe on the parking wake path; `*_parks` count how often
/// the lock-free fast path gave up and blocked through the Clock seam.
struct RingStats {
  std::uint64_t push_attempts = 0;
  std::uint64_t push_cas_retries = 0;
  std::uint64_t pop_attempts = 0;
  std::uint64_t pop_cas_retries = 0;
  std::uint64_t lock_fast = 0;
  std::uint64_t lock_contended = 0;
  std::uint64_t producer_parks = 0;
  std::uint64_t consumer_parks = 0;

  RingStats& operator+=(const RingStats& o) {
    push_attempts += o.push_attempts;
    push_cas_retries += o.push_cas_retries;
    pop_attempts += o.pop_attempts;
    pop_cas_retries += o.pop_cas_retries;
    lock_fast += o.lock_fast;
    lock_contended += o.lock_contended;
    producer_parks += o.producer_parks;
    consumer_parks += o.consumer_parks;
    return *this;
  }
};

/// Compile-time concurrency policy for Ring. kMpmc (default) CASes the
/// enqueue/dequeue cursors; kSpsc assumes exactly one producer thread and
/// exactly one consumer thread and claims slots with plain stores. The
/// parking, close-then-drain, and poll contracts are identical — kSpsc is
/// purely a fast path for queues whose SPSC shape is provable.
enum class RingKind : std::uint8_t { kMpmc, kSpsc };

template <typename T, RingKind K = RingKind::kMpmc>
class Ring {
 public:
  /// Capacity is rounded up to a power of two (minimum 2). A Ring is
  /// always bounded; pick the capacity so steady-state sends never park
  /// (an unbounded queue just hides the backpressure somewhere worse).
  explicit Ring(std::size_t capacity)
      : mask_(round_up_pow2(capacity < 2 ? 2 : capacity) - 1),
        slots_(std::make_unique<Slot[]>(mask_ + 1)) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  ~Ring() {
    // Destroy any items still committed in slots (no concurrency here).
    std::optional<T> out;
    while (pop_slot(out) == PopResult::kItem) out.reset();
  }

  /// Blocks while the ring is full. Returns false if the ring was closed
  /// (the item is dropped). A true return guarantees the item will be
  /// drained by some receiver before receivers see kClosed/nullopt.
  bool send(T item) {
    producers_inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (closed_.load(std::memory_order_seq_cst)) {
      exit_producer_on_close();
      return false;
    }
    bool sent = false;
    switch (spin_push(item)) {
      case PushResult::kOk:
        sent = true;
        break;
      case PushResult::kClosed:
        exit_producer_on_close();
        return false;
      case PushResult::kFull: {
        std::unique_lock lock(full_mu_);
        producer_parks_.fetch_add(1, std::memory_order_relaxed);
        waiting_producers_.fetch_add(1, std::memory_order_relaxed);
        dekker_fence();
        clock().wait(not_full_, lock, [&] {
          switch (push_slot(item)) {
            case PushResult::kOk:
              sent = true;
              return true;
            case PushResult::kClosed:
              return true;
            case PushResult::kFull:
              return false;
          }
          return false;
        });
        waiting_producers_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
    }
    if (!sent) {
      exit_producer_on_close();
      return false;
    }
    producers_inflight_.fetch_sub(1, std::memory_order_release);
    wake_consumers();
    return true;
  }

  /// Non-blocking send; returns false if full or closed.
  bool try_send(T item) {
    producers_inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (closed_.load(std::memory_order_seq_cst)) {
      exit_producer_on_close();
      return false;
    }
    const bool ok = push_slot(item) == PushResult::kOk;
    if (!ok) {
      exit_producer_on_close();
      return false;
    }
    producers_inflight_.fetch_sub(1, std::memory_order_release);
    wake_consumers();
    return true;
  }

  /// Blocks until an item is available or the ring is closed *and*
  /// drained; nullopt means closed-and-empty.
  std::optional<T> receive() {
    std::optional<T> out;
    const int spins = spin_limit();
    for (int i = 0; i < spins; ++i) {
      if (i > 0) cpu_relax();
      const QueuePoll r = poll_once(out);
      if (r == QueuePoll::kItem) {
        wake_producers();
        return out;
      }
      if (r == QueuePoll::kClosed) return std::nullopt;
    }
    QueuePoll state = QueuePoll::kEmpty;
    {
      std::unique_lock lock(empty_mu_);
      consumer_parks_.fetch_add(1, std::memory_order_relaxed);
      waiting_consumers_.fetch_add(1, std::memory_order_relaxed);
      dekker_fence();
      clock().wait(not_empty_, lock, [&] {
        state = poll_once(out);
        return state != QueuePoll::kEmpty;
      });
      waiting_consumers_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (state == QueuePoll::kClosed) return std::nullopt;
    wake_producers();
    return out;
  }

  /// Non-blocking tri-state receive (the QueuePoll protocol):
  /// kItem fills `out`; kEmpty means open-but-nothing-now (including a
  /// producer mid-commit); kClosed means closed and fully drained.
  QueuePoll poll(std::optional<T>& out) {
    out.reset();
    const QueuePoll r = poll_once(out);
    if (r == QueuePoll::kItem) wake_producers();
    return r;
  }

  /// Non-blocking receive; nullopt conflates empty with closed (use
  /// poll() in loops that must terminate).
  std::optional<T> try_receive() {
    std::optional<T> out;
    poll(out);
    return out;
  }

  /// After close(), sends fail and receivers drain remaining items then
  /// get nullopt. Idempotent.
  void close() {
    closed_.store(true, std::memory_order_seq_cst);
    lock_bridge(empty_mu_);
    clock().wake_all(not_empty_);
    lock_bridge(full_mu_);
    clock().wake_all(not_full_);
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate occupancy (racy by nature; exact when quiescent).
  std::size_t size() const {
    const std::size_t enq = enqueue_pos_.load(std::memory_order_acquire);
    const std::size_t deq = dequeue_pos_.load(std::memory_order_acquire);
    return enq >= deq ? enq - deq : 0;
  }

  std::size_t capacity() const { return mask_ + 1; }

  RingStats stats() const {
    RingStats s;
    s.push_attempts = push_attempts_.load(std::memory_order_relaxed);
    s.push_cas_retries = push_cas_retries_.load(std::memory_order_relaxed);
    s.pop_attempts = pop_attempts_.load(std::memory_order_relaxed);
    s.pop_cas_retries = pop_cas_retries_.load(std::memory_order_relaxed);
    s.lock_fast = lock_fast_.load(std::memory_order_relaxed);
    s.lock_contended = lock_contended_.load(std::memory_order_relaxed);
    s.producer_parks = producer_parks_.load(std::memory_order_relaxed);
    s.consumer_parks = consumer_parks_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Slot {
    std::atomic<std::size_t> seq;
    alignas(T) unsigned char storage[sizeof(T)];
    T* ptr() { return std::launder(reinterpret_cast<T*>(storage)); }
  };

  enum class PushResult { kOk, kFull, kClosed };
  enum class PopResult { kItem, kEmpty, kPending };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
  }

  /// One lock-free push attempt. kFull is a stable verdict for the
  /// current instant; kClosed is only reported when observed on entry.
  PushResult push_slot(T& item) {
    if (closed_.load(std::memory_order_seq_cst)) return PushResult::kClosed;
    push_attempts_.fetch_add(1, std::memory_order_relaxed);
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        bool claimed;
        if constexpr (K == RingKind::kSpsc) {
          // Single producer: nobody else can claim this slot, so a plain
          // store advances the cursor (still atomic — the consumer reads
          // it in pop_slot's empty check and size()).
          enqueue_pos_.store(pos + 1, std::memory_order_relaxed);
          claimed = true;
        } else {
          claimed = enqueue_pos_.compare_exchange_weak(
              pos, pos + 1, std::memory_order_relaxed);
        }
        if (claimed) {
          ::new (static_cast<void*>(slot.storage)) T(std::move(item));
          slot.seq.store(pos + 1, std::memory_order_release);
          return PushResult::kOk;
        }
        push_cas_retries_.fetch_add(1, std::memory_order_relaxed);
      } else if (dif < 0) {
        return PushResult::kFull;
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// One lock-free pop attempt. kEmpty means *no committed or claimed
  /// item exists* (enqueue_pos_ == dequeue_pos_); kPending means a
  /// producer has claimed a slot but not yet published it.
  PopResult pop_slot(std::optional<T>& out) {
    pop_attempts_.fetch_add(1, std::memory_order_relaxed);
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        bool claimed;
        if constexpr (K == RingKind::kSpsc) {
          dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
          claimed = true;
        } else {
          claimed = dequeue_pos_.compare_exchange_weak(
              pos, pos + 1, std::memory_order_relaxed);
        }
        if (claimed) {
          out.emplace(std::move(*slot.ptr()));
          slot.ptr()->~T();
          slot.seq.store(pos + mask_ + 1, std::memory_order_release);
          return PopResult::kItem;
        }
        pop_cas_retries_.fetch_add(1, std::memory_order_relaxed);
      } else if (dif < 0) {
        if (enqueue_pos_.load(std::memory_order_acquire) == pos) {
          return PopResult::kEmpty;
        }
        return PopResult::kPending;
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  PushResult spin_push(T& item) {
    const int spins = spin_limit();
    for (int i = 0; i < spins; ++i) {
      if (i > 0) cpu_relax();
      const PushResult r = push_slot(item);
      if (r != PushResult::kFull) return r;
    }
    return PushResult::kFull;
  }

  /// Lock-free attempts before parking. Under a VirtualClock the other
  /// participants are fibers on this thread and cannot run during a spin,
  /// so one attempt decides.
  static int spin_limit() { return clock().is_virtual() ? 1 : kSpins; }

  /// One tri-state attempt: kItem fills `out`; kClosed is only reported
  /// when the ring is closed, no producer is between its entry check and
  /// its commit, and a *final* pop (ordered after the inflight read —
  /// the acquire load pairs with the release decrement that follows a
  /// commit) still sees nothing. That ordering is what guarantees every
  /// send() that returned true is drained before anyone sees kClosed.
  QueuePoll poll_once(std::optional<T>& out) {
    switch (pop_slot(out)) {
      case PopResult::kItem:
        return QueuePoll::kItem;
      case PopResult::kPending:
        return QueuePoll::kEmpty;
      case PopResult::kEmpty:
        break;
    }
    if (!closed_.load(std::memory_order_seq_cst)) return QueuePoll::kEmpty;
    if (producers_inflight_.load(std::memory_order_acquire) != 0) {
      return QueuePoll::kEmpty;
    }
    switch (pop_slot(out)) {
      case PopResult::kItem:
        return QueuePoll::kItem;
      case PopResult::kPending:
        return QueuePoll::kEmpty;
      case PopResult::kEmpty:
        return QueuePoll::kClosed;
    }
    return QueuePoll::kEmpty;
  }

  /// Producer observed closed after registering in-flight: deregister
  /// and wake consumers so their drained_closed() re-check can pass.
  void exit_producer_on_close() {
    producers_inflight_.fetch_sub(1, std::memory_order_release);
    dekker_fence();
    if (waiting_consumers_.load(std::memory_order_relaxed) == 0) return;
    lock_bridge(empty_mu_);
    clock().wake_all(not_empty_);
  }

  /// Dekker-style wake: the seq-store that published the item (or the
  /// pop that freed a slot) is ordered before the waiting-count read by
  /// a seq_cst fence; the waiter orders its count increment before its
  /// failed pop/push attempt with the matching fence. The lock bridge
  /// closes the window between a waiter's failed predicate and its
  /// actual block on the condition variable.
  void wake_consumers() {
    dekker_fence();
    if (waiting_consumers_.load(std::memory_order_relaxed) == 0) return;
    lock_bridge(empty_mu_);
    clock().wake_one(not_empty_);
  }

  void wake_producers() {
    dekker_fence();
    if (waiting_producers_.load(std::memory_order_relaxed) == 0) return;
    lock_bridge(full_mu_);
    clock().wake_one(not_full_);
  }

  /// The Dekker pairing point: a seq_cst fence normally; under TSan a
  /// seq_cst RMW on `fence_sync_` (see the DOSAS_TSAN note at the top
  /// of this header). Every waiter/waker pair goes through this same
  /// member, so the RMW chain orders them exactly as the fence would.
  void dekker_fence() {
#if DOSAS_TSAN
    fence_sync_.fetch_add(1, std::memory_order_seq_cst);
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }

  /// Acquire-and-release the parking mutex (never held across the wake
  /// itself). The trylock probe is the Snippet-1 contention split: a
  /// failed try_lock means a waiter was inside its predicate window.
  void lock_bridge(std::mutex& mu) {
    if (mu.try_lock()) {
      lock_fast_.fetch_add(1, std::memory_order_relaxed);
    } else {
      lock_contended_.fetch_add(1, std::memory_order_relaxed);
      mu.lock();
    }
    mu.unlock();
  }

  static constexpr int kSpins = 64;

  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;

  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};

  std::atomic<bool> closed_{false};
  std::atomic<std::int64_t> producers_inflight_{0};

  // Parking seam: producers park on full_mu_/not_full_, consumers on
  // empty_mu_/not_empty_ — separate domains so a parked producer whose
  // predicate succeeds never needs its own mutex to wake the other side.
  std::mutex empty_mu_;
  std::mutex full_mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::atomic<std::int32_t> waiting_consumers_{0};
  std::atomic<std::int32_t> waiting_producers_{0};

  // Dekker pairing point under TSan (see dekker_fence()); unused — at
  // zero runtime cost — in normal builds, which use the plain fence.
  std::atomic<std::uint32_t> fence_sync_{0};

  // Contention counters (relaxed; snapshot via stats()).
  std::atomic<std::uint64_t> push_attempts_{0};
  std::atomic<std::uint64_t> push_cas_retries_{0};
  std::atomic<std::uint64_t> pop_attempts_{0};
  std::atomic<std::uint64_t> pop_cas_retries_{0};
  std::atomic<std::uint64_t> lock_fast_{0};
  std::atomic<std::uint64_t> lock_contended_{0};
  std::atomic<std::uint64_t> producer_parks_{0};
  std::atomic<std::uint64_t> consumer_parks_{0};
};

/// The single-producer/single-consumer specialization. Same API and
/// contracts as Ring<T>; CAS-free cursor claims (see RingKind::kSpsc).
template <typename T>
using SpscRing = Ring<T, RingKind::kSpsc>;

}  // namespace dosas
