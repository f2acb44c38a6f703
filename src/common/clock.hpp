// clock.hpp — the single time seam for the whole runtime.
//
// The DOSAS control loop is all about timing: CE probe ticks, per-request
// deadlines, retry backoff, interrupt/resume latencies. Every component
// asks the injected Clock — never std::chrono or a raw condition variable
// (enforced by tools/check_clock.sh):
//
//   * Clock        — now()/sleep()/wait()/timed_wait()/wake_*() and
//                    spawn(), the one way a participant is started;
//   * WallClock    — the production clock: std::chrono::steady_clock with
//                    an epoch at process start, real sleeps, real waits,
//                    and spawn() starts a std::thread;
//   * VirtualClock — a deterministic-simulation-testing clock à la
//                    FoundationDB, run as a fiber scheduler on ONE OS
//                    thread (below).
//
// The virtual world. A VirtualClock belongs to the OS thread that
// constructs (and installs) it. Every participant it spawns is a stackful
// ucontext fiber on that thread; the thread's own context is the root
// participant. Exactly one participant runs at a time, and only a clock
// call switches:
//
//   * a blocking call (sleep, wait, timed_wait, joining a participant)
//     suspends the caller and switches straight to the next runnable
//     fiber — FIFO by when it became runnable, ties (several made
//     runnable by one wake or one deadline) by spawn order;
//   * wake_all()/wake_one() only mark the cv's waiters runnable (every
//     waiter: each re-checks its predicate); the caller keeps running;
//   * virtual time jumps to the earliest armed deadline only when nothing
//     is runnable (the quiescence rule, exact by construction) — seconds
//     of sleeping, backoff and deadlines collapse into microseconds, and
//     the timeline is a pure function of the program.
//
// The rules that follow from one OS thread:
//   * no foreign OS thread: a blocking call, wake or spawn on a
//     VirtualClock from any thread but its own aborts, naming the call —
//     start participants with clock().spawn(), never std::thread;
//   * no foreign mutex: a participant must not make a blocking clock call
//     while it holds a mutex other than the one it waits on (the next
//     participant to take it would block the whole thread); a wait that
//     cannot re-take its own mutex on wake-up aborts, naming the call;
//   * no busy-waiting on another participant: it cannot run until the
//     spinner makes a clock call;
//   * stacks are kFiberStackBytes, mmap'd with a PROT_NONE guard page
//     below them and never pre-touched (a fiber costs the pages it uses);
//     an exception escaping a fiber's function ends the process with a
//     message naming the fiber; switches carry the ASan and TSan fiber
//     annotations.
//
// Install the VirtualClock (ScopedClockOverride) BEFORE constructing the
// cluster, so its pool workers, probers and watchdog are spawned as
// fibers. With nothing spawned, a timed wait simply jumps virtual time to
// its own deadline; advance_by()/advance_to() model idle time by hand.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/units.hpp"

namespace dosas {

struct Fiber;  // a VirtualClock participant (clock.cpp)
class VirtualClock;

/// A participant started by Clock::spawn(): an OS thread under the
/// WallClock, a fiber under a VirtualClock. Move-only; like std::jthread
/// it joins on destruction (and before being assigned over) if still
/// joinable. Join it before the clock that spawned it goes away.
class Participant {
 public:
  Participant() = default;
  Participant(Participant&& other) noexcept;
  Participant& operator=(Participant&& other) noexcept;
  ~Participant();

  bool joinable() const { return thread_.joinable() || fiber_ != nullptr; }
  /// Block (through the spawning clock) until the participant finished.
  void join();

 private:
  friend class WallClock;
  friend class VirtualClock;

  std::thread thread_;              ///< WallClock
  VirtualClock* clock_ = nullptr;   ///< VirtualClock
  Fiber* fiber_ = nullptr;          ///< VirtualClock
};

/// The injectable time base. `deadline` arguments are absolute clock time
/// (seconds since the clock's epoch).
class Clock {
 public:
  /// Introspection snapshot (surfaced by `dosas_ctl runtime`).
  struct Status {
    bool virtual_time = false;
    Seconds now = 0.0;
    int participants = 0;    ///< live participants started by spawn()
    int blocked = 0;         ///< callers currently suspended in a clock call
    int timed_waiters = 0;   ///< armed (unexpired) deadlines
    std::uint64_t advances = 0;  ///< virtual-time jumps so far
  };

  using Predicate = std::function<bool()>;

  virtual ~Clock() = default;

  virtual bool is_virtual() const = 0;

  /// Seconds since this clock's epoch.
  virtual Seconds now() const = 0;

  /// Block the caller for `d` seconds of clock time.
  virtual void sleep(Seconds d) = 0;

  /// Wait on a caller-owned cv/lock until `pred` holds. Equivalent to
  /// `cv.wait(lock, pred)`: the caller holds `lock` and `pred` is
  /// evaluated under it.
  virtual void wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                    const Predicate& pred) = 0;

  /// Wait until `pred` holds or clock time reaches `deadline` (absolute).
  /// Returns the final `pred()` — false means the deadline expired first.
  virtual bool timed_wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                          Seconds deadline, const Predicate& pred) = 0;

  /// Notify waiters blocked through this clock on `cv`. Producers MUST use
  /// these instead of cv.notify_*() for any cv that clock waits block on:
  /// a VirtualClock's waiters are suspended fibers that only a clock wake
  /// makes runnable. Under a VirtualClock wake_one wakes every waiter on
  /// `cv` (each re-checks its predicate); under the wall clock these are
  /// plain notify_one/notify_all.
  virtual void wake_all(std::condition_variable& cv) = 0;
  virtual void wake_one(std::condition_variable& cv) = 0;

  /// Start `fn` as a participant named `name` (named in diagnostics): a
  /// std::thread under the WallClock, a fiber under a VirtualClock, where
  /// it is registered before it can run and first runs when the caller
  /// next blocks or yields.
  virtual Participant spawn(std::function<void()> fn, std::string name) = 0;

  /// A small id for the running participant, stable for its lifetime —
  /// the trace lane (Chrome `tid`) its events are drawn on. The WallClock
  /// numbers OS threads densely in first-use order; a VirtualClock numbers
  /// its fibers in spawn order (its own thread is 0).
  virtual std::uint32_t lane() const = 0;

  virtual Status status() const = 0;
};

/// Production clock: steady_clock with an epoch fixed at singleton
/// construction (process start, in practice). All methods are
/// thread-safe; sleep() and timed_wait() consume real time.
class WallClock final : public Clock {
 public:
  /// The process-wide wall clock (also the default global clock).
  static WallClock& instance();

  bool is_virtual() const override { return false; }
  Seconds now() const override;
  void sleep(Seconds d) override;
  void wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
            const Predicate& pred) override;
  bool timed_wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                  Seconds deadline, const Predicate& pred) override;
  void wake_all(std::condition_variable& cv) override;
  void wake_one(std::condition_variable& cv) override;
  Participant spawn(std::function<void()> fn, std::string name) override;
  std::uint32_t lane() const override;
  Status status() const override;

 private:
  WallClock();

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  int participants_ = 0;
  int blocked_ = 0;
  int timed_waiters_ = 0;
};

/// Deterministic virtual-time clock and fiber scheduler (see the header
/// comment). Starts at now() == 0. Time advances only (a) when nothing is
/// runnable and a deadline is armed — it jumps to the earliest — or (b)
/// through advance_by()/advance_to(). Every method except now() and
/// status() must be called on the clock's own OS thread.
class VirtualClock final : public Clock {
 public:
  /// Usable stack per fiber; a PROT_NONE guard page sits below it.
  static constexpr std::size_t kFiberStackBytes = 256 * 1024;

  VirtualClock();
  ~VirtualClock() override;

  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  bool is_virtual() const override { return true; }
  Seconds now() const override { return now_; }
  void sleep(Seconds d) override;
  void wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
            const Predicate& pred) override;
  bool timed_wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                  Seconds deadline, const Predicate& pred) override;
  void wake_all(std::condition_variable& cv) override;
  void wake_one(std::condition_variable& cv) override;
  Participant spawn(std::function<void()> fn, std::string name) override;
  std::uint32_t lane() const override;
  Status status() const override;

  /// Manually move virtual time forward (models idle time). Deadlines the
  /// jump crosses fire: their waiters become runnable.
  void advance_by(Seconds dt);
  void advance_to(Seconds t);

  /// Let every participant that is runnable now run until it blocks
  /// before the caller continues. Virtual time does not move.
  void yield();

 private:
  friend class Participant;

  /// makecontext entry: the Fiber pointer arrives split into two ints.
  static void fiber_main(unsigned lo, unsigned hi);

  void join(Fiber* f);
  void check_owner(const char* call) const;
  /// Suspend the caller on `cv` (and on `deadline` if timed), releasing
  /// `lock` while suspended and re-taking it before returning.
  void park(std::condition_variable& cv, std::unique_lock<std::mutex>& lock, bool timed,
            Seconds deadline, const char* call);
  void arm(Fiber* f, Seconds deadline);
  /// Suspend the current participant (already registered on whatever
  /// will wake it) until it is made runnable and scheduled again.
  void block(const char* call);
  void make_runnable(Fiber* f);
  void fire_crossed();
  /// The next participant to run: the run queue's head, advancing
  /// virtual time first if nothing is runnable.
  Fiber* next_runnable();
  void switch_to(Fiber* to);
  [[noreturn]] void exit_current();

  std::thread::id owner_;
  Seconds now_ = 0.0;
  std::uint64_t advances_ = 0;
  std::uint64_t next_id_ = 1;
  int blocked_ = 0;
  std::unique_ptr<Fiber> root_;  ///< the owning thread's own context
  Fiber* current_ = nullptr;
  std::map<std::uint64_t, std::unique_ptr<Fiber>> fibers_;  ///< spawned, not yet joined
  std::deque<Fiber*> runnable_;
  std::map<std::pair<Seconds, std::uint64_t>, Fiber*> timers_;  ///< (deadline, id)
  std::multimap<const std::condition_variable*, Fiber*> cv_waiters_;
};

/// The current global clock (WallClock unless overridden). This is the
/// seam every call site uses: `clock().now()`, `clock().sleep(d)`, ...
Clock& clock();

/// The wall clock, regardless of any override — for call sites that
/// measure *physical* machine speed (kernel calibration, bench harnesses,
/// DST real-vs-virtual speedup checks).
Clock& wall_clock();

/// Install `c` as the global clock (nullptr restores the wall clock).
/// Returns the previous override (nullptr if none). Must not be called
/// while participants spawned by the old clock are still alive.
Clock* set_global_clock(Clock* c);

/// Scoped clock override: installs in the constructor, restores the
/// previous clock in the destructor. Construct BEFORE the cluster /
/// transport / pools whose participants should be spawned by it.
class ScopedClockOverride {
 public:
  explicit ScopedClockOverride(Clock& c) : prev_(set_global_clock(&c)) {}
  ~ScopedClockOverride() { set_global_clock(prev_); }

  ScopedClockOverride(const ScopedClockOverride&) = delete;
  ScopedClockOverride& operator=(const ScopedClockOverride&) = delete;

 private:
  Clock* prev_;
};

}  // namespace dosas
