#include "common/clock.hpp"

#include <sys/mman.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cxxabi.h>
#include <exception>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define DOSAS_ASAN_FIBERS 1
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#define DOSAS_TSAN_FIBERS 1
#include <sanitizer/tsan_interface.h>
#endif

namespace dosas {

namespace {

// Relative waits beyond this many seconds are effectively untimed; they
// would overflow steady_clock arithmetic anyway (~292 years in ns).
constexpr Seconds kForever = 3.0e8;  // ~9.5 years

constexpr std::size_t kGuardBytes = 4096;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "VirtualClock: %s\n", msg.c_str());
  std::fflush(stderr);
  std::abort();
}

// The thread's exception-handling globals (Itanium C++ ABI
// __cxa_eh_globals: the caught-exception stack and the uncaught count).
// Every fiber on the thread shares them, so each switch saves the outgoing
// fiber's and restores the incoming one's — a fiber suspended inside a
// catch handler or mid-unwind keeps its own exception state.
struct EhGlobals {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

EhGlobals* eh_globals() { return reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals()); }

}  // namespace

/// One VirtualClock participant; owns its stack mapping. The root Fiber
/// stands for the owning thread's own context (id 0, no stack of its own).
struct Fiber {
  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber() {
    if (mapping == nullptr) return;
#if DOSAS_TSAN_FIBERS
    __tsan_destroy_fiber(tsan);
#endif
    munmap(mapping, kGuardBytes + VirtualClock::kFiberStackBytes);
  }

  std::uint64_t id = 0;
  std::string name;
  std::function<void()> fn;
  VirtualClock* clock = nullptr;
  ucontext_t ctx{};
  void* mapping = nullptr;  ///< guard page + stack (null for the root)
  bool done = false;
  Fiber* joiner = nullptr;
  const char* blocked_in = nullptr;  ///< the clock call it is suspended in
  bool on_cv = false;
  std::multimap<const std::condition_variable*, Fiber*>::iterator cv_it;
  bool armed = false;
  std::map<std::pair<Seconds, std::uint64_t>, Fiber*>::iterator timer_it;
  EhGlobals eh;
#if DOSAS_ASAN_FIBERS
  void* fake_stack = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
#endif
#if DOSAS_TSAN_FIBERS
  void* tsan = nullptr;
#endif

  std::string label() const { return "fiber #" + std::to_string(id) + " '" + name + "'"; }
};

// ---------------------------------------------------------------------------
// Participant

Participant::Participant(Participant&& other) noexcept
    : thread_(std::move(other.thread_)),
      clock_(std::exchange(other.clock_, nullptr)),
      fiber_(std::exchange(other.fiber_, nullptr)) {}

Participant& Participant::operator=(Participant&& other) noexcept {
  if (this != &other) {
    if (joinable()) join();
    thread_ = std::move(other.thread_);
    clock_ = std::exchange(other.clock_, nullptr);
    fiber_ = std::exchange(other.fiber_, nullptr);
  }
  return *this;
}

Participant::~Participant() {
  if (joinable()) join();
}

void Participant::join() {
  if (fiber_ != nullptr) {
    clock_->join(std::exchange(fiber_, nullptr));
    clock_ = nullptr;
  } else {
    thread_.join();
  }
}

// ---------------------------------------------------------------------------
// WallClock

WallClock& WallClock::instance() {
  static WallClock wall;
  return wall;
}

WallClock::WallClock() : epoch_(std::chrono::steady_clock::now()) {}

Seconds WallClock::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void WallClock::sleep(Seconds d) {
  if (d <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

void WallClock::wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                     const Predicate& pred) {
  {
    std::lock_guard g(mu_);
    ++blocked_;
  }
  cv.wait(lock, pred);
  {
    std::lock_guard g(mu_);
    --blocked_;
  }
}

bool WallClock::timed_wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                           Seconds deadline, const Predicate& pred) {
  if (deadline - now() > kForever) {
    wait(cv, lock, pred);
    return true;
  }
  const auto when = epoch_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(deadline));
  {
    std::lock_guard g(mu_);
    ++blocked_;
    ++timed_waiters_;
  }
  const bool ok = cv.wait_until(lock, when, pred);
  {
    std::lock_guard g(mu_);
    --blocked_;
    --timed_waiters_;
  }
  return ok;
}

void WallClock::wake_all(std::condition_variable& cv) { cv.notify_all(); }

void WallClock::wake_one(std::condition_variable& cv) { cv.notify_one(); }

Participant WallClock::spawn(std::function<void()> fn, std::string /*name*/) {
  {
    std::lock_guard g(mu_);
    ++participants_;
  }
  Participant p;
  p.thread_ = std::thread([this, fn = std::move(fn)] {
    fn();
    std::lock_guard g(mu_);
    --participants_;
  });
  return p;
}

std::uint32_t WallClock::lane() const {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t lane = next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

Clock::Status WallClock::status() const {
  std::lock_guard g(mu_);
  Status s;
  s.virtual_time = false;
  s.now = std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  s.participants = participants_;
  s.blocked = blocked_;
  s.timed_waiters = timed_waiters_;
  return s;
}

// ---------------------------------------------------------------------------
// VirtualClock
//
// Scheduler invariants (all state is touched only on the owning thread):
//   * current_ is the one running participant; every other live fiber is
//     either in runnable_ (exactly once) or suspended in block() with
//     blocked_in set, registered on whatever can wake it: cv_waiters_
//     and/or timers_ (wait/timed_wait/sleep), or a joinee's `joiner`.
//   * make_runnable() is the only exit from suspension: it removes every
//     registration and appends the fiber to runnable_.
//   * Every armed deadline is later than now_ (an already-expired wait
//     never suspends), so each advance is a strict jump forward.

VirtualClock::VirtualClock()
    : owner_(std::this_thread::get_id()), root_(std::make_unique<Fiber>()) {
  root_->name = "clock thread";
  root_->clock = this;
#if DOSAS_TSAN_FIBERS
  root_->tsan = __tsan_get_current_fiber();
#endif
  current_ = root_.get();
}

VirtualClock::~VirtualClock() {
  if (!fibers_.empty()) {
    std::string names;
    for (const auto& [id, f] : fibers_) names += "\n  " + f->label();
    die("destroyed with " + std::to_string(fibers_.size()) +
        " participant(s) never joined:" + names);
  }
}

void VirtualClock::check_owner(const char* call) const {
  if (std::this_thread::get_id() != owner_) {
    die(std::string(call) +
        "() called from an OS thread that does not own this VirtualClock; under a "
        "VirtualClock every participant must be started with clock().spawn()");
  }
}

void VirtualClock::sleep(Seconds d) {
  check_owner("sleep");
  const Seconds deadline = now_ + d;
  if (deadline <= now_) return;  // d <= 0, or too small to move virtual time
  arm(current_, deadline);
  block("sleep");
}

void VirtualClock::wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                        const Predicate& pred) {
  if (pred()) return;
  check_owner("wait");
  do {
    park(cv, lock, /*timed=*/false, 0.0, "wait");
  } while (!pred());
}

bool VirtualClock::timed_wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                              Seconds deadline, const Predicate& pred) {
  if (pred()) return true;
  check_owner("timed_wait");
  while (now_ < deadline) {
    park(cv, lock, /*timed=*/true, deadline, "timed_wait");
    if (pred()) return true;
  }
  return false;  // expired; `pred` was just false and nothing else has run
}

void VirtualClock::park(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                        bool timed, Seconds deadline, const char* call) {
  Fiber* self = current_;
  self->cv_it = cv_waiters_.emplace(&cv, self);
  self->on_cv = true;
  if (timed) arm(self, deadline);
  lock.unlock();
  block(call);
  // Only a participant suspended while holding this mutex can own it now
  // (the no-foreign-mutex rule); blocking on it would hang the thread.
  if (!lock.try_lock()) {
    die(self->label() + " woke in " + call +
        "() but its mutex is held by a suspended participant: a blocking clock call was "
        "made while holding a mutex other than the one waited on");
  }
}

void VirtualClock::arm(Fiber* f, Seconds deadline) {
  f->timer_it = timers_.emplace(std::make_pair(deadline, f->id), f).first;
  f->armed = true;
}

void VirtualClock::block(const char* call) {
  Fiber* self = current_;
  self->blocked_in = call;
  ++blocked_;
  Fiber* next = next_runnable();
  if (next != self) switch_to(next);
}

void VirtualClock::make_runnable(Fiber* f) {
  if (f->on_cv) {
    cv_waiters_.erase(f->cv_it);
    f->on_cv = false;
  }
  if (f->armed) {
    timers_.erase(f->timer_it);
    f->armed = false;
  }
  f->blocked_in = nullptr;
  --blocked_;
  runnable_.push_back(f);
}

void VirtualClock::fire_crossed() {
  while (!timers_.empty() && timers_.begin()->first.first <= now_) {
    make_runnable(timers_.begin()->second);
  }
}

Fiber* VirtualClock::next_runnable() {
  while (runnable_.empty()) {
    if (timers_.empty()) {
      std::string blocked;
      if (root_->blocked_in != nullptr) {
        blocked += "\n  " + root_->label() + " in " + root_->blocked_in + "()";
      }
      for (const auto& [id, f] : fibers_) {
        if (f->blocked_in != nullptr) blocked += "\n  " + f->label() + " in " + f->blocked_in + "()";
      }
      die("deadlock at t=" + std::to_string(now_) +
          " s: every participant is blocked and no deadline is armed:" + blocked);
    }
    const Seconds earliest = timers_.begin()->first.first;
    if (earliest > now_) now_ = earliest;
    ++advances_;
    fire_crossed();
  }
  Fiber* next = runnable_.front();
  runnable_.pop_front();
  return next;
}

void VirtualClock::switch_to(Fiber* to) {
  Fiber* from = current_;
  current_ = to;
  EhGlobals* eh = eh_globals();
  from->eh = *eh;
  *eh = to->eh;
#if DOSAS_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&from->fake_stack, to->stack_bottom, to->stack_size);
#endif
#if DOSAS_TSAN_FIBERS
  __tsan_switch_to_fiber(to->tsan, 0);
#endif
  swapcontext(&from->ctx, &to->ctx);
  // Resumed: `from` is running again.
#if DOSAS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(from->fake_stack, nullptr, nullptr);
#endif
}

void VirtualClock::fiber_main(unsigned lo, unsigned hi) {
  Fiber* f = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                      static_cast<std::uintptr_t>(lo));
  VirtualClock* vc = f->clock;
#if DOSAS_ASAN_FIBERS
  {
    // The first switch into any fiber reports the stack it came from;
    // the only stack ASan does not already know is the root's.
    const void* prev_bottom = nullptr;
    std::size_t prev_size = 0;
    __sanitizer_finish_switch_fiber(nullptr, &prev_bottom, &prev_size);
    if (vc->root_->stack_size == 0) {
      vc->root_->stack_bottom = prev_bottom;
      vc->root_->stack_size = prev_size;
    }
  }
#endif
  try {
    f->fn();
    f->fn = nullptr;
  } catch (const std::exception& e) {
    die("uncaught exception escaped " + f->label() + ": " + e.what());
  } catch (...) {
    die("uncaught non-std exception escaped " + f->label());
  }
  vc->exit_current();
}

void VirtualClock::exit_current() {
  Fiber* self = current_;
  self->done = true;
  if (self->joiner != nullptr) make_runnable(std::exchange(self->joiner, nullptr));
  Fiber* next = next_runnable();
  current_ = next;
  *eh_globals() = next->eh;
#if DOSAS_ASAN_FIBERS
  __sanitizer_start_switch_fiber(nullptr, next->stack_bottom, next->stack_size);
#endif
#if DOSAS_TSAN_FIBERS
  __tsan_switch_to_fiber(next->tsan, 0);
#endif
  setcontext(&next->ctx);
  std::abort();  // setcontext does not return
}

Participant VirtualClock::spawn(std::function<void()> fn, std::string name) {
  check_owner("spawn");
  auto f = std::make_unique<Fiber>();
  f->id = next_id_++;
  f->name = std::move(name);
  f->fn = std::move(fn);
  f->clock = this;
  // Guard page below the stack (it grows down); MAP_NORESERVE and no
  // pre-touch: a fiber costs only the stack pages it actually uses.
  const std::size_t bytes = kGuardBytes + kFiberStackBytes;
  void* mapping = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (mapping == MAP_FAILED) die("cannot map a stack for " + f->label());
  if (mprotect(mapping, kGuardBytes, PROT_NONE) != 0) die("cannot guard the stack of " + f->label());
  f->mapping = mapping;
  char* stack = static_cast<char*>(mapping) + kGuardBytes;
  if (getcontext(&f->ctx) != 0) die("getcontext failed for " + f->label());
  f->ctx.uc_stack.ss_sp = stack;
  f->ctx.uc_stack.ss_size = kFiberStackBytes;
  f->ctx.uc_link = nullptr;
  const auto bits = reinterpret_cast<std::uintptr_t>(f.get());
  makecontext(&f->ctx, reinterpret_cast<void (*)()>(&VirtualClock::fiber_main), 2,
              static_cast<unsigned>(bits & 0xffffffffu), static_cast<unsigned>(bits >> 32));
#if DOSAS_ASAN_FIBERS
  f->stack_bottom = stack;
  f->stack_size = kFiberStackBytes;
  // makecontext has consumed uc_stack; clearing it stops ASan's
  // swapcontext interceptor from wiping the live stack's shadow on every
  // switch into this fiber.
  f->ctx.uc_stack.ss_sp = nullptr;
  f->ctx.uc_stack.ss_size = 0;
#endif
#if DOSAS_TSAN_FIBERS
  f->tsan = __tsan_create_fiber(0);
  __tsan_set_fiber_name(f->tsan, f->name.c_str());
#endif
  Participant p;
  p.clock_ = this;
  p.fiber_ = f.get();
  runnable_.push_back(f.get());
  fibers_.emplace(f->id, std::move(f));
  return p;
}

void VirtualClock::join(Fiber* f) {
  check_owner("join");
  if (f == current_) die(f->label() + " joined itself");
  while (!f->done) {
    f->joiner = current_;
    block("join");
  }
  fibers_.erase(f->id);
}

void VirtualClock::wake_all(std::condition_variable& cv) {
  check_owner("wake_all");
  auto [begin, end] = cv_waiters_.equal_range(&cv);
  if (begin == end) return;
  // Ties go by spawn order.
  std::vector<Fiber*> woken;
  for (auto it = begin; it != end; ++it) woken.push_back(it->second);
  std::sort(woken.begin(), woken.end(),
            [](const Fiber* a, const Fiber* b) { return a->id < b->id; });
  for (Fiber* f : woken) make_runnable(f);
}

void VirtualClock::wake_one(std::condition_variable& cv) {
  // A waiter whose predicate is still false just parks again, so waking
  // every waiter keeps notify_one's guarantee without choosing one.
  wake_all(cv);
}

void VirtualClock::yield() {
  check_owner("yield");
  if (runnable_.empty()) return;
  Fiber* next = runnable_.front();
  runnable_.pop_front();
  runnable_.push_back(current_);
  switch_to(next);
}

void VirtualClock::advance_by(Seconds dt) {
  check_owner("advance_by");
  if (dt < 0.0) dt = 0.0;
  now_ += dt;
  ++advances_;
  fire_crossed();
}

void VirtualClock::advance_to(Seconds t) {
  check_owner("advance_to");
  if (t > now_) now_ = t;
  ++advances_;
  fire_crossed();
}

std::uint32_t VirtualClock::lane() const { return static_cast<std::uint32_t>(current_->id); }

Clock::Status VirtualClock::status() const {
  Status s;
  s.virtual_time = true;
  s.now = now_;
  s.participants = static_cast<int>(fibers_.size());
  s.blocked = blocked_;
  s.timed_waiters = static_cast<int>(timers_.size());
  s.advances = advances_;
  return s;
}

// ---------------------------------------------------------------------------
// Global seam

namespace {
std::atomic<Clock*> g_clock{nullptr};
}  // namespace

Clock& clock() {
  Clock* c = g_clock.load(std::memory_order_acquire);
  return c != nullptr ? *c : WallClock::instance();
}

Clock& wall_clock() { return WallClock::instance(); }

Clock* set_global_clock(Clock* c) {
  return g_clock.exchange(c, std::memory_order_acq_rel);
}

}  // namespace dosas
