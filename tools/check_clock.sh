#!/usr/bin/env bash
# check_clock.sh — enforce the Clock seam (src/common/clock.hpp).
#
# All time must flow through the injected clock so the whole runtime can
# execute under a VirtualClock (deterministic simulation testing — see
# docs/ARCHITECTURE.md "Time & determinism"). Direct wall-clock reads,
# sleeps, and timed waits outside the clock implementation reintroduce
# hidden real-time dependencies; direct condition_variable notifies bypass
# the VirtualClock's poke accounting and let virtual time jump deadlines a
# signaled-but-unscheduled thread was about to beat.
#
# Banned everywhere except src/common/clock.{hpp,cpp}:
#   * std::chrono::{steady,system,high_resolution}_clock
#   * std::this_thread::sleep_for / sleep_until
#   * condition_variable wait_for( / wait_until(
#   * condition_variable notify_all( / notify_one(
#   * the raw C time APIs: clock_gettime, gettimeofday, time(nullptr) —
#     flight-recorder and trace timestamps must come from dosas::clock()
#     so virtual-time runs record virtual seconds
#
# Use instead: clock().now(), clock().sleep(), clock().wait(),
# clock().timed_wait(), clock().wake_all(), clock().wake_one() — and
# wall_clock() for the few sites that measure *physical* machine speed
# (kernel calibration, bench timing, DST speedup checks).
#
# Also banned in src/ outside src/common/clock.{hpp,cpp}: std::thread. A
# participant is started with clock().spawn(), the one seam that makes it
# a fiber under a VirtualClock and an OS thread under the WallClock; a raw
# thread would run beside the virtual world's scheduler. (Tests, benches
# and tools may still start OS threads for real concurrency on the
# WallClock.)
#
# Usage: tools/check_clock.sh [repo-root]   (exit 0 = clean, 1 = violation)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

pattern='steady_clock|system_clock|high_resolution_clock|sleep_for|sleep_until|\bwait_for[[:space:]]*\(|\bwait_until[[:space:]]*\(|notify_all[[:space:]]*\(|notify_one[[:space:]]*\(|\bclock_gettime[[:space:]]*\(|\bgettimeofday[[:space:]]*\(|\btime[[:space:]]*\([[:space:]]*(nullptr|NULL|0)[[:space:]]*\)'

hits=$(grep -rnE "$pattern" src tests bench tools examples \
  --include='*.cpp' --include='*.hpp' 2>/dev/null \
  | grep -v '^src/common/clock\.\(hpp\|cpp\):')

status=0
if [ -n "$hits" ]; then
  echo "check_clock: direct time/notify usage outside src/common/clock.{hpp,cpp}:" >&2
  echo "$hits" >&2
  echo "route it through clock() / wall_clock() instead (see src/common/clock.hpp)" >&2
  status=1
fi

thread_hits=$(grep -rnE '\bstd::thread\b' src --include='*.cpp' --include='*.hpp' 2>/dev/null \
  | grep -v '^src/common/clock\.\(hpp\|cpp\):')
if [ -n "$thread_hits" ]; then
  echo "check_clock: std::thread in src/ outside src/common/clock.{hpp,cpp}:" >&2
  echo "$thread_hits" >&2
  echo "start participants with clock().spawn() instead (see src/common/clock.hpp)" >&2
  status=1
fi

[ "$status" -eq 0 ] && echo "check_clock: all time flows through the Clock seam"
exit "$status"
