#!/usr/bin/env bash
# run_sanitizers.sh — build and run the test suite under sanitizers.
#
#   tools/run_sanitizers.sh [address] [undefined] [thread]
#
# With no arguments, runs address and undefined over the full suite, then
# thread over the concurrency-heavy tests and every binary that holds
# VirtualClock tests (whose participants are fibers, so TSan checks the
# fiber switch annotations too) — TSan on everything is slow and the other
# tests are single-threaded.
#
# Each sanitizer gets its own build tree (build-asan/, build-ubsan/,
# build-tsan/) so switching sanitizers never needs a reconfigure.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
MODES=("$@")
if [ ${#MODES[@]} -eq 0 ]; then
  MODES=(address undefined thread)
fi

run_one() {
  local mode="$1" dir
  case "$mode" in
    address)   dir=build-asan ;;
    undefined) dir=build-ubsan ;;
    thread)    dir=build-tsan ;;
    *) echo "unknown sanitizer '$mode' (expected address|undefined|thread)" >&2; return 1 ;;
  esac

  echo "== $mode sanitizer =="
  cmake -B "$dir" -S . -DDOSAS_SANITIZE="$mode" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$dir" -j "$JOBS" >/dev/null

  if [ "$mode" = thread ]; then
    # Concurrency-heavy tier only: servers, stress, resilience, and every
    # binary with VirtualClock tests — the deterministic-simulation suites
    # run their participants as fibers on one OS thread (ctest registers
    # individual gtest cases, so run the binaries).
    local bin
    for bin in test_server test_stress test_resilience test_fault test_dst \
               test_hedge test_straggler test_ring test_arena test_dataplane \
               test_common test_cache_resume test_scale test_replay; do
      "$dir/tests/$bin"
    done
  else
    (cd "$dir" && ctest --output-on-failure -j "$JOBS")
  fi
  echo "== $mode sanitizer: OK =="
}

for mode in "${MODES[@]}"; do
  run_one "$mode"
done
echo "all sanitizer runs passed"
