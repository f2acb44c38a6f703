#!/usr/bin/env bash
# check_contend_digests.sh — the contend workload of the repository
# benchmark (perfbench/) runs the paper's scenario under a VirtualClock, so
# the fingerprint digest it prints for a seed — every completion time,
# counter and result of every run — is exact. This script runs the
# workload for seeds 1, 2 and 3 and fails when any digest differs from the
# recorded one: a change that moves one handed-back request's virtual
# timeline shows here, and so does one that changes a kernel's result
# bits (a sum's lane order, say) with the timeline unchanged.
#
# Usage: tools/check_contend_digests.sh
#   (builds .bench_build/perfbench on first use, like perfbench/run.py)
# Exit 0 = all three digests match.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
expected=(
  "1 5e08a614ecbc871d"
  "2 80330fb869341203"
  "3 3edc17432603bb95"
)

fail=0
for entry in "${expected[@]}"; do
  read -r seed want <<< "$entry"
  if ! out="$(python3 "$root/perfbench/run.py" --workload contend --seed "$seed" --seconds 1 \
                --trace 0)"; then
    echo "check_contend_digests: seed $seed: the contend run failed" >&2
    fail=1
    continue
  fi
  got="$(printf '%s\n' "$out" | sed -n 's/.*fingerprint digest \([0-9a-f]*\).*/\1/p' | tail -n 1)"
  if [ "$got" = "$want" ]; then
    echo "check_contend_digests: seed $seed: digest $got matches"
  else
    echo "check_contend_digests: seed $seed: digest ${got:-<none>} != expected $want" >&2
    fail=1
  fi
done
exit "$fail"
