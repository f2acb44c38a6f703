#!/usr/bin/env bash
# check_fingerprint_gate.sh — self-test of the exact fingerprint gate in
# tools/check_bench_json.sh: a fresh copy of the committed
# bench/trajectory/BENCH_scale.json must pass the check, and the same copy
# with one fingerprint changed by one must fail it (exit 1).
#
# Usage: tools/check_fingerprint_gate.sh
# Exit 0 = the gate passes the copy and fires on the changed fingerprint.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/same" "$tmp/off"

python3 - "$root/bench/trajectory/BENCH_scale.json" "$tmp" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
with open(f"{sys.argv[2]}/same/BENCH_scale.json", "w") as fh:
    json.dump(doc, fh)
doc["metrics"]["fingerprint_n50"] += 1
with open(f"{sys.argv[2]}/off/BENCH_scale.json", "w") as fh:
    json.dump(doc, fh)
PYEOF

bash "$root/tools/check_bench_json.sh" "$tmp/same/BENCH_scale.json" > "$tmp/same.txt" 2>&1
same=$?
bash "$root/tools/check_bench_json.sh" "$tmp/off/BENCH_scale.json" > "$tmp/off.txt" 2>&1
off=$?

if [ "$same" -ne 0 ]; then
  echo "check_fingerprint_gate: an unchanged copy failed the check (exit $same):" >&2
  cat "$tmp/same.txt" >&2
  exit 1
fi
if [ "$off" -ne 1 ] || ! grep -q "FAIL: metrics.fingerprint_n50" "$tmp/off.txt"; then
  echo "check_fingerprint_gate: a fingerprint off by one did not fail the check (exit $off):" >&2
  cat "$tmp/off.txt" >&2
  exit 1
fi
echo "check_fingerprint_gate: fingerprint_n50 off by one fails the check, an exact copy passes"
