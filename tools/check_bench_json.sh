#!/usr/bin/env bash
# check_bench_json.sh — schema-validate BENCH_*.json bench telemetry.
#
# Every bench that emits telemetry writes one BENCH_<name>.json conforming
# to schema "dosas-bench-v1" (bench/bench_common.hpp BenchJson; field
# reference in docs/OBSERVABILITY.md "Bench telemetry"). This script fails
# on malformed JSON, a wrong/missing schema tag, missing required fields
# (schema, name, git_sha, config, metrics), an empty metrics object, or
# mistyped optional fields (latency_us.{p50,p95,p99}, throughput,
# demotion_rate, stages) — so CI artifacts and the committed trajectory
# points in bench/trajectory/ stay machine-readable.
#
# Beyond the schema, freshly produced telemetry is DIFFED against the
# committed baseline point in bench/trajectory/BENCH_<name>.json (skipped
# when the validated file IS the baseline): every shared metric and the
# latency quantiles are reported. Two differences fail the check: any
# `fingerprint_*` metric that differs from the baseline at all (they are
# virtual-time digests, exact by construction, so any difference is a
# behaviour change), and a latency_us.p99 regression beyond
# DOSAS_BENCH_P99_TOLERANCE (default 0.25 = +25%) on the rpc_async point —
# the 8-client contention measurement the data-plane work is judged by.
# Set DOSAS_BENCH_DIFF_REPORT to a path to also write the diff as a report
# file (CI uploads it with the telemetry artifact).
#
# Usage: tools/check_bench_json.sh [file-or-dir ...]
#   (no arguments: validates bench/trajectory/ in the repo root)
# Exit 0 = all valid, 1 = violation or nothing to validate.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
tolerance="${DOSAS_BENCH_P99_TOLERANCE:-0.25}"
report="${DOSAS_BENCH_DIFF_REPORT:-}"
if [ -n "$report" ]; then
  : > "$report"
fi

files=()
if [ "$#" -eq 0 ]; then
  set -- "$root/bench/trajectory"
fi
for arg in "$@"; do
  if [ -d "$arg" ]; then
    while IFS= read -r f; do files+=("$f"); done \
      < <(find "$arg" -maxdepth 1 -name 'BENCH_*.json' | sort)
  elif [ -f "$arg" ]; then
    files+=("$arg")
  else
    echo "check_bench_json: no such file or directory: $arg" >&2
    exit 1
  fi
done

if [ "${#files[@]}" -eq 0 ]; then
  echo "check_bench_json: no BENCH_*.json files found" >&2
  exit 1
fi

fail=0
for f in "${files[@]}"; do
  if python3 - "$f" <<'PYEOF'
import json
import numbers
import sys

path = sys.argv[1]
errors = []
try:
    with open(path) as fh:
        doc = json.load(fh)
except (OSError, ValueError) as exc:
    print(f"{path}: not valid JSON: {exc}", file=sys.stderr)
    sys.exit(1)

def err(msg):
    errors.append(msg)

if not isinstance(doc, dict):
    err("top level is not an object")
else:
    if doc.get("schema") != "dosas-bench-v1":
        err(f"schema must be \"dosas-bench-v1\" (got {doc.get('schema')!r})")
    for key in ("name", "git_sha"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            err(f"required field {key!r} missing or not a non-empty string")
    if not isinstance(doc.get("config"), dict):
        err("required field 'config' missing or not an object")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        err("required field 'metrics' missing, not an object, or empty")
    elif not all(isinstance(v, numbers.Real) for v in metrics.values()):
        err("'metrics' values must all be numbers")
    lat = doc.get("latency_us")
    if lat is not None:
        if not isinstance(lat, dict):
            err("'latency_us' must be an object")
        else:
            for q in ("p50", "p95", "p99"):
                if not isinstance(lat.get(q), numbers.Real):
                    err(f"'latency_us.{q}' missing or not a number")
    for key in ("throughput", "demotion_rate"):
        if key in doc and not isinstance(doc[key], numbers.Real):
            err(f"'{key}' must be a number")
    if "stages" in doc and not isinstance(doc["stages"], dict):
        err("'stages' must be an object")
    # The rpc_async bench carries the hedged-read point: its telemetry must
    # keep the hedge fields, or the trajectory loses the straggler story.
    if doc.get("name") == "rpc_async" and isinstance(metrics, dict):
        for key in ("straggler_p99_ms", "hedged_p99_ms", "hedge_p99_speedup",
                    "hedge_extra_bytes_frac", "hedges_fired", "hedges_won",
                    "hedges_wasted"):
            if not isinstance(metrics.get(key), numbers.Real):
                err(f"'metrics.{key}' missing or not a number (hedge telemetry)")
    # Data-plane telemetry (v1 additions): the zero-copy ledger and ring
    # CAS counters must keep flowing from the two benches that measure the
    # lock-free data plane.
    if doc.get("name") in ("rpc_async", "micro_core") and isinstance(metrics, dict):
        for key in ("bytes_copied_per_req", "cas_retries_per_req"):
            if not isinstance(metrics.get(key), numbers.Real):
                err(f"'metrics.{key}' missing or not a number (data-plane telemetry)")
    # Write-path + result-cache zero-copy telemetry: rpc_async must keep
    # proving the request direction and the cache hit copy nothing.
    if doc.get("name") == "rpc_async" and isinstance(metrics, dict):
        for key in ("write_bytes_copied_per_req", "cache_hit_bytes_copied_per_req"):
            if not isinstance(metrics.get(key), numbers.Real):
                err(f"'metrics.{key}' missing or not a number (write/cache telemetry)")

if errors:
    for e in errors:
        print(f"{path}: {e}", file=sys.stderr)
    sys.exit(1)
PYEOF
  then
    :
  else
    fail=1
  fi
done

# ---- trajectory diff: fresh telemetry vs the committed baseline point ----
for f in "${files[@]}"; do
  name="$(basename "$f")"
  baseline="$root/bench/trajectory/$name"
  [ -f "$baseline" ] || continue
  # The baseline diffed against itself is vacuous — skip when the file
  # under validation IS the committed trajectory point.
  if [ "$(realpath "$f")" = "$(realpath "$baseline")" ]; then
    continue
  fi
  diff_out="$(python3 - "$f" "$baseline" "$tolerance" <<'PYEOF'
import json
import sys

path, base_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(path) as fh:
    new = json.load(fh)
with open(base_path) as fh:
    base = json.load(fh)

name = new.get("name", "?")
lines = [f"== {name}: {path} vs baseline {base_path}"]

def fmt(old, cur):
    if isinstance(old, (int, float)) and isinstance(cur, (int, float)) and old:
        return f"{old:.6g} -> {cur:.6g} ({(cur / old - 1) * 100:+.1f}%)"
    return f"{old!r} -> {cur!r}"

for key in sorted(set(base.get("metrics", {})) | set(new.get("metrics", {}))):
    old = base.get("metrics", {}).get(key)
    cur = new.get("metrics", {}).get(key)
    if old != cur:
        lines.append(f"  metrics.{key}: {fmt(old, cur)}")
for q in ("p50", "p95", "p99"):
    old = (base.get("latency_us") or {}).get(q)
    cur = (new.get("latency_us") or {}).get(q)
    if old is not None or cur is not None:
        lines.append(f"  latency_us.{q}: {fmt(old, cur)}")

failed = False
# Exact gate: a virtual-time fingerprint either reproduces bit for bit or
# the modelled behaviour changed.
for key in sorted(set(base.get("metrics", {})) | set(new.get("metrics", {}))):
    if not key.startswith("fingerprint_"):
        continue
    old = base.get("metrics", {}).get(key)
    cur = new.get("metrics", {}).get(key)
    if old != cur:
        lines.append(f"  FAIL: metrics.{key} differs from the baseline ({old!r} -> {cur!r})")
        failed = True
# Tolerance gate: the rpc_async 8-client point's p99 must not regress past
# the tolerance. Everything else is report-only.
if name == "rpc_async":
    old = (base.get("latency_us") or {}).get("p99")
    cur = (new.get("latency_us") or {}).get("p99")
    if isinstance(old, (int, float)) and isinstance(cur, (int, float)) and old > 0:
        if cur > old * (1 + tol):
            lines.append(
                f"  FAIL: latency_us.p99 regressed {cur / old - 1:+.1%} "
                f"(tolerance {tol:+.0%})")
            failed = True
        else:
            lines.append(
                f"  OK: latency_us.p99 within {tol:+.0%} of baseline")

print("\n".join(lines))
sys.exit(1 if failed else 0)
PYEOF
)" || fail=1
  echo "$diff_out" >&2
  if [ -n "$report" ]; then
    echo "$diff_out" >> "$report"
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "check_bench_json: ${#files[@]} telemetry file(s) conform to dosas-bench-v1"
fi
exit "$fail"
