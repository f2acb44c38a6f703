#!/usr/bin/env bash
# check_docs.sh — lint the repo's Markdown for dangling file references.
#
# Scans every tracked .md file for path-like tokens (src/..., tests/...,
# bench/..., tools/..., docs/..., examples/...) and verifies each one
# resolves to a real file. `file.cpp:123` anchors are checked against the
# file; `path/name` without an extension is accepted if `name.cpp`/`name.hpp`
# exists there (binary-style references like examples/quickstart). Globs
# (src/core/sim_model.*) are expanded. Also checks that every `bench_*` /
# `test_*` binary name mentioned in docs has a matching source file.
#
# Usage: tools/check_docs.sh [repo-root]   (exit 0 = clean, 1 = dangling)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

fail=0

note() {
  echo "dangling reference: '$2' (in $1)" >&2
  fail=1
}

# Path-like tokens. Colon is excluded from the token charset so that
# `src/foo.cpp:42` anchors reduce to the plain path. Meta documents that
# quote external repos or prospective work (ISSUE, SNIPPETS, PAPERS) are
# not part of the user-facing documentation and are skipped.
docs=$(ls ./*.md docs/*.md 2>/dev/null \
  | grep -v -E '(ISSUE|SNIPPETS|PAPERS|CHANGES)\.md$')
for doc in $docs; do
  refs=$(grep -oE '\b(src|tests|bench|tools|docs|examples)/[A-Za-z0-9_./*-]+' "$doc" \
    | sed 's/[).,;]*$//' | sort -u)
  for ref in $refs; do
    ref="${ref%/}"
    case "$ref" in
      *'*'*)  # glob reference: must match at least one file
        if ! compgen -G "$ref" > /dev/null; then note "$doc" "$ref"; fi
        ;;
      *)
        if [ -e "$ref" ]; then continue; fi
        # Binary-style reference: path/name -> path/name.cpp or .hpp
        if [ -e "$ref.cpp" ] || [ -e "$ref.hpp" ] || [ -e "$ref.sh" ]; then continue; fi
        note "$doc" "$ref"
        ;;
    esac
  done

  # bench_* / test_* binary names must have a matching source file.
  bins=$(grep -oE '\b(bench|test)_[a-z0-9_]+\b' "$doc" | sort -u)
  for bin in $bins; do
    if compgen -G "bench/$bin*" > /dev/null; then continue; fi
    if compgen -G "tests/$bin*" > /dev/null; then continue; fi
    # Suites nested one level down (e.g. tests/dst/test_dst.cpp).
    if compgen -G "tests/*/$bin*" > /dev/null; then continue; fi
    note "$doc" "$bin"
  done
done

# The bench telemetry schema must stay documented: every dosas-bench-v1
# field that tools/check_bench_json.sh validates has to appear (as a
# backtick-quoted token) in docs/OBSERVABILITY.md's schema section.
if [ -f docs/OBSERVABILITY.md ]; then
  if ! grep -q 'dosas-bench-v1' docs/OBSERVABILITY.md; then
    note docs/OBSERVABILITY.md "dosas-bench-v1 schema section"
  fi
  for field in schema name git_sha config metrics latency_us throughput \
               demotion_rate stages; do
    if ! grep -q "\`$field\`" docs/OBSERVABILITY.md; then
      echo "undocumented bench telemetry field: '$field' (docs/OBSERVABILITY.md)" >&2
      fail=1
    fi
  done
  # Hedging telemetry: the straggler signal and the hedge counters that
  # tests/dst/test_straggler.cpp asserts on must stay in the catalog.
  for token in 'rpc.node_latency_us' 'client.hedges_fired' \
               'client.hedges_won' 'client.hedges_wasted'; do
    if ! grep -q "$token" docs/OBSERVABILITY.md; then
      echo "undocumented hedging metric: '$token' (docs/OBSERVABILITY.md)" >&2
      fail=1
    fi
  done
  # Data-plane telemetry: the ring/arena contention gauges, the zero-copy
  # ledger, and the per-request bench metrics the regression gate reads.
  for token in 'ring.cas_retries.push' 'ring.cas_retries.pop' \
               'ring.lock_fast' 'ring.lock_contended' 'ring.spsc' \
               'arena.slabs_in_use' 'arena.slabs_recycled' \
               'arena.cache_hits' 'arena.cache_evictions' \
               'arena.cache_invalidations' \
               'data.bytes_copied' 'data.bytes_copied.<site>' \
               'bytes_copied_per_req' 'cas_retries_per_req' \
               'write_bytes_copied_per_req' 'cache_hit_bytes_copied_per_req'; do
    if ! grep -q "$token" docs/OBSERVABILITY.md; then
      echo "undocumented data-plane metric: '$token' (docs/OBSERVABILITY.md)" >&2
      fail=1
    fi
  done
fi

# The hedging design note must keep naming its load-bearing knobs, and
# the data-plane section its load-bearing types and contracts.
if [ -f docs/ARCHITECTURE.md ]; then
  for token in hedge_reads kHedgeMinDelay kHedgeMaxPerRead node_latency \
               BufferRef BufferArena QueuePoll read_object_ref \
               close-then-drain SpscRing serve_write cache_lookup \
               CopySite; do
    if ! grep -q "$token" docs/ARCHITECTURE.md; then
      echo "architecture doc no longer documents '$token' (docs/ARCHITECTURE.md)" >&2
      fail=1
    fi
  done
fi

# The scale-run playbook must exist and keep documenting the harness's
# load-bearing knobs: a scenario that silently drops one of these loses
# either determinism or the paper-shaped contention it exists to model.
if [ -f docs/SCALE.md ]; then
  for token in VirtualClock CompleterAffinity \
               pace_kernel_rates pace_compute_rates network_per_node \
               generate_traffic ScrambledZipf dosas-bench-v1; do
    if ! grep -q "$token" docs/SCALE.md; then
      echo "scale playbook no longer documents '$token' (docs/SCALE.md)" >&2
      fail=1
    fi
  done
else
  note docs/SCALE.md "docs/SCALE.md (scale-run playbook)"
fi

if [ "$fail" -eq 0 ]; then
  echo "check_docs: all documentation file references resolve"
fi
exit "$fail"
