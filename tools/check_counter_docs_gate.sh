#!/usr/bin/env bash
# check_counter_docs_gate.sh — self-test of the counter check in
# tools/check_docs.sh: a copy of the repo's sources and docs must pass the
# check, and the same copy with one Stats field's row deleted from
# docs/OBSERVABILITY.md must fail it (exit 1), naming the field.
#
# Usage: tools/check_counter_docs_gate.sh
# Exit 0 = the check passes the copy and fires on the missing row.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/same" "$tmp/off"
for copy in same off; do
  cp -r "$root/src" "$root/tests" "$root/bench" "$root/tools" "$root/docs" \
        "$root/examples" "$root"/*.md "$tmp/$copy/"
done
grep -v '^| `probe_ticks` |' "$root/docs/OBSERVABILITY.md" > "$tmp/off/docs/OBSERVABILITY.md"

bash "$root/tools/check_docs.sh" "$tmp/same" > "$tmp/same.txt" 2>&1
same=$?
bash "$root/tools/check_docs.sh" "$tmp/off" > "$tmp/off.txt" 2>&1
off=$?

if [ "$same" -ne 0 ]; then
  echo "check_counter_docs_gate: an unchanged copy failed the check (exit $same):" >&2
  cat "$tmp/same.txt" >&2
  exit 1
fi
if [ "$off" -ne 1 ] ||
   ! grep -q "undocumented counter: 'StorageServer::Stats::probe_ticks'" "$tmp/off.txt"; then
  echo "check_counter_docs_gate: a missing probe_ticks row did not fail the check (exit $off):" >&2
  cat "$tmp/off.txt" >&2
  exit 1
fi
echo "check_counter_docs_gate: a missing StorageServer::Stats::probe_ticks row fails the check, an exact copy passes"
