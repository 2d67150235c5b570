#!/usr/bin/env bash
# Per-package coverage gates over one Go coverage profile:
#
#   ./scripts/coverage_gate.sh coverage.out store=80 watch=80 …
#
# Each pkg=N fails the run when internal/<pkg>'s statement coverage in the
# profile is below N%. Every gate is checked and reported before the exit.
set -euo pipefail
profile=$1
shift
part=$(mktemp)
trap 'rm -f "$part"' EXIT
fail=0
for gate in "$@"; do
  pkg=${gate%%=*}
  min=${gate#*=}
  { head -1 "$profile"; grep "^indaas/internal/$pkg/" "$profile"; } > "$part"
  total=$(go tool cover -func="$part" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
  echo "internal/$pkg coverage: ${total}%"
  awk -v t="$total" -v m="$min" 'BEGIN { exit (t >= m) ? 0 : 1 }' ||
    { echo "internal/$pkg coverage ${total}% is below the ${min}% gate" >&2; fail=1; }
done
exit "$fail"
