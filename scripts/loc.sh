#!/usr/bin/env bash
# Non-test Go lines per package (plain wc -l: comments and blanks count), so a
# PR that claims "less code" quotes one command. With arguments, prints just
# those package directories; with none, every package under the repo.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
  set -- $(find . -name '*.go' ! -name '*_test.go' -printf '%h\n' | sort -u)
fi
total=0
for dir in "$@"; do
  n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
  printf '%7d  %s\n' "$n" "${dir#./}"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
