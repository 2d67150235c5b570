#!/usr/bin/env bash
# Markdown link lint: every relative link target in the repo's markdown
# files must exist on disk, so README/ARCHITECTURE/PERFORMANCE cross-
# references cannot silently rot when files move. External (scheme://),
# mailto: and pure-anchor (#…) links are out of scope — no network access,
# plain bash + grep + awk only. A link quoted as code — inside a fenced
# block or an inline code span — is text, not a link, and is not checked.
set -euo pipefail
cd "$(dirname "$0")/.."

# prose prints a markdown file with its fenced blocks dropped and its inline
# code spans (a run of n backticks up to the next run of exactly n) removed.
prose() {
    awk '
    function closing(s, n,    k, run) {
        # Position in s of the next run of exactly n backticks, or 0.
        k = 0
        while (match(substr(s, k + 1), /`+/)) {
            k += RSTART
            run = RLENGTH
            if (run == n) return k
            k += run - 1
        }
        return 0
    }
    fence != "" { if (index($0, fence) && $0 ~ /^ ? ? ?(```|~~~)/) fence = ""; next }
    /^ ? ? ?(```|~~~)/ { match($0, /(```|~~~)/); fence = substr($0, RSTART, 3); next }
    {
        out = ""; line = $0
        while (match(line, /`+/)) {
            out = out substr(line, 1, RSTART - 1)
            n = RLENGTH
            rest = substr(line, RSTART + n)
            k = closing(rest, n)
            if (k == 0) { out = out substr(line, RSTART, n); line = rest; continue }
            line = substr(rest, k + n)
        }
        print out line
    }' "$1"
}

fail=0
while IFS= read -r file; do
    # Inline links: [text](target). Extract the target, strip any #fragment
    # and surrounding angle brackets; skip absolute URLs and bare anchors.
    while IFS= read -r target; do
        case "$target" in
        '' | '#'* | *'://'* | mailto:*) continue ;;
        esac
        target=${target%%#*}
        [ -n "$target" ] || continue
        base=$(dirname "$file")
        if [ ! -e "$base/$target" ] && [ ! -e "$target" ]; then
            echo "$file: broken relative link: $target" >&2
            fail=1
        fi
    done < <(prose "$file" | grep -oE '\]\([^)[:space:]]+\)' | sed -E 's/^\]\(<?//; s/>?\)$//')
done < <(find . -name '*.md' -not -path './.git/*' -not -path './related/*')

if [ "$fail" -ne 0 ]; then
    echo "check_markdown_links: broken links found" >&2
    exit 1
fi
echo "check_markdown_links: all relative markdown links resolve"
