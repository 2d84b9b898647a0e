#!/usr/bin/env bash
# Non-test Rust lines: for each .rs file, the lines before its first
# `#[cfg(test)]` (the whole file when it has none). Files under a `tests/`
# or `benches/` directory are test code and are skipped.
#
#   scripts/loc.sh                        one line per crate under crates/, + total
#   scripts/loc.sh PATH...                one line per given file or directory, + total
#   scripts/loc.sh --since REV [PATH...]  parent (at REV), change (the working
#                                         tree) and delta per path, + total;
#                                         files on only one side count as 0
#                                         on the other
#
# A report, not a gate: net-negative PRs quote its numbers in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

rev=""
if [ "${1:-}" = "--since" ]; then
    rev="${2:?--since needs a revision}"
    shift 2
fi

# Non-test lines of the Rust source on stdin.
nontest() {
    awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'
}

# Counted .rs files among the newline-separated paths on stdin.
counted() {
    grep -E '\.rs$' | grep -Ev '(^|/)(tests|benches|target)/' || true
}

# Non-test lines under a path: in the working tree, or at "$2" when given.
count() {
    local total=0 file
    while IFS= read -r file; do
        if [ -n "${2:-}" ]; then
            total=$((total + $(git show "$2:$file" | nontest)))
        else
            total=$((total + $(nontest <"$file")))
        fi
    done < <(if [ -n "${2:-}" ]; then
        git ls-tree -r --name-only "$2" -- "${1%/}"
    elif [ -e "$1" ]; then
        find "${1%/}" -type f
    fi | counted)
    echo "$total"
}

if [ "$#" -eq 0 ]; then
    set -- crates/*/
fi
total=0 parent_total=0
for path in "$@"; do
    n="$(count "$path")"
    total=$((total + n))
    if [ -n "$rev" ]; then
        p="$(count "$path" "$rev")"
        parent_total=$((parent_total + p))
        printf '%7d %7d %+7d  %s\n' "$p" "$n" "$((n - p))" "${path%/}"
    else
        printf '%7d  %s\n' "$n" "${path%/}"
    fi
done
if [ -n "$rev" ]; then
    printf '%7d %7d %+7d  total\n' "$parent_total" "$total" "$((total - parent_total))"
else
    printf '%7d  total\n' "$total"
fi
