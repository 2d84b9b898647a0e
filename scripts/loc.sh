#!/usr/bin/env bash
# Non-test Rust lines: for each .rs file, the lines before its first
# `#[cfg(test)]` (the whole file when it has none). Files under a `tests/`
# or `benches/` directory are test code and are skipped.
#
#   scripts/loc.sh                   one line per crate under crates/, + total
#   scripts/loc.sh PATH...           one line per given file or directory, + total
#
# A report, not a gate: net-negative PRs quote its numbers in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
        -not -path '*/target/*' -print0 |
        xargs -0 -r awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }'
}

if [ "$#" -eq 0 ]; then
    set -- crates/*/
fi
total=0
for path in "$@"; do
    n="$(count "$path")"
    printf '%7d  %s\n' "$n" "${path%/}"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
