#!/usr/bin/env bash
# Alternating benchmark pairs of two revisions, and their work ledgers.
#
#   scripts/pairs.sh <rev-a> <rev-b> --workload W[,W...] --seeds N..M [--lto]
#
# Extracts each revision with `git archive` into a fresh directory under
# ${TMPDIR:-/tmp} (outside the repository), builds its benchmark package
# there, and runs that tree's own `benchmark/run.sh --workload W --seed S
# --seconds <run_seconds> --trace 0` once per workload and seed. Both
# revisions run each seed, and which one runs first alternates from seed to
# seed. The raw outputs stay in that directory, one file per run. Then it
# prints:
#   - `run.sh compare` of the two sets (medians, quartiles, spreads, bounds;
#     it needs two seeds or more of all four workloads, and says so);
#   - per workload and end-to-end metric: both medians, the median delta,
#     how many seeds B won, and each seed's delta of B against A;
#   - the failed operations of each side;
#   - the host's speed before each run: the seconds a fixed CPU-bound
#     calibration took (sha256sum of 256 MiB of zeros), per run, with the
#     pairs whose two calibrations differ by more than 10 % flagged;
#   - the diff of the work-ledger golden (`crates/bench/tests/ledger.txt`)
#     that each tree rewrites for itself.
#
# --lto builds both trees with fat LTO and one codegen unit. The two
# CARGO_PROFILE_RELEASE_* variables are set in the environment of the builds
# (and of run.sh, which builds before it runs); no file changes. A delta that
# the LTO build erases or reverses is code placement, not work.
#
# A report, not a gate: it exits 0 whatever the numbers say.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() {
    echo "usage: scripts/pairs.sh <rev-a> <rev-b> --workload W[,W...] --seeds N..M [--lto]" >&2
    exit 2
}

[ "$#" -ge 2 ] || usage
rev_a="$1"
rev_b="$2"
shift 2
workloads=""
seeds=""
lto=0
while [ "$#" -gt 0 ]; do
    case "$1" in
    --workload) workloads="${2:-}" && shift 2 || usage ;;
    --seeds) seeds="${2:-}" && shift 2 || usage ;;
    --lto) lto=1 && shift ;;
    *) usage ;;
    esac
done
first="${seeds%%..*}"
last="${seeds##*..}"
[[ -n "$workloads" && "$first" =~ ^[0-9]+$ && "$last" =~ ^[0-9]+$ ]] || usage
[ "$first" -le "$last" ] || usage

if [ "$lto" -eq 1 ]; then
    export CARGO_PROFILE_RELEASE_LTO=fat CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1
fi
# Each tree builds into its own target directory.
unset CARGO_TARGET_DIR

work="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"
echo "pairs.sh: trees, builds and raw outputs in $work" >&2
for side in a b; do
    if [ "$side" = a ]; then rev="$rev_a"; else rev="$rev_b"; fi
    mkdir -p "$work/$side" "$work/out/$side" "$work/cal/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
    echo "pairs.sh: building $side = $rev ($(git -C "$repo" rev-parse --short "$rev"))" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
done
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$work/b/BENCHMARK.json")"

# Seconds a fixed CPU-bound job takes on this host now.
calibrate() {
    local start end
    start="$(date +%s.%N)"
    head -c 268435456 /dev/zero | sha256sum >/dev/null
    end="$(date +%s.%N)"
    awk -v s="$start" -v e="$end" 'BEGIN { printf "%.3f\n", e - s }'
}

one() { # side seed workload
    local out="$work/out/$1/$3.$2.out"
    calibrate >"$work/cal/$1/$3.$2"
    "$work/$1/benchmark/run.sh" --workload "$3" --seed "$2" --seconds "$seconds" \
        --trace 0 >"$out" || echo "pairs.sh: $1 $3 seed $2 exited non-zero" >&2
}

for seed in $(seq "$first" "$last"); do
    index=0
    for workload in ${workloads//,/ }; do
        if [ $(((seed - first + index) % 2)) -eq 0 ]; then
            one a "$seed" "$workload"
            one b "$seed" "$workload"
        else
            one b "$seed" "$workload"
            one a "$seed" "$workload"
        fi
        index=$((index + 1))
    done
done

echo "## run.sh compare (A = $rev_a, B = $rev_b, seeds $first..$last$([ "$lto" -eq 1 ] && echo ', fat LTO'))"
echo
"$work/b/benchmark/run.sh" compare "$work/out/a" "$work/out/b" || true

# A metric's value in a run's result line (its last line).
value() { # file metric
    tail -n 1 "$1" | grep -o "\"$2\": {\"value\": [^,}]*" | sed 's/.*: //' || true
}

# The end-to-end metrics and which way is better, from BENCHMARK.json.
metrics="$(awk '/"end_to_end"/ { on = 1 } on && /"name"/ { print } on && /\]/ { exit }' \
    "$work/b/BENCHMARK.json" |
    sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p')"

echo
echo "## Per-seed pairs (Δ = B against A; won = seeds where B is better)"
echo
echo "| workload | metric | A median | B median | Δ median | B won | Δ per seed |"
echo "|---|---|---|---|---|---|---|"
for workload in ${workloads//,/ }; do
    while read -r metric better; do
        for seed in $(seq "$first" "$last"); do
            echo "$(value "$work/out/a/$workload.$seed.out" "$metric")" \
                "$(value "$work/out/b/$workload.$seed.out" "$metric")"
        done | awk -v w="$workload" -v m="$metric" -v better="$better" '
            function show(v) { return sprintf(v >= 1000 || v <= -1000 ? "%.0f" : "%.4g", v) }
            function median(x, n,    i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
                return n % 2 ? x[(n + 1) / 2] : (x[n / 2] + x[n / 2 + 1]) / 2
            }
            NF == 2 && $1 != 0 {
                n++; a[n] = $1; b[n] = $2
                d = 100 * ($2 - $1) / $1
                deltas = deltas sprintf("%s%+.1f%%", n > 1 ? " " : "", d)
                if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) won++
            }
            END {
                if (n == 0) { printf "| %s | %s | – | – | – | – | no paired values |\n", w, m; exit }
                ma = median(a, n); mb = median(b, n)
                printf "| %s | %s | %s | %s | %+.1f%% | %d/%d | %s |\n",
                    w, m, show(ma), show(mb), ma ? 100 * (mb - ma) / ma : 0, won, n, deltas
            }'
    done <<<"$metrics"
done

echo
for side in a b; do
    failed="$(cat "$work/out/$side"/*.out | sed -n 's/.*"failed": \([0-9]*\).*/\1/p' |
        awk '{ s += $1 } END { print s + 0 }')"
    echo "failed operations, $side: $failed"
done

echo
echo "## Host speed (seconds to sha256sum 256 MiB before each run; a report, not a gate)"
echo
echo "| workload | seed | A s | B s | B/A | flag |"
echo "|---|---|---|---|---|---|"
for workload in ${workloads//,/ }; do
    for seed in $(seq "$first" "$last"); do
        echo "$workload $seed $(cat "$work/cal/a/$workload.$seed") $(cat "$work/cal/b/$workload.$seed")"
    done
done | awk '{
    ratio = $4 / $3
    flag = (ratio > 1.1 || ratio < 1 / 1.1) ? "host speed differs > 10 %" : ""
    printf "| %s | %s | %s | %s | %.3f | %s |\n", $1, $2, $3, $4, ratio, flag
}'

echo
echo "## Work ledger (each tree's golden, rewritten by its own test; diff A → B)"
echo
for side in a b; do
    if [ -f "$work/$side/crates/bench/tests/work_ledger.rs" ]; then
        (cd "$work/$side" && WORK_LEDGER_UPDATE=1 cargo test --offline -q \
            -p sc-bench --test work_ledger >&2) ||
            echo "pairs.sh: the work ledger failed in $side" >&2
    fi
done
ledger=crates/bench/tests/ledger.txt
if [ -f "$work/a/$ledger" ] && [ -f "$work/b/$ledger" ]; then
    if diff -u --label "A $rev_a" --label "B $rev_b" "$work/a/$ledger" "$work/b/$ledger"; then
        echo "identical"
    fi
else
    echo "no work ledger in one of the trees"
fi
