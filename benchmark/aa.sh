#!/usr/bin/env bash
# A/A check: two sets of runs of the same build, alternating which set runs
# first, compared by the benchmark's own bounds.
#
#   benchmark/aa.sh [runs-per-set]     # default 5, at least 5
#
# Set A uses seeds 1..n and set B seeds 101..100+n, as the driver gives every
# run another seed. Leaves the runs in benchmark/out/aa/{a,b} and prints the
# table committed as benchmark/AA.md; exits non-zero when any metric ×
# workload pair is outside its bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-5}"
if [ "$runs" -lt 5 ]; then
  echo "aa.sh: at least 5 runs per set" >&2
  exit 2
fi
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"

out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out/a" "$out/b"

one() { # set seed workload
  "$here/run.sh" --workload "$3" --seed "$2" --seconds "$seconds" --trace 0 \
    > "$out/$1/$3.$2.out"
}

for i in $(seq 1 "$runs"); do
  for workload in cube_window row_ingest point_read scan_mixed; do
    if [ $((i % 2)) -eq 1 ]; then
      one a "$i" "$workload"
      one b "$((100 + i))" "$workload"
    else
      one b "$((100 + i))" "$workload"
      one a "$i" "$workload"
    fi
  done
done

"$here/run.sh" compare "$out/a" "$out/b"
