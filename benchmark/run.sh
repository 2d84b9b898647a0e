#!/usr/bin/env bash
# The one command: builds the standalone benchmark package offline, fixes the
# allocator environment, and runs one workload.
#
#   benchmark/run.sh --workload <cube_window|row_ingest|point_read|scan_mixed> \
#                    --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh compare <dir-a> <dir-b>
#
# Prints every metric by name with its unit and sample count, then one JSON
# line {"correct", "attempted", "failed", "metrics"}. Exits non-zero on an
# oracle mismatch, past 150 s, or when the build fails (as it does wherever
# the repo's crates/ are missing). A run past --seconds says so on stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac

# Build output goes to stderr so stdout stays the run's own.
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

# Scans allocate the whole table per query and flushes whole SSTables; left
# to its defaults glibc serves those with mmap/munmap and trims the heap
# after each, and the page faults that follow were the largest noise source.
# One arena, no mmap below 32 MiB, no trimming, and the heap on transparent
# huge pages where the kernel offers them (512 times fewer faults).
export MALLOC_ARENA_MAX=1
export GLIBC_TUNABLES="glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824:glibc.malloc.top_pad=67108864:glibc.malloc.hugetlb=1"

case "${1:-}" in
  compare) exec "$target/release/sc-benchmark" "$@" ;;
  *) exec "$target/release/sc-benchmark" "$@" --out "$here/out" ;;
esac
