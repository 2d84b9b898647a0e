#!/usr/bin/env bash
# Tier-1 verification: formatting, offline release build, clippy with
# warnings denied, full test suite.
# Runs with zero network access — the workspace has no external
# dependencies. Performance is measured elsewhere: `bash benchmark/run.sh`.
# `scripts/loc.sh [--since <rev>] [path...]` reports non-test Rust lines per
# crate or path (with `--since`: parent, change and delta) for net-negative
# PRs; it is a report, not a gate, and does not run here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy (every target, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings, such as broken links, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark package still compiles against the crates' public API"
# benchmark/ is a standalone package the benchmark driver builds from its
# own checkout; checking it here turns an API break into a tier-1 failure.
CARGO_TARGET_DIR=.bench_build \
    cargo check --offline --locked --quiet --manifest-path benchmark/Cargo.toml

echo "==> benchmark package's own tests"
# Its workloads' oracles and harness pieces, against the crates as they
# are now (same target dir as the check above).
CARGO_TARGET_DIR=.bench_build \
    cargo test --offline --locked -q --manifest-path benchmark/Cargo.toml

echo "==> concurrency tier (release, seeded yield injector)"
# Release mode frees the real interleavings; SC_NOSQL_YIELD arms the
# deterministic schedule perturber at engine synchronization points so the
# writer/reader races, scans racing flushes, the concurrent crash matrix,
# and the background compaction pool (concurrent flushes + merges + pinned
# snapshot reads) explore far more schedules than free-running threads
# would.
for yield_seed in 7 1311; do
    SC_NOSQL_YIELD="$yield_seed" \
        cargo test -q --release -p sc-nosql \
        --test concurrent --test crash_matrix --test background_compaction
done

echo "==> concurrency tier under CPU contention (three copies at once)"
# Starved threads reach interleavings the yield injector does not: this is
# the load that exposes work a crashed engine leaves running into the next
# engine's recovery (a queued merge deleting its inputs after the manifest
# that names them was read — about one run in 150 when it can happen).
# obs_instrumentation runs the same way: its disk-backed engines merge in
# the background, and a test that reads the registry or removes the
# directory before those merges finish fails only when it is starved.
for test_name in concurrent obs_instrumentation; do
    test_bin="$(cargo test --release -p sc-nosql --test "$test_name" --no-run 2>&1 |
        sed -n 's/^ *Executable .*(\(.*\))$/\1/p')"
    copies=()
    for _ in 1 2 3; do
        "$test_bin" -q &
        copies+=($!)
    done
    for copy in "${copies[@]}"; do
        wait "$copy"
    done
done

echo "==> crash-matrix smoke (64 points, sequential + bulk + concurrent sweeps)"
cargo run --release -p sc-bench --bin repro -- crashtest --points 64

echo "==> observability smoke (repro obs emits a JSON exposition)"
obs_out="$(cargo run --release -p sc-bench --bin repro -- obs)"
echo "$obs_out" | grep -q '"histograms"' || {
    echo "ci.sh: repro obs produced no JSON exposition" >&2
    exit 1
}
# A finished stream run adds its totals to the global registry.
echo "$obs_out" | grep -Eq '^stream_worker_tuples_extracted [1-9]' || {
    echo "ci.sh: repro obs reported no stream.worker.tuples_extracted total" >&2
    exit 1
}

echo "==> streaming smoke (sharded ingest + warehouse store == sequential pipeline)"
# repro stream panics if the sharded cube's facts differ from the
# sequential pipeline's.
cargo run --release -p sc-bench --bin repro -- stream --scale 0.01 --threads 2

echo "==> paper printers (Table 4 at scale 0.01, Figures 2-4)"
# table4 stores every Table 2 window in all four schema models, the
# relational engine included; a model missing from the measured block means
# its store step stopped printing.
table4_out="$(cargo run --release -p sc-bench --bin repro -- table4 --scale 0.01)"
table4_measured="$(echo "$table4_out" | sed -n '/^Table 4:/,/^Paper.s full-scale reference:/p')"
for model in MySQL-DWARF MySQL-Min NoSQL-DWARF NoSQL-Min; do
    echo "$table4_measured" | grep -Eq "^$model +[^ ]" || {
        echo "ci.sh: repro table4 printed no measured $model row" >&2
        exit 1
    }
done
for figure in fig2 fig3 fig4; do
    cargo run --release -p sc-bench --bin repro -- "$figure" >/dev/null
done

echo "==> store-path gate (NoSQL-DWARF's node and cell rows never reach the commit log)"
# They are ingested as sorted runs (Db::ingest_sorted): in every window,
# none of them is a memtable put or a commit-log byte.
store_path="$(cargo run --release -p sc-bench --bin repro -- table5 --scale 0.01 --stats |
    sed -n '/^NoSQL-DWARF store path/,/^$/p')"
echo "$store_path" | grep -Eq '^rows( +[1-9][0-9]*){5}$' || {
    echo "ci.sh: repro table5 --stats printed no NoSQL-DWARF store path" >&2
    exit 1
}
for row in "memtable puts" "commit-log bytes"; do
    echo "$store_path" | grep -Eq "^$row( +0){5}$" || {
        echo "ci.sh: NoSQL-DWARF's node and cell rows reached the engine's $row:" >&2
        echo "$store_path" >&2
        exit 1
    }
done

echo "==> examples (each asserts its own results)"
# bikes_pipeline panics if the cube its StreamPipeline builds from the
# rendered XML differs from Dwarf::build over the XML-free tuples;
# quickstart asserts store -> query -> rebuild, cube_queries the query
# primitives, multi_source_fusion five feeds through one warehouse.
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "--> $name"
    cargo run --release --example "$name"
done

echo "==> sqllogictest tier (golden .slt scripts, memtable + flushed + compacted)"
cargo test -q --release -p sc-nosql --test sqllogic

echo "==> store-backed query smoke (warm identical query fetches zero rows, cold one shares blocks)"
query_out="$(cargo run --release -p sc-bench --bin repro -- query --scale 0.02 --explain)"
# EXPLAIN smoke: a single-pk point query must plan to the bloom-checked
# point-scan operator, never a full scan.
echo "$query_out" | grep -q 'PointScan smartcity.dwarf_node key=.* (bloom+fence checked)' || {
    echo "ci.sh: EXPLAIN of a pk point query does not name PointScan" >&2
    exit 1
}
explain_tree="$(echo "$query_out" | sed -n '/EXPLAIN SELECT childrenIds/,/^$/p')"
if echo "$explain_tree" | grep -q 'FullScan'; then
    echo "ci.sh: EXPLAIN of a pk point query fell back to a full scan" >&2
    exit 1
fi
echo "$query_out" | grep -q 'warm point query: store rows fetched 0' || {
    echo "ci.sh: repro query did not report a zero-fetch warm query" >&2
    exit 1
}
# A key batch reads each data block once: the cold point query's cell
# reads share blocks, so it reads fewer blocks than it fetches rows.
cold_line="$(echo "$query_out" | grep '^cold point query: ' || true)"
cold_rows="$(echo "$cold_line" | sed -n 's/.*store rows fetched \([0-9]*\),.*/\1/p')"
cold_blocks="$(echo "$cold_line" | sed -n 's/.*data blocks read \([0-9]*\),.*/\1/p')"
if [ -z "$cold_rows" ] || [ -z "$cold_blocks" ] || [ "$cold_blocks" -ge "$cold_rows" ]; then
    echo "ci.sh: cold point query read ${cold_blocks:-?} data blocks for ${cold_rows:-?} rows (a block per key)" >&2
    exit 1
fi
echo "$query_out" | grep -q 'absent point lookups beyond the key fences: data blocks read 0' || {
    echo "ci.sh: absent-key point lookups read data blocks (fence/filter regression)" >&2
    exit 1
}

echo "==> server smoke (loopback round trip + metrics scrape + drained shutdown)"
serve_out="$(cargo run --release -p sc-bench --bin repro -- serve --smoke)"
echo "$serve_out" | grep -q 'server smoke: round-trip ok' || {
    echo "ci.sh: repro serve --smoke failed its INSERT/SELECT round trip" >&2
    exit 1
}
echo "$serve_out" | grep -q 'server smoke: metrics ok (server_requests present' || {
    echo "ci.sh: /metrics scrape missing the server_requests series" >&2
    exit 1
}
echo "$serve_out" | grep -q 'server smoke: traces ok' || {
    echo "ci.sh: /debug/traces retained no trace or its Chrome export failed" >&2
    exit 1
}
echo "$serve_out" | grep -q 'server smoke: shutdown ok' || {
    echo "ci.sh: server did not shut down cleanly" >&2
    exit 1
}

echo "ci.sh: all green"
