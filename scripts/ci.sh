#!/usr/bin/env bash
# Tier-1 verification. Each step guards:
# * fmt, release build, clippy and rustdoc with warnings denied — the code
#   compiles offline, is formatted, and lints and docs are clean;
# * cargo test --workspace — every unit, integration and doc test;
# * benchmark package check + tests — the frozen benchmark/ harness still
#   builds against the crates' public API and its oracles hold;
# * concurrency tier — the engine's races and crash matrices, in release
#   under two yield-injector seeds, then under CPU contention;
# * paper printers — `repro` still prints Table 4 for all four models,
#   Figures 2-4, and the store-backed query with its own asserts;
# * store-path gate — NoSQL-DWARF's node and cell rows bypass the memtable
#   and the commit log (`repro table5 --stats`);
# * examples — each asserts its own results;
# * aggregate oracles in release — model check and scan bounds without
#   debug overflow checks;
# * sqllogictest tier — the golden .slt scripts, memtable/flushed/compacted.
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

echo "==> paper printers (Table 4 at scale 0.01, Figures 2-4, store-backed query)"
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
# query asserts its own answers against the in-memory cube (cold, warm,
# range, NoSQL-Min); --explain runs the planner on the store's query shapes.
cargo run --release -p sc-bench --bin repro -- query --scale 0.02 --explain >/dev/null

echo "==> store-path gate (NoSQL-DWARF's node and cell rows never reach the commit log)"
# They are ingested as sorted runs (Db::ingest_columns): in every window,
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

echo "==> aggregate oracles in release (no overflow checks, as the benchmark builds)"
# The workspace tests above run with debug overflow checks; the aggregate
# kernels' counters and exact sums must agree with the naive evaluator
# and the streaming bounds in the profile the benchmark measures too.
cargo test -q --release -p sc-nosql --test model_check --test scan_streaming

echo "==> sqllogictest tier (golden .slt scripts, memtable + flushed + compacted)"
cargo test -q --release -p sc-nosql --test sqllogic

echo "ci.sh: all green"
