//! Engine-level filter effectiveness: absent-key point queries are answered
//! by the key fences and bloom filters without reading data blocks, and
//! the seeded workload's observed false-positive rate stays under 2%.
//!
//! Runs as its own integration-test binary (single test) so the
//! process-global registry deltas are not polluted by parallel tests.

use sc_nosql::{Db, OpenOptions};
use sc_obs::Registry;

#[test]
fn absent_key_queries_skip_data_blocks_with_low_fp_rate() {
    let db = Db::open(
        OpenOptions::default()
            // Small flushes, high compaction threshold: the keys spread
            // over several live SSTables so every get probes a stack.
            // Inline merges: the same layout on every run.
            .memtable_flush_bytes(2048)
            .compaction_threshold(64)
            .compaction_threads(0),
    )
    .unwrap();
    db.execute_cql("CREATE KEYSPACE fp").unwrap();
    db.execute_cql("CREATE TABLE fp.t (id int, v text, PRIMARY KEY (id))")
        .unwrap();
    // Even ids only, so every odd id is an in-range absent key.
    for i in (0..4000).step_by(2) {
        db.execute_cql(&format!(
            "INSERT INTO fp.t (id, v) VALUES ({i}, 'row-{i}-padding-padding')"
        ))
        .unwrap();
    }
    db.flush_all().unwrap();

    let hist_sum = |snap: &sc_obs::RegistrySnapshot, name: &str| {
        snap.histogram(name).cloned().unwrap_or_default().sum
    };
    let before = Registry::global().snapshot();
    let mut probes = 0u64;
    for i in (1..4000).step_by(4) {
        probes += 1;
        let r = db
            .execute_cql(&format!("SELECT v FROM fp.t WHERE id = {i}"))
            .unwrap();
        assert!(r.is_empty(), "id {i} was never written");
    }
    let after = Registry::global().snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);

    // Sequential inserts give each SSTable a narrow id range, so the key
    // fences alone reject most (sstable, key) probes; the bloom filter is
    // consulted only by the table(s) whose range admits the key and
    // answers nearly all of those without touching data.
    let misses = delta("nosql.bloom.miss");
    let fps = delta("nosql.bloom.false_positive");
    assert_eq!(delta("nosql.bloom.hit"), 0, "no absent query may hit");
    assert!(
        misses + fps > probes / 2,
        "filters answered in-range probes ({misses}+{fps} of {probes})"
    );
    let fp_rate = fps as f64 / (misses + fps) as f64;
    assert!(fp_rate < 0.02, "false-positive rate {fp_rate} >= 2%");

    // Data blocks were read *only* for false positives — the histogram's
    // block total across all absent gets equals the FP count exactly.
    let blocks = hist_sum(&after, "nosql.read.blocks_per_get")
        - hist_sum(&before, "nosql.read.blocks_per_get");
    assert_eq!(blocks, fps, "absent gets read blocks beyond FP probes");

    // Beyond the key fences not even the filter is consulted: zero blocks,
    // zero filter traffic.
    let fence_before = Registry::global().snapshot();
    for i in [-5, -1, 4001, 5000, 999_999] {
        let r = db
            .execute_cql(&format!("SELECT v FROM fp.t WHERE id = {i}"))
            .unwrap();
        assert!(r.is_empty());
    }
    let fence_after = Registry::global().snapshot();
    let fence_delta = |name: &str| {
        fence_after.counter(name).unwrap_or(0) - fence_before.counter(name).unwrap_or(0)
    };
    assert_eq!(fence_delta("nosql.bloom.miss"), 0);
    assert_eq!(fence_delta("nosql.bloom.false_positive"), 0);
    assert_eq!(
        hist_sum(&fence_after, "nosql.read.blocks_per_get")
            - hist_sum(&fence_before, "nosql.read.blocks_per_get"),
        0,
        "fence-rejected lookups must read zero data blocks"
    );
}
