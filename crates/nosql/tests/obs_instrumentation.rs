//! End-to-end instrumentation test on a **disk-backed** engine: flush and
//! compaction spans must record non-zero durations and byte counts, and the
//! commit-log / memtable / read-path counters must track the workload.
//!
//! Runs as its own integration-test binary so the process-global registry
//! only sees this file's traffic; deltas are still used where cargo runs
//! the two tests here in parallel threads.

use sc_nosql::{Db, OpenOptions};
use sc_obs::Registry;
use sc_storage::Vfs;

fn disk_db(tag: &str) -> (Db, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("sc-nosql-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = Vfs::disk(&dir).expect("temp dir is writable");
    let db = Db::open(
        OpenOptions::default()
            .vfs(vfs)
            // Tiny thresholds so a modest workload exercises many flushes
            // and at least one tiered compaction.
            .memtable_flush_bytes(512)
            .compaction_threshold(3),
    )
    .expect("fresh disk engine opens");
    (db, dir)
}

fn workload(db: &Db, rows: usize) {
    db.execute_cql("CREATE KEYSPACE obsks").expect("ddl");
    db.execute_cql("CREATE TABLE obsks.t (id int, v text, PRIMARY KEY (id))")
        .expect("ddl");
    for i in 0..rows {
        db.execute_cql(&format!(
            "INSERT INTO obsks.t (id, v) VALUES ({i}, 'value-{i}-padding-padding-padding')"
        ))
        .expect("insert");
    }
    for i in (0..rows).step_by(7) {
        db.execute_cql(&format!("SELECT v FROM obsks.t WHERE id = {i}"))
            .expect("select");
    }
}

#[test]
fn disk_backed_flush_and_compaction_spans_record_time_and_bytes() {
    let before = Registry::global().snapshot();
    let (db, dir) = disk_db("spans");
    workload(&db, 400);
    // Merges run on the background pool: let them finish before reading
    // the registry, and stop the engine before removing its directory.
    db.drain_compactions();
    let after = Registry::global().snapshot();
    drop(db);
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let delta =
        |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).map_or(0, |v| v);
    let hist = |name: &str| after.histogram(name).cloned().unwrap_or_default();
    let hist_before = |name: &str| before.histogram(name).cloned().unwrap_or_default();

    // The tiny thresholds force many flushes and at least one merge run.
    let flush_ns = hist("nosql.flush.duration_ns");
    let flush_before = hist_before("nosql.flush.duration_ns");
    assert!(
        flush_ns.count > flush_before.count,
        "workload must flush at least once"
    );
    assert!(
        flush_ns.sum > flush_before.sum,
        "flush durations are non-zero"
    );
    assert!(flush_ns.min > 0, "every flush duration is non-zero ns");
    let flush_bytes = hist("nosql.flush.bytes");
    assert!(
        flush_bytes.count > hist_before("nosql.flush.bytes").count,
        "a flush span carries its SSTable's size"
    );
    assert!(flush_bytes.sum > hist_before("nosql.flush.bytes").sum);
    assert!(flush_bytes.min > 0, "every flush wrote bytes");

    let compaction_ns = hist("nosql.compaction.duration_ns");
    assert!(
        compaction_ns.count > hist_before("nosql.compaction.duration_ns").count,
        "threshold 3 must have triggered compaction"
    );
    assert!(
        compaction_ns.min > 0,
        "every compaction duration is non-zero ns"
    );
    assert!(delta("nosql.compaction.bytes_in") > 0, "merges read bytes");
    assert!(
        delta("nosql.compaction.bytes_out") > 0,
        "merges wrote bytes"
    );
    // Tiered merging rewrites overlapping runs: input >= output.
    assert!(delta("nosql.compaction.bytes_in") >= delta("nosql.compaction.bytes_out"));

    // Write- and read-path counters track the workload.
    assert!(delta("nosql.memtable.puts") >= 400);
    assert!(delta("nosql.commitlog.appends") >= 400);
    assert!(delta("nosql.commitlog.append_bytes") > 0);
    assert!(delta("nosql.read.point_queries") >= 400 / 7);
    // The workload ran on a disk VFS, so storage.vfs.* saw real file I/O.
    assert!(delta("storage.vfs.append_ops") > 0);
    assert!(delta("storage.vfs.append_bytes") > 0);
}

#[test]
fn block_cache_counters_track_cold_and_warm_reads() {
    let before = Registry::global().snapshot();
    let (db, dir) = disk_db("cache");
    workload(&db, 300);
    db.flush_all().expect("flush");
    // Cold pass: every queried block misses the cache once, then warm
    // passes are served from it.
    for _pass in 0..3 {
        for i in (0..300).step_by(5) {
            db.execute_cql(&format!("SELECT v FROM obsks.t WHERE id = {i}"))
                .expect("select");
        }
    }
    let stats = db.block_cache_stats();
    db.drain_compactions();
    let after = Registry::global().snapshot();
    drop(db);
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    // The engine-level stats and the global counters tell the same story:
    // cold misses happened, warm hits dominate.
    assert!(stats.misses > 0, "cold pass must miss");
    assert!(stats.hits > stats.misses, "two warm passes must out-hit");
    assert!(delta("nosql.block_cache.miss") >= stats.misses);
    assert!(delta("nosql.block_cache.hit") >= stats.hits);
    // Present-key reads found their rows through the filters.
    assert!(delta("nosql.bloom.hit") > 0);
    let blocks = after
        .histogram("nosql.read.blocks_per_get")
        .cloned()
        .unwrap_or_default();
    assert!(blocks.count > 0, "blocks-per-get histogram recorded");
}

#[test]
fn recovery_span_and_replay_counter_record_a_reopen() {
    let before = Registry::global().snapshot();
    let (db, dir) = disk_db("recovery");
    // Big flush threshold: rows stay in the commit log, so reopening must
    // replay them.
    db.execute_cql("CREATE KEYSPACE rec").expect("ddl");
    db.execute_cql("CREATE TABLE rec.t (id int, v text, PRIMARY KEY (id))")
        .expect("ddl");
    for i in 0..10 {
        db.execute_cql(&format!("INSERT INTO rec.t (id, v) VALUES ({i}, 'x')"))
            .expect("insert");
    }
    let vfs = Vfs::disk(&dir).expect("reopen vfs");
    let reopened = Db::open(OpenOptions::default().vfs(vfs)).expect("recovery");
    drop(reopened);
    let after = Registry::global().snapshot();
    drop(db);
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let replayed = after
        .counter("nosql.recovery.replayed_records")
        .unwrap_or(0)
        - before
            .counter("nosql.recovery.replayed_records")
            .unwrap_or(0);
    assert!(
        replayed >= 10,
        "reopen must replay the logged rows, got {replayed}"
    );
    let rec_ns = after
        .histogram("nosql.recovery.duration_ns")
        .cloned()
        .unwrap_or_default();
    let rec_before = before
        .histogram("nosql.recovery.duration_ns")
        .cloned()
        .unwrap_or_default();
    assert!(rec_ns.count > rec_before.count, "recovery span recorded");
    assert!(rec_ns.sum > rec_before.sum, "recovery duration is non-zero");
}

#[test]
fn operators_are_charged_the_rows_they_emit() {
    let db = Db::open(OpenOptions::default().vfs(Vfs::memory())).expect("engine opens");
    db.execute_cql("CREATE KEYSPACE ops").expect("ddl");
    db.execute_cql("CREATE TABLE ops.bikes (id int, station text, bikes int, PRIMARY KEY (id))")
        .expect("ddl");
    // Rows on disk and in the memtable, so the scan's batches span
    // blocks of both.
    let mut passing = 0;
    let mut stations = std::collections::BTreeSet::new();
    for id in 0..3000i64 {
        let (station, bikes) = (id * 7 % 23, id * 13 % 50);
        db.execute_cql(&format!(
            "INSERT INTO ops.bikes (id, station, bikes) VALUES ({id}, 'st-{station}', {bikes})"
        ))
        .expect("insert");
        if bikes > 20 {
            passing += 1;
            stations.insert(station);
        }
        if id == 2000 {
            db.flush_all().expect("flush");
        }
    }

    sc_obs::set_trace_enabled(true);
    let guard = sc_obs::trace::begin(sc_obs::trace::next_trace_id(), "select");
    let result = db
        .execute_cql("SELECT station, COUNT(*) FROM ops.bikes WHERE bikes > 20 GROUP BY station")
        .expect("select");
    let trace = guard.finish().expect("the trace was collected");
    assert_eq!(result.len(), stations.len());

    let rows_out = |operator: &str| -> u64 {
        let spans = trace.spans.iter().filter(|s| s.name == operator);
        spans
            .map(|s| s.attrs[sc_obs::trace::Attr::OpRowsOut as usize])
            .sum()
    };
    assert_eq!(rows_out("FullScan"), passing, "rows that pass the residual");
    assert_eq!(
        rows_out("Aggregate"),
        stations.len() as u64,
        "one per group"
    );
}
