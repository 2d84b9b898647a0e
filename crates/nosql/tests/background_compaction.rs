//! Background-compaction tier: flushes only *schedule* merges; the merge
//! itself runs on the compaction pool, off the commit path.
//!
//! The headline regression here is the write stall: before the pool, a
//! flush that tipped a table over its compaction threshold ran the merge
//! inline inside `commit_writes`, so one slow disk operation froze every
//! writer. The stall-gate test pins a compaction mid-flight on a
//! fault-injected "slow" delete and proves a put still completes.

use sc_nosql::{OpenOptions, SharedDb};
use sc_storage::Vfs;
use std::collections::BTreeMap;

fn setup(db: &SharedDb) {
    db.execute_cql("CREATE KEYSPACE p").unwrap();
    db.execute_cql("CREATE TABLE p.t (id int, v int, PRIMARY KEY (id))")
        .unwrap();
}

fn read_all(db: &SharedDb) -> BTreeMap<i64, i64> {
    let r = db.execute_cql("SELECT id, v FROM p.t").unwrap();
    r.iter()
        .map(|row| (row.get_int("id").unwrap(), row.get_int("v").unwrap()))
        .collect()
}

/// The write-stall proof: a compaction is parked mid-flight on a stalled
/// (fault-injected, arbitrarily slow) input delete, and a put on the same
/// table still commits and reads back — the commit path no longer waits
/// for maintenance I/O.
#[test]
fn put_completes_while_slow_compaction_is_in_flight() {
    let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 0x57A11);
    let db = SharedDb::open(
        OpenOptions::default()
            .vfs(vfs)
            .compaction_threshold(3)
            .compaction_threads(1),
    )
    .unwrap();
    setup(&db);

    // Compaction (and nothing else) deletes SSTable files; park it there.
    handle.stall_deletes("/sst-");
    for round in 0..3i64 {
        for id in 0..8i64 {
            db.execute_cql(&format!(
                "INSERT INTO p.t (id, v) VALUES ({id}, {})",
                round * 100 + id
            ))
            .unwrap();
        }
        db.flush_all().unwrap();
    }
    // The third flush tips the table over the threshold and schedules a
    // background merge, which writes its output and then parks on the gate.
    handle.wait_for_stalled_delete();

    // The put must complete while the merge is still pinned mid-flight.
    db.execute_cql("INSERT INTO p.t (id, v) VALUES (999, 999)")
        .unwrap();
    assert!(
        handle.stalled_deletes() >= 1,
        "compaction finished before the put — the stall proves nothing"
    );
    assert_eq!(
        db.execute_cql("SELECT v FROM p.t WHERE id = 999")
            .unwrap()
            .iter()
            .next()
            .map(|row| row.get_int("v").unwrap()),
        Some(999),
        "the acked put must be readable while compaction is stalled"
    );

    handle.release_deletes();
    db.drain_compactions();
    let mut expected: BTreeMap<i64, i64> = (0..8).map(|id| (id, 200 + id)).collect();
    expected.insert(999, 999);
    assert_eq!(read_all(&db), expected, "merge lost or resurrected rows");
}

/// The pool actually merges: churning one small key range through many
/// flushes must leave a bounded number of SSTables once the queue drains,
/// and the newest values must survive every merge.
#[test]
fn background_pool_bounds_sstable_count() {
    let vfs = Vfs::memory();
    let db = SharedDb::open(
        OpenOptions::default()
            .vfs(vfs.clone())
            .compaction_threshold(3)
            .compaction_threads(2),
    )
    .unwrap();
    setup(&db);
    for round in 0..12i64 {
        for id in 0..8i64 {
            db.execute_cql(&format!(
                "INSERT INTO p.t (id, v) VALUES ({id}, {})",
                round * 100 + id
            ))
            .unwrap();
        }
        db.flush_all().unwrap();
    }
    db.drain_compactions();
    let ssts = vfs.list("p/t/sst-").unwrap();
    assert!(
        ssts.len() < 8,
        "12 flushes left {} SSTables — the pool is not merging: {ssts:?}",
        ssts.len()
    );
    let expected: BTreeMap<i64, i64> = (0..8).map(|id| (id, 1100 + id)).collect();
    assert_eq!(read_all(&db), expected);
}

/// The full maintenance gauntlet: tiny memtables keep flushes (and the
/// background merges they schedule) churning while writers overwrite every
/// key — and a pinned snapshot must keep returning its exact baseline the
/// whole time, because compaction honors the snapshot GC floor. Runs under
/// `SC_NOSQL_YIELD` in the CI concurrency tier, which perturbs the
/// flush-publish/drain and compactor handoff points.
#[test]
fn snapshot_reads_stay_stable_under_background_compaction() {
    let db = SharedDb::open(
        OpenOptions::default()
            .memtable_flush_bytes(512)
            .compaction_threshold(3)
            .compaction_threads(2),
    )
    .unwrap();
    setup(&db);
    for id in 0..16i64 {
        db.execute_cql(&format!("INSERT INTO p.t (id, v) VALUES ({id}, 1)"))
            .unwrap();
    }
    db.flush_all().unwrap();
    let snap = db.snapshot();
    let baseline = {
        let r = snap.execute_cql("SELECT id, v FROM p.t").unwrap();
        r.iter()
            .map(|row| (row.get_int("id").unwrap(), row.get_int("v").unwrap()))
            .collect::<Vec<_>>()
    };
    assert_eq!(baseline.len(), 16);

    std::thread::scope(|s| {
        for w in 0..2i64 {
            let db = &db;
            s.spawn(move || {
                let mut session = db.session();
                session.execute_cql("USE p").unwrap();
                for round in 0..30i64 {
                    for k in 0..8i64 {
                        let id = w * 8 + k;
                        session
                            .execute_cql(&format!(
                                "INSERT INTO t (id, v) VALUES ({id}, {})",
                                round + 2
                            ))
                            .unwrap();
                    }
                }
            });
        }
        let snap = &snap;
        let baseline = &baseline;
        s.spawn(move || {
            for _ in 0..40 {
                let again: Vec<(i64, i64)> = snap
                    .execute_cql("SELECT id, v FROM p.t")
                    .unwrap()
                    .iter()
                    .map(|row| (row.get_int("id").unwrap(), row.get_int("v").unwrap()))
                    .collect();
                assert_eq!(&again, baseline, "snapshot drifted under compaction");
                std::thread::yield_now();
            }
        });
    });

    drop(snap);
    db.drain_compactions();
    let expected: BTreeMap<i64, i64> = (0..16).map(|id| (id, 31)).collect();
    assert_eq!(read_all(&db), expected);
}

/// Dropping the engine with work still queued must finish the queue, not
/// abandon it: every queued merge runs before the pool joins, so a reopen
/// sees the merged layout.
#[test]
fn close_drains_queued_compactions() {
    let vfs = Vfs::memory();
    {
        let db = SharedDb::open(
            OpenOptions::default()
                .vfs(vfs.clone())
                .compaction_threshold(3)
                .compaction_threads(1),
        )
        .unwrap();
        setup(&db);
        for round in 0..6i64 {
            for id in 0..4i64 {
                db.execute_cql(&format!(
                    "INSERT INTO p.t (id, v) VALUES ({id}, {})",
                    round * 10 + id
                ))
                .unwrap();
            }
            db.flush_all().unwrap();
        }
        // No drain: Drop must do it.
    }
    let ssts = vfs.list("p/t/sst-").unwrap();
    assert!(ssts.len() < 6, "drop abandoned queued merges: {ssts:?}");
    let db = SharedDb::open(OpenOptions::default().vfs(vfs).recover(true)).unwrap();
    let expected: BTreeMap<i64, i64> = (0..4).map(|id| (id, 50 + id)).collect();
    assert_eq!(read_all(&db), expected);
}

/// A background merge has no caller to fail: its error must land on
/// `nosql.compaction.errors`, and the merge's inputs must stay readable.
#[test]
fn failed_background_merge_is_counted_and_leaves_inputs_readable() {
    let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 0xE440);
    let files_of = |vfs: &Vfs| {
        let mut files = vfs.list("p/t/sst-").unwrap();
        files.sort();
        files
    };
    {
        // Three SSTables and no merge: this engine's threshold is never met.
        let db = SharedDb::open(
            OpenOptions::default()
                .vfs(vfs.clone())
                .compaction_threads(0),
        )
        .unwrap();
        setup(&db);
        for round in 0..3i64 {
            for id in 0..8i64 {
                db.execute_cql(&format!(
                    "INSERT INTO p.t (id, v) VALUES ({id}, {})",
                    round * 100 + id
                ))
                .unwrap();
            }
            db.flush_all().unwrap();
        }
    }
    let inputs = files_of(&vfs);
    assert_eq!(inputs.len(), 3);

    let db = SharedDb::open(
        OpenOptions::default()
            .vfs(vfs.clone())
            .recover(true)
            .compaction_threshold(3)
            .compaction_threads(1),
    )
    .unwrap();
    let errors = || {
        sc_obs::Registry::global()
            .snapshot()
            .counter("nosql.compaction.errors")
            .unwrap_or(0)
    };
    let before = errors();
    // The storage dies at its next write. With nothing buffered the flush
    // writes nothing and only schedules the merge, whose output append is
    // that write — or comes after it, if the log truncation got there first.
    handle.crash_at(handle.ops());
    let _ = db.flush_all();
    db.drain_compactions();
    handle.disarm();

    assert_eq!(errors() - before, 1, "the failed merge went uncounted");
    let on_disk = files_of(&vfs);
    assert!(
        inputs.iter().all(|f| on_disk.contains(f)),
        "a failed merge deleted an input: {on_disk:?}"
    );
    let expected: BTreeMap<i64, i64> = (0..8).map(|id| (id, 200 + id)).collect();
    assert_eq!(read_all(&db), expected);
}
