//! Concurrency tier: writer and reader sessions racing over one engine.
//!
//! Four properties are checked, the first three with a per-key history
//! oracle:
//!
//! * **Monotone reads** — every row version carries a writer-side version
//!   number; a reader may never observe a key's value going backwards, and
//!   may never observe a version nobody acknowledged writing yet.
//! * **Snapshot stability** — a pinned [`sc_nosql::Snapshot`] returns the
//!   same rows no matter how much the writers churn underneath it.
//! * **Durability under contention** — with a fault-injecting VFS armed to
//!   crash mid-run, recovery must surface, for every key, either its last
//!   acknowledged version or the one in-flight version whose ack the crash
//!   swallowed.
//! * **No scan skew across a flush** — a full scan or a posting scan that
//!   races threshold flushes and background merges still counts every row
//!   acknowledged before the statement began.
//!
//! `scripts/ci.sh` runs this tier in release mode with the `SC_NOSQL_YIELD`
//! schedule perturber armed, which widens the set of interleavings far
//! beyond what free-running debug threads reach.

use sc_nosql::{crashtest, Db, NosqlError, OpenOptions, SharedDb};
use sc_storage::{StorageError, Vfs};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::Duration;

const WRITERS: usize = 4;
const READERS: usize = 4;
const KEYS_PER_WRITER: usize = 8;
const ROUNDS: u64 = 60;

fn setup(db: &SharedDb) {
    db.execute_cql("CREATE KEYSPACE c").unwrap();
    db.execute_cql("CREATE TABLE c.t (id int, v int, PRIMARY KEY (id))")
        .unwrap();
}

fn read_point(db: &SharedDb, id: i64) -> Option<i64> {
    let r = db
        .execute_cql(&format!("SELECT v FROM c.t WHERE id = {id}"))
        .unwrap();
    r.iter().next().map(|row| row.get_int("v").unwrap())
}

/// N writer sessions bump per-key version counters while M readers assert
/// that no key ever appears to move backwards and no unwritten version is
/// ever visible. (An acknowledged write may *lag* briefly — the visible
/// watermark waits for older in-flight writes — but it may never regress,
/// and once the writers drain, every key must read its final version.)
#[test]
fn point_reads_are_monotone_under_contention() {
    let db = SharedDb::open(OpenOptions::default().group_commit_delay(Duration::from_micros(100)))
        .unwrap();
    setup(&db);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = &db;
                s.spawn(move || {
                    let mut session = db.session();
                    session.execute_cql("USE c").unwrap();
                    for round in 1..=ROUNDS {
                        for k in 0..KEYS_PER_WRITER {
                            let id = w * KEYS_PER_WRITER + k;
                            session
                                .execute_cql(&format!(
                                    "INSERT INTO t (id, v) VALUES ({id}, {round})"
                                ))
                                .unwrap();
                        }
                    }
                })
            })
            .collect();
        for r in 0..READERS {
            let db = &db;
            let done = &done;
            s.spawn(move || {
                let mut last: BTreeMap<usize, i64> = BTreeMap::new();
                let mut step = r;
                while !done.load(Ordering::Acquire) {
                    let id = step % (WRITERS * KEYS_PER_WRITER);
                    step = step.wrapping_add(7);
                    let got = read_point(db, id as i64).unwrap_or(0);
                    assert!(
                        got <= ROUNDS as i64,
                        "key {id}: read version {got} nobody wrote"
                    );
                    let prev = last.insert(id, got).unwrap_or(0);
                    assert!(
                        got >= prev,
                        "key {id}: version went backwards ({prev} -> {got})"
                    );
                }
            });
        }
        for h in writers {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
    });

    // Writers drained: the watermark has settled, every key must read its
    // final version — no lost updates.
    for id in 0..(WRITERS * KEYS_PER_WRITER) as i64 {
        assert_eq!(read_point(&db, id), Some(ROUNDS as i64), "key {id}");
    }
}

/// A pinned snapshot keeps returning the same rows while writers overwrite
/// every key and insert new ones underneath it.
#[test]
fn snapshots_stay_stable_while_writers_churn() {
    let db = SharedDb::open(OpenOptions::default()).unwrap();
    setup(&db);
    for id in 0..32 {
        db.execute_cql(&format!("INSERT INTO c.t (id, v) VALUES ({id}, 1)"))
            .unwrap();
    }
    let snap = db.snapshot();
    let baseline: Vec<(i64, i64)> = snap
        .execute_cql("SELECT id, v FROM c.t")
        .unwrap()
        .iter()
        .map(|row| (row.get_int("id").unwrap(), row.get_int("v").unwrap()))
        .collect();
    assert_eq!(baseline.len(), 32);

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let db = &db;
            s.spawn(move || {
                let mut session = db.session();
                session.execute_cql("USE c").unwrap();
                for round in 0..40 {
                    for k in 0..8 {
                        // Overwrite the snapshotted range and grow past it.
                        let id = (w * 8 + k) as i64;
                        session
                            .execute_cql(&format!(
                                "INSERT INTO t (id, v) VALUES ({id}, {})",
                                round + 2
                            ))
                            .unwrap();
                        session
                            .execute_cql(&format!(
                                "INSERT INTO t (id, v) VALUES ({}, 1)",
                                1000 + id * 100 + round
                            ))
                            .unwrap();
                    }
                }
            });
        }
        let snap = &snap;
        let baseline = &baseline;
        s.spawn(move || {
            for _ in 0..50 {
                let again: Vec<(i64, i64)> = snap
                    .execute_cql("SELECT id, v FROM c.t")
                    .unwrap()
                    .iter()
                    .map(|row| (row.get_int("id").unwrap(), row.get_int("v").unwrap()))
                    .collect();
                assert_eq!(&again, baseline, "snapshot drifted under churn");
                std::thread::yield_now();
            }
        });
    });

    drop(snap);
    // The live view did move on.
    assert_eq!(read_point(&db, 0), Some(41));
}

/// An insert-only writer with a tiny memtable keeps a flush (and, behind
/// it, a background merge) permanently in flight while readers count rows.
/// A flush carries rows memtable → SSTable and drains them only once the
/// SSTable is attached; a scan that took the two layers in the other order
/// could visit each while the rows were in the other and miss rows whose
/// inserts had long returned.
#[test]
fn scans_count_every_acked_row_across_flushes() {
    const ROWS: i64 = 1500;
    let db = SharedDb::open(OpenOptions::default().memtable_flush_bytes(512)).unwrap();
    setup(&db);
    db.execute_cql("CREATE TABLE c.u (id int, v int, PRIMARY KEY (id))")
        .unwrap();
    db.execute_cql("CREATE INDEX ON c.u (v)").unwrap();
    let acked = AtomicI64::new(0);

    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            for id in 0..ROWS {
                for table in ["c.t", "c.u"] {
                    db.execute_cql(&format!("INSERT INTO {table} (id, v) VALUES ({id}, 1)"))
                        .unwrap();
                }
                acked.store(id + 1, Ordering::Release);
            }
        });
        for _ in 0..READERS {
            s.spawn(|| {
                while acked.load(Ordering::Acquire) < ROWS {
                    for cql in [
                        "SELECT COUNT(*) FROM c.t",
                        "SELECT COUNT(*) FROM c.u WHERE v = 1",
                    ] {
                        let floor = acked.load(Ordering::Acquire);
                        let count = db.execute_cql(cql).unwrap().rows()[0][0].as_int();
                        assert!(
                            count >= Some(floor),
                            "{cql}: counted {count:?} with {floor} rows acknowledged"
                        );
                    }
                }
            });
        }
        writer.join().unwrap();
    });
}

fn is_injected(e: &NosqlError) -> bool {
    matches!(e, NosqlError::Storage(StorageError::Injected { .. }))
}

/// Writers and readers race over a fault VFS armed to crash mid-run: each
/// writer owns one key and bumps its version, so per key the recovered
/// value must be the last acked version or the single in-flight one.
/// Readers keep asserting monotonicity right through the crash (reads pass
/// through the dead-process fault layer).
#[test]
fn crash_under_contention_recovers_per_key_history() {
    for seed in 0..4u64 {
        let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 0xFEED ^ seed);
        let db = SharedDb::open(
            OpenOptions::default()
                .vfs(vfs.clone())
                .memtable_flush_bytes(512)
                .group_commit_delay(Duration::from_micros(100)),
        )
        .unwrap();
        setup(&db);
        // Crash somewhere in the concurrent write phase.
        handle.crash_at(handle.ops() + 8 + seed * 11);

        // Per writer/key: (last acked version, in-flight version if any).
        let done = AtomicBool::new(false);
        let outcomes: Vec<(u64, Option<u64>)> = std::thread::scope(|s| {
            let done = &done;
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let db = &db;
                    s.spawn(move || {
                        let mut session = db.session();
                        session.execute_cql("USE c").unwrap();
                        let mut acked = 0u64;
                        for round in 1..=ROUNDS {
                            match session.execute_cql(&format!(
                                "INSERT INTO t (id, v) VALUES ({w}, {round})"
                            )) {
                                Ok(_) => acked = round,
                                Err(e) if is_injected(&e) => return (acked, Some(round)),
                                Err(e) => panic!("writer {w}: unexpected error {e}"),
                            }
                        }
                        (acked, None)
                    })
                })
                .collect();
            for r in 0..READERS {
                let db = &db;
                s.spawn(move || {
                    let mut last = [0i64; WRITERS];
                    let mut step = r;
                    while !done.load(Ordering::Acquire) {
                        let id = step % WRITERS;
                        step = step.wrapping_add(3);
                        let got = read_point(db, id as i64).unwrap_or(0);
                        assert!(
                            got >= last[id],
                            "key {id}: version went backwards across crash ({} -> {got})",
                            last[id]
                        );
                        last[id] = got;
                    }
                });
            }
            let outcomes = writers.into_iter().map(|h| h.join().unwrap()).collect();
            done.store(true, Ordering::Release);
            outcomes
        });
        assert!(
            handle.crashed_at().is_some(),
            "seed {seed}: crash never fired"
        );
        // The crashed process is gone before the disk comes back: dropping
        // the engine drains and joins its compaction pool while every write
        // still fails. A merge left queued would otherwise run after
        // `disarm` and delete its inputs under the recovering engine, which
        // has already read the manifest that names them.
        drop(db);
        handle.disarm();

        let db = Db::open(
            OpenOptions::default()
                .vfs(vfs)
                .memtable_flush_bytes(512)
                .recover(true),
        )
        .unwrap();
        for (w, (acked, in_flight)) in outcomes.iter().enumerate() {
            let r = db
                .execute_cql(&format!("SELECT v FROM c.t WHERE id = {w}"))
                .unwrap();
            let got = r.iter().next().map(|row| row.get_int("v").unwrap() as u64);
            let ok = match got {
                Some(v) => v == *acked || Some(v) == *in_flight,
                None => *acked == 0,
            };
            assert!(
                ok,
                "seed {seed} key {w}: recovered {got:?}, acked {acked}, in-flight {in_flight:?}"
            );
        }
    }
}

/// The crash-matrix concurrent sweep, at a density suitable for every CI
/// run (the full density runs via `repro crashtest`).
#[test]
fn concurrent_crash_matrix_smoke() {
    let report = crashtest::sweep(crashtest::Sweep::Concurrent, 0xAB1E, Some(12)).unwrap();
    assert_eq!(report.points_tested, 12);
    assert!(report.crashes_fired >= 6, "{report:?}");
}
