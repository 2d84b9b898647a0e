//! Crash-recovery integration tests: the full crash matrix, repeated random
//! crashes in one history, and the torn-commit-log regression.

use sc_encoding::Rng;
use sc_nosql::crashtest::{self, Sweep};
use sc_nosql::{Db, NosqlError, OpenOptions};
use sc_storage::{StorageError, Vfs};
use std::collections::BTreeMap;

/// The acceptance sweep: crash at EVERY mutating storage op of the workload
/// (well over 100 points) and require exact acked-write recovery each time.
#[test]
fn full_crash_matrix_covers_every_op() {
    let report = crashtest::sweep(Sweep::Statements, 0xC0FFEE, None).unwrap();
    assert!(
        report.total_ops >= 100,
        "workload too small for the acceptance bar: {} ops",
        report.total_ops
    );
    assert_eq!(report.points_tested as u64, report.total_ops);
    assert_eq!(
        report.crashes_fired, report.points_tested,
        "every armed point must fire"
    );
}

/// The bulk variant: multi-row inserts of one to several chunks between
/// single statements, crashed at every op. An in-flight insert must come
/// back as a prefix of whole rows holding every chunk whose commit-log
/// append completed.
#[test]
fn bulk_crash_matrix_covers_every_op() {
    let report = crashtest::sweep(Sweep::Bulk, 0xB01C, None).unwrap();
    assert_eq!(report.points_tested as u64, report.total_ops);
    assert_eq!(report.crashes_fired, report.points_tested);
    assert!(report.in_flight_survived > 0, "{report:?}");
}

/// The concurrent variant: writer sessions share group-commit batches, so
/// crash points tear multi-session batches. Every cell must recover exactly
/// the acked writes (plus, at most, the exact lost-ack in-flight inserts).
#[test]
fn concurrent_crash_matrix_subset() {
    let report = crashtest::sweep(Sweep::Concurrent, 0xD1CE, Some(32)).unwrap();
    assert_eq!(report.points_tested, 32);
    // Op counts shift a little with thread scheduling, so late points may
    // land past a given run's actual op count — but the bulk must fire.
    assert!(
        report.crashes_fired >= report.points_tested / 2,
        "too few crashes fired: {report:?}"
    );
}

fn tiny(vfs: Vfs) -> OpenOptions {
    OpenOptions::default()
        .vfs(vfs)
        .memtable_flush_bytes(512)
        .compaction_threshold(3)
        // Deterministic op counts, and no background merge surviving a
        // "crashed" engine to scribble on the VFS while the next open's
        // recovery is reading it.
        .compaction_threads(0)
}

fn read_all(db: &mut Db) -> BTreeMap<i64, i64> {
    let r = db.execute_cql("SELECT id, v FROM p.t").unwrap();
    r.iter()
        .map(|row| (row.get_int("id").unwrap(), row.get_int("v").unwrap()))
        .collect()
}

fn materialize(oracle: &BTreeMap<i64, Option<i64>>) -> BTreeMap<i64, i64> {
    oracle
        .iter()
        .filter_map(|(k, v)| v.map(|v| (*k, v)))
        .collect()
}

/// One engine history with several crashes in it: random puts, deletes,
/// flushes and compactions, a crash at a random op, recovery — repeated.
/// After every recovery the surviving state must be the acked writes (the
/// one in-flight statement may or may not have stuck).
#[test]
fn repeated_random_crashes_never_lose_acked_writes() {
    for seed in 0..6u64 {
        let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 0xBAD_5EED ^ seed);
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let mut db = Db::open(tiny(vfs.clone())).unwrap();
        db.execute_cql("CREATE KEYSPACE p").unwrap();
        db.execute_cql("CREATE TABLE p.t (id int, v int, PRIMARY KEY (id))")
            .unwrap();
        let mut oracle: BTreeMap<i64, Option<i64>> = BTreeMap::new();
        for round in 0..5 {
            handle.crash_at(handle.ops() + 1 + rng.gen_range(60));
            let in_flight: Option<(i64, Option<i64>)> = loop {
                let id = rng.gen_range(32) as i64;
                let action = rng.gen_range(12);
                let (res, effect) = if action < 7 {
                    let v = rng.gen_range(1000) as i64;
                    (
                        db.execute_cql(&format!("INSERT INTO p.t (id, v) VALUES ({id}, {v})"))
                            .map(drop),
                        Some((id, Some(v))),
                    )
                } else if action < 9 {
                    (
                        db.execute_cql(&format!("DELETE FROM p.t WHERE id = {id}"))
                            .map(drop),
                        Some((id, None)),
                    )
                } else if action < 11 {
                    (db.flush_all(), None)
                } else {
                    (db.compact_all(), None)
                };
                match res {
                    Ok(()) => {
                        if let Some((id, v)) = effect {
                            oracle.insert(id, v);
                        }
                    }
                    Err(NosqlError::Storage(StorageError::Injected { .. })) => break effect,
                    Err(e) => panic!("seed {seed} round {round}: unexpected error {e}"),
                }
            };
            handle.disarm();
            db = Db::open(tiny(vfs.clone()).recover(true)).unwrap();
            let got = read_all(&mut db);
            let matches_base = got == materialize(&oracle);
            let matches_with_in_flight = in_flight.is_some_and(|(id, v)| {
                let mut with = oracle.clone();
                with.insert(id, v);
                got == materialize(&with)
            });
            assert!(
                matches_base || matches_with_in_flight,
                "seed {seed} round {round}: recovered state diverged from acked writes"
            );
            // What the disk actually holds is the next round's baseline.
            oracle = got.iter().map(|(k, v)| (*k, Some(*v))).collect();
        }
    }
}

/// Regression: a torn final commit-log record must be truncated away, not
/// treated as fatal — and the truncation must be physical, so writes after
/// recovery stay readable through the *next* recovery.
#[test]
fn torn_final_commit_log_record_is_truncated_not_fatal() {
    let vfs = Vfs::memory();
    {
        let db = Db::open(OpenOptions::default().vfs(vfs.clone())).unwrap();
        db.execute_cql("CREATE KEYSPACE p").unwrap();
        db.execute_cql("CREATE TABLE p.t (id int, v int, PRIMARY KEY (id))")
            .unwrap();
        db.execute_cql("INSERT INTO p.t (id, v) VALUES (1, 10)")
            .unwrap();
        db.execute_cql("INSERT INTO p.t (id, v) VALUES (2, 20)")
            .unwrap();
    }
    // Tear the last record mid-frame, as a power cut would.
    let len = vfs.len("commitlog").unwrap();
    vfs.truncate("commitlog", len - 3).unwrap();

    let mut db = Db::open(OpenOptions::default().vfs(vfs.clone()).recover(true)).unwrap();
    assert_eq!(
        read_all(&mut db),
        BTreeMap::from([(1, 10)]),
        "intact record survives, torn one is dropped"
    );
    db.execute_cql("INSERT INTO p.t (id, v) VALUES (3, 30)")
        .unwrap();
    drop(db);

    let mut db = Db::open(OpenOptions::default().vfs(vfs).recover(true)).unwrap();
    assert_eq!(
        read_all(&mut db),
        BTreeMap::from([(1, 10), (3, 30)]),
        "post-recovery write must not land beyond the old tear"
    );
}

/// Regression for SSTable-id reuse after a crash: a merge that dies between
/// writing its output file and publishing the manifest leaves a high-id
/// orphan on disk. Recovery sweeps the orphan away — but `next_sst_id` must
/// be re-seeded *above* it, or the next flush mints the same name and, if
/// that sweep's delete is itself lost to a second crash, stale merge bytes
/// get read back as the new table's data.
#[test]
fn recovered_sst_ids_never_reuse_orphan_ids() {
    let vfs = Vfs::memory();
    {
        let db = Db::open(tiny(vfs.clone())).unwrap();
        db.execute_cql("CREATE KEYSPACE p").unwrap();
        db.execute_cql("CREATE TABLE p.t (id int, v int, PRIMARY KEY (id))")
            .unwrap();
        db.execute_cql("INSERT INTO p.t (id, v) VALUES (1, 10)")
            .unwrap();
        db.flush_all().unwrap();
    }
    // The crashed merge's unpublished output: a high-id orphan the manifest
    // has never heard of.
    vfs.append("p/t/sst-99", b"torn merge output").unwrap();

    let mut db = Db::open(tiny(vfs.clone()).recover(true)).unwrap();
    assert!(
        !vfs.exists("p/t/sst-99"),
        "recovery must sweep the orphan away"
    );
    let before = vfs.list("p/t/sst-").unwrap();
    db.execute_cql("INSERT INTO p.t (id, v) VALUES (2, 20)")
        .unwrap();
    db.flush_all().unwrap();
    let minted: Vec<u64> = vfs
        .list("p/t/sst-")
        .unwrap()
        .into_iter()
        .filter(|f| !before.contains(f))
        .filter_map(|f| f.rsplit('-').next().and_then(|s| s.parse::<u64>().ok()))
        .collect();
    assert!(!minted.is_empty(), "flush minted no new SSTable");
    assert!(
        minted.iter().all(|&id| id > 99),
        "post-recovery flush reused an id at or below the swept orphan's: {minted:?}"
    );
    assert_eq!(read_all(&mut db), BTreeMap::from([(1, 10), (2, 20)]));
}

/// Regression for the recovery age-order bug: a tiered merge's output file
/// has the largest id but belongs mid-sequence in age. Recovery must attach
/// SSTables in manifest (age) order, or younger tables' rows are shadowed.
#[test]
fn recovery_preserves_tiered_age_order() {
    let vfs = Vfs::memory();
    {
        let db = Db::open(tiny(vfs.clone())).unwrap();
        db.execute_cql("CREATE KEYSPACE p").unwrap();
        db.execute_cql("CREATE TABLE p.t (id int, v int, PRIMARY KEY (id))")
            .unwrap();
        // Enough churn over few keys to force tiered merges whose outputs
        // splice into the middle of the age sequence.
        for round in 0..30i64 {
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
    let mut db = Db::open(tiny(vfs).recover(true)).unwrap();
    let expected: BTreeMap<i64, i64> = (0..8).map(|id| (id, 2900 + id)).collect();
    assert_eq!(
        read_all(&mut db),
        expected,
        "stale pre-merge rows resurfaced"
    );
}
