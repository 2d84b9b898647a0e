//! `Db::ingest_sorted`: what it refuses (typed, with no file written and no
//! sequence taken), what it accepts, what a pinned snapshot sees of it, and
//! a differential against `Db::insert_rows` over the same seeded rows.

use sc_encoding::Rng;
use sc_nosql::sstable::SsTable;
use sc_nosql::{CqlValue, Db, NosqlError, OpenOptions, QueryResult};
use sc_storage::Vfs;
use std::collections::BTreeMap;

const COLUMNS: [&str; 3] = ["id", "g", "v"];

fn row(id: i64, g: &str, v: i64) -> [CqlValue; 3] {
    [
        CqlValue::Int(id),
        CqlValue::Text(g.to_string()),
        CqlValue::Int(v),
    ]
}

fn rows(ids: impl IntoIterator<Item = i64>) -> Vec<[CqlValue; 3]> {
    ids.into_iter().map(|id| row(id, "g", id * 10)).collect()
}

/// `ks.t (id int, g text, v int)` and `ks.probe (id int)`, merges inline.
fn open(options: OpenOptions) -> Db {
    let db = Db::open(options.compaction_threads(0)).unwrap();
    for ddl in [
        "CREATE KEYSPACE ks",
        "CREATE TABLE ks.t (id int, g text, v int, PRIMARY KEY (id))",
        "CREATE TABLE ks.probe (id int, PRIMARY KEY (id))",
    ] {
        db.execute_cql(ddl).unwrap();
    }
    db
}

/// Every file on `vfs`, with its bytes.
fn disk(vfs: &Vfs) -> BTreeMap<String, Vec<u8>> {
    let files = vfs.list("").unwrap().into_iter();
    files
        .map(|f| (f.clone(), vfs.read_all(&f).unwrap()))
        .collect()
}

/// Takes one sequence and returns it: a probe row ingested into
/// `ks.probe` (no other table is touched), read back off the newest
/// SSTable there.
fn take_seq(db: &Db, vfs: &Vfs) -> u64 {
    let id = db.execute_cql("SELECT id FROM ks.probe").unwrap().len() as i64;
    db.ingest_sorted("ks", "probe", &["id"], [[CqlValue::Int(id)]])
        .unwrap();
    let newest = vfs.list("ks/probe/sst-").unwrap().into_iter().max();
    let sst = SsTable::open(vfs.clone(), newest.unwrap()).unwrap();
    let entries = sst.scan().unwrap();
    entries.iter().map(|e| e.timestamp).max().unwrap()
}

/// Runs `ingest`, which must fail, checks that it wrote no file and took no
/// sequence, and returns its error.
fn refused(
    db: &Db,
    vfs: &Vfs,
    ingest: impl FnOnce(&Db) -> Result<usize, NosqlError>,
) -> NosqlError {
    let seq = take_seq(db, vfs);
    let files = disk(vfs);
    let e = ingest(db).expect_err("the ingest was accepted");
    assert_eq!(disk(vfs), files, "a refused ingest wrote: {e}");
    assert_eq!(
        take_seq(db, vfs),
        seq + 1,
        "a refused ingest took sequences: {e}"
    );
    e
}

/// `e` is `AlreadyExists` with the text `expected` starts with.
fn held(e: NosqlError, expected: &str) {
    assert!(matches!(e, NosqlError::AlreadyExists(_)), "{e}");
    assert!(e.to_string().starts_with(expected), "{e}");
}

#[test]
fn refusals_are_typed_and_leave_no_trace() {
    let vfs = Vfs::memory();
    let db = open(OpenOptions::default().vfs(vfs.clone()));
    db.execute_cql("CREATE TABLE ks.ix (id int, v int, PRIMARY KEY (id))")
        .unwrap();
    db.execute_cql("CREATE INDEX ON ks.ix (v)").unwrap();
    let ingest = |table: &'static str, rows: Vec<[CqlValue; 3]>| {
        move |db: &Db| db.ingest_sorted("ks", table, &COLUMNS, rows)
    };
    let two = |db: &Db, table: &str| {
        db.ingest_sorted("ks", table, &["id", "v"], [[1, 2].map(CqlValue::Int)])
    };

    // A table with a secondary index, and its posting table.
    let e = refused(&db, &vfs, |db| two(db, "ix"));
    assert!(
        matches!(&e, NosqlError::Unsupported(m) if m.contains("secondary indexes")),
        "{e}"
    );
    let e = refused(&db, &vfs, |db| two(db, "ix__idx_v"));
    assert!(
        matches!(&e, NosqlError::Unsupported(m) if m.contains("posting table")),
        "{e}"
    );

    // A key live in the memtable, then in an SSTable.
    db.execute_cql("INSERT INTO ks.t (id, g, v) VALUES (7, 'm', 1)")
        .unwrap();
    let live = "row id = 7 of ks.t already exists";
    held(refused(&db, &vfs, ingest("t", rows([3, 7, 9]))), live);
    db.flush_all().unwrap();
    held(refused(&db, &vfs, ingest("t", rows([1, 7]))), live);
    // A tombstone the memtable holds: a point read would stop at it.
    db.execute_cql("DELETE FROM ks.t WHERE id = 7").unwrap();
    held(refused(&db, &vfs, ingest("t", rows([7]))), live);

    // A key twice among the rows: ascending input, and input that needs
    // the sort.
    let twice = "row id = 21 of ks.t, earlier in the ingested rows,";
    held(
        refused(&db, &vfs, ingest("t", rows([20, 21, 21, 22]))),
        twice,
    );
    held(
        refused(&db, &vfs, ingest("t", rows([30, 21, 25, 21]))),
        twice,
    );

    // A bind error on the last row: nothing before it is written either.
    let mut bad = rows(40..50);
    bad[9][2] = CqlValue::Text("ten".into());
    let e = refused(&db, &vfs, ingest("t", bad));
    assert!(matches!(e, NosqlError::TypeMismatch { .. }), "{e}");
    let r = db.execute_cql("SELECT id FROM ks.t WHERE id = 40").unwrap();
    assert!(r.is_empty());
    let e = refused(&db, &vfs, |db| {
        db.ingest_sorted("ks", "t", &["id", "nope"], [[1, 2].map(CqlValue::Int)])
    });
    assert!(matches!(e, NosqlError::UnknownColumn { .. }), "{e}");
}

#[test]
fn keys_inside_the_fences_or_deleted_on_disk_are_accepted() {
    let vfs = Vfs::memory();
    let db = open(OpenOptions::default().vfs(vfs.clone()));
    db.insert_rows("ks", "t", &COLUMNS, rows([0, 50, 100]))
        .unwrap();
    db.execute_cql("DELETE FROM ks.t WHERE id = 50").unwrap();
    db.flush_all().unwrap();
    // Every key falls between the SSTable's fences; 50 is a tombstone
    // there.
    let ids = [55, 10, 50, 99];
    assert_eq!(db.ingest_sorted("ks", "t", &COLUMNS, rows(ids)).unwrap(), 4);
    let r = db.execute_cql("SELECT id FROM ks.t").unwrap();
    let got: Vec<i64> = r.iter().map(|row| row.get_int("id").unwrap()).collect();
    assert_eq!(got, [0, 10, 50, 55, 99, 100]);
    let r = db.execute_cql("SELECT v FROM ks.t WHERE id = 50").unwrap();
    assert_eq!(r.first().unwrap().get_int("v").unwrap(), 500);

    // The ingested rows took no memtable put and no commit-log byte.
    let writes = db.table_writes("ks", "t").unwrap();
    assert_eq!(writes.memtable_puts, 4, "three inserts and a delete");
    assert_eq!(writes.flushes, 1);
    assert!(writes.commitlog_bytes > 0);
    // A write after the ingest wins over it, in the memtable and on disk.
    db.execute_cql("INSERT INTO ks.t (id, g, v) VALUES (55, 'late', 1)")
        .unwrap();
    for step in [Db::flush_all, Db::compact_all] {
        step(&db).unwrap();
        let r = db.execute_cql("SELECT g FROM ks.t WHERE id = 55").unwrap();
        assert_eq!(r.first().unwrap().get_text("g").unwrap(), "late");
    }
}

#[test]
fn a_snapshot_pinned_before_an_ingest_sees_none_of_it() {
    let vfs = Vfs::memory();
    let db = open(OpenOptions::default().vfs(vfs.clone()));
    db.insert_rows("ks", "t", &COLUMNS, rows([1])).unwrap();
    let snap = db.snapshot();
    db.ingest_sorted("ks", "t", &COLUMNS, rows(2..40)).unwrap();
    let ids =
        |r: QueryResult| -> Vec<i64> { r.iter().map(|row| row.get_int("id").unwrap()).collect() };
    assert_eq!(ids(snap.execute_cql("SELECT id FROM ks.t").unwrap()), [1]);
    let r = snap
        .execute_cql("SELECT id FROM ks.t WHERE id IN (1, 2, 39)")
        .unwrap();
    assert_eq!(ids(r), [1]);
    assert!(snap
        .execute_cql("SELECT id FROM ks.t WHERE id = 20")
        .unwrap()
        .is_empty());
    assert_eq!(db.execute_cql("SELECT id FROM ks.t").unwrap().len(), 39);
    drop(snap);
    // The ingest's SSTable merges with the flushed insert once the pin is
    // gone.
    db.flush_all().unwrap();
    db.compact_all().unwrap();
    assert_eq!(vfs.list("ks/t/sst-").unwrap().len(), 1);
    assert_eq!(db.execute_cql("SELECT id FROM ks.t").unwrap().len(), 39);
}

/// The answers compared between the two engines.
fn answers(db: &Db, probes: &[i64]) -> Vec<QueryResult> {
    let mut out = Vec::new();
    for id in probes {
        out.push(
            db.execute_cql(&format!("SELECT * FROM ks.t WHERE id = {id}"))
                .unwrap(),
        );
    }
    let list: Vec<String> = probes.iter().map(i64::to_string).collect();
    let list = list.join(", ");
    for q in [
        format!("SELECT id, v FROM ks.t WHERE id IN ({list})"),
        "SELECT * FROM ks.t".to_string(),
        "SELECT g, COUNT(*), SUM(v), MAX(v) FROM ks.t GROUP BY g".to_string(),
    ] {
        out.push(db.execute_cql(&q).unwrap());
    }
    out
}

#[test]
fn ingested_and_inserted_tables_answer_alike_in_every_state() {
    for seed in 1..=3u64 {
        let mut rng = Rng::new(seed);
        let options = |vfs: &Vfs| {
            OpenOptions::default()
                .vfs(vfs.clone())
                .compaction_threshold(3)
                .compaction_threads(0)
        };
        let (ingested_vfs, inserted_vfs) = (Vfs::memory(), Vfs::memory());
        let ingested = open(options(&ingested_vfs));
        let inserted = open(options(&inserted_vfs));
        let mut next_id = 0i64;
        let mut probes = vec![-1];
        for batch in 0..7 {
            // A fresh id range, in key order or shuffled.
            let n = 1 + rng.gen_range(300) as i64;
            let mut batch_rows: Vec<[CqlValue; 3]> = (next_id..next_id + n)
                .map(|id| {
                    row(
                        id,
                        &format!("g{}", rng.gen_range(5)),
                        rng.gen_range(1000) as i64,
                    )
                })
                .collect();
            if batch % 2 == 1 {
                for i in (1..batch_rows.len()).rev() {
                    batch_rows.swap(i, rng.gen_range(i as u64 + 1) as usize);
                }
            }
            probes.extend([next_id, next_id + n / 2, next_id + n - 1]);
            next_id += n + rng.gen_range(3) as i64;
            let got = ingested.ingest_sorted("ks", "t", &COLUMNS, batch_rows.clone());
            assert_eq!(got.unwrap(), n as usize);
            inserted
                .insert_rows("ks", "t", &COLUMNS, batch_rows)
                .unwrap();
            // Later writes over earlier batches, the same on both.
            for _ in 0..3 {
                let id = rng.gen_range(next_id as u64) as i64;
                let cql = match rng.gen_range(2) {
                    0 => format!("INSERT INTO ks.t (id, g, v) VALUES ({id}, 'w', {batch})"),
                    _ => format!("DELETE FROM ks.t WHERE id = {id}"),
                };
                ingested.execute_cql(&cql).unwrap();
                inserted.execute_cql(&cql).unwrap();
                probes.push(id);
            }
        }
        probes.push(next_id + 5);
        let compare = |ingested: &Db, inserted: &Db, state: &str| {
            let want = answers(inserted, &probes);
            assert!(want.iter().any(|r| !r.is_empty()));
            assert_eq!(answers(ingested, &probes), want, "seed {seed}, {state}");
        };
        compare(&ingested, &inserted, "memtable");
        assert_eq!(inserted.table_writes("ks", "t").unwrap().flushes, 0);
        for db in [&ingested, &inserted] {
            db.flush_all().unwrap();
        }
        compare(&ingested, &inserted, "flushed");
        for db in [&ingested, &inserted] {
            db.compact_all().unwrap();
        }
        compare(&ingested, &inserted, "compacted");
        drop((ingested, inserted));
        let reopen = |vfs: &Vfs| Db::open(options(vfs)).unwrap();
        compare(&reopen(&ingested_vfs), &reopen(&inserted_vfs), "recovered");
    }
}
