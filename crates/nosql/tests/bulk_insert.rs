//! Differential: a multi-row insert (`Db::insert_rows`) against one INSERT
//! statement per row on a twin engine with the same options.
//!
//! The bulk apply commits rows in chunks that end where one INSERT per row
//! would have flushed a memtable or rotated the commit log, so both engines
//! must leave the same bytes in every file — SSTables, manifest (every DDL
//! statement, flush and merge is a record there), commit-log segments — and
//! answer every SELECT alike, postings included.

use sc_encoding::Rng;
use sc_nosql::cql::ast::TableRef;
use sc_nosql::{CqlValue, Db, NosqlError, OpenOptions, Statement};
use sc_storage::Vfs;

const COLUMNS: [&str; 4] = ["id", "v", "s", "kids"];

/// Small memtables, small WAL segments and inline merges: a few hundred
/// rows cross many flushes, segment rotations and checkpoints.
fn small(compaction_threshold: usize) -> impl Fn(Vfs) -> OpenOptions {
    move |vfs| {
        OpenOptions::default()
            .vfs(vfs)
            .memtable_flush_bytes(2048)
            .compaction_threshold(compaction_threshold)
            .wal_segment_bytes(4096)
            .compaction_threads(0)
    }
}

struct Twin {
    bulk: Db,
    bulk_vfs: Vfs,
    each: Db,
    each_vfs: Vfs,
}

impl Twin {
    /// `ks.t (id int, v int, s text, kids set<int>)` with an index on `v`.
    fn new(options: impl Fn(Vfs) -> OpenOptions) -> Twin {
        let open = |vfs: &Vfs| {
            let db = Db::open(options(vfs.clone())).unwrap();
            for ddl in [
                "CREATE KEYSPACE ks",
                "CREATE TABLE ks.t (id int, v int, s text, kids set<int>, PRIMARY KEY (id))",
                "CREATE INDEX ON ks.t (v)",
            ] {
                db.execute_cql(ddl).unwrap();
            }
            db
        };
        let (bulk_vfs, each_vfs) = (Vfs::memory(), Vfs::memory());
        Twin {
            bulk: open(&bulk_vfs),
            each: open(&each_vfs),
            bulk_vfs,
            each_vfs,
        }
    }

    /// The rows through `insert_rows` on one engine and as one INSERT each
    /// on the other, which stops at its first error as the batch does.
    fn insert(&self, rows: &[Vec<CqlValue>]) -> (Result<usize, String>, Result<usize, String>) {
        let bulk = self
            .bulk
            .insert_rows("ks", "t", &COLUMNS, rows.iter().cloned())
            .map_err(|e| e.to_string());
        let mut each = Ok(0);
        for row in rows {
            let stmt = Statement::Insert {
                table: TableRef {
                    keyspace: "ks".into(),
                    table: "t".into(),
                },
                columns: COLUMNS.map(String::from).to_vec(),
                values: row.clone(),
            };
            if let Err(e) = self.each.execute(&stmt) {
                each = Err(e.to_string());
                break;
            }
            each = each.map(|n| n + 1);
        }
        (bulk, each)
    }

    fn assert_same(&self, context: &str) {
        let files = |vfs: &Vfs| -> Vec<(String, Vec<u8>)> {
            let names = vfs.list("").unwrap();
            names
                .into_iter()
                .map(|f| {
                    let bytes = vfs.read_all(&f).unwrap();
                    (f, bytes)
                })
                .collect()
        };
        let (bulk, each) = (files(&self.bulk_vfs), files(&self.each_vfs));
        let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
            files.iter().map(|(f, _)| f.clone()).collect()
        };
        assert_eq!(names(&bulk), names(&each), "{context}: file names");
        for ((name, a), (_, b)) in bulk.iter().zip(&each) {
            assert!(
                a == b,
                "{context}: {name} differs ({} vs {} bytes)",
                a.len(),
                b.len()
            );
        }
        for cql in [
            "SELECT * FROM ks.t",
            "SELECT * FROM ks.t__idx_v",
            "SELECT id, s FROM ks.t WHERE v = 3",
            "SELECT id FROM ks.t WHERE v IN (0, 5, 7)",
            "SELECT COUNT(*) FROM ks.t",
        ] {
            assert_eq!(
                self.bulk.execute_cql(cql).unwrap(),
                self.each.execute_cql(cql).unwrap(),
                "{context}: {cql}"
            );
        }
    }
}

/// `n` rows over ids `0..n` in a seeded order, 1 in 4 of them written a
/// second time later on; `v` null one time in five, `kids` a set of up to
/// four ints or null.
fn rows(seed: u64, n: i64) -> Vec<Vec<CqlValue>> {
    let mut rng = Rng::new(seed);
    let mut ids: Vec<i64> = (0..n).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
    let again: Vec<i64> = ids.iter().copied().filter(|id| id % 4 == 1).collect();
    ids.extend(again);
    ids.into_iter()
        .map(|id| {
            let v = match rng.gen_range(5) {
                0 => CqlValue::Null,
                _ => CqlValue::Int(rng.gen_range(8) as i64),
            };
            let kids = match rng.gen_range(3) {
                0 => CqlValue::Null,
                _ => CqlValue::int_set((0..rng.gen_range(5)).map(|_| rng.gen_range(1000) as i64)),
            };
            vec![
                CqlValue::Int(id),
                v,
                CqlValue::Text(format!(
                    "row {id} {}",
                    "x".repeat(rng.gen_range(24) as usize)
                )),
                kids,
            ]
        })
        .collect()
}

#[test]
fn one_batch_leaves_the_bytes_of_one_insert_per_row_across_flushes_and_merges() {
    for (seed, threshold) in [(1, 4), (2, 4), (3, 1000)] {
        let twin = Twin::new(small(threshold));
        let batch = rows(seed, 400);
        let (bulk, each) = twin.insert(&batch);
        assert_eq!(bulk, Ok(batch.len()));
        assert_eq!(each, Ok(batch.len()));
        twin.assert_same(&format!("seed {seed}"));
        if threshold == 1000 {
            // No merges: one SSTable per flush of each table.
            let flushes = twin.bulk_vfs.list("ks/t/sst-").unwrap().len();
            let posting_flushes = twin.bulk_vfs.list("ks/t__idx_v/sst-").unwrap().len();
            assert!(flushes >= 8, "{flushes} base-table flushes");
            assert!(posting_flushes >= 2, "{posting_flushes} posting flushes");
        }
        // A second batch lands on a warm memtable and WAL; then the final
        // flush and a recovery of each engine.
        let more = rows(seed + 100, 120);
        assert_eq!(twin.insert(&more), (Ok(more.len()), Ok(more.len())));
        twin.assert_same(&format!("seed {seed}, second batch"));
        twin.bulk.flush_all().unwrap();
        twin.each.flush_all().unwrap();
        twin.assert_same(&format!("seed {seed}, flushed"));
    }
}

#[test]
fn a_key_repeated_inside_one_chunk_leaves_exactly_one_posting() {
    // Default options: the whole batch is one chunk.
    let twin = Twin::new(|vfs| OpenOptions::default().vfs(vfs));
    let row = |id: i64, v: Option<i64>| {
        vec![
            CqlValue::Int(id),
            v.map_or(CqlValue::Null, CqlValue::Int),
            CqlValue::Text(format!("{id}/{v:?}")),
            CqlValue::Null,
        ]
    };
    let batch = [
        row(1, Some(3)),
        row(2, Some(3)),
        row(1, Some(5)),
        row(3, None),
        row(1, Some(7)),
        row(3, Some(5)),
    ];
    assert_eq!(twin.insert(&batch), (Ok(6), Ok(6)));
    for db in [&twin.bulk, &twin.each] {
        for when in ["buffered", "flushed"] {
            let ids = |v: i64| -> Vec<i64> {
                let r = db
                    .execute_cql(&format!("SELECT id FROM ks.t WHERE v = {v}"))
                    .unwrap();
                let mut ids: Vec<i64> = r.iter().map(|r| r.get_int("id").unwrap()).collect();
                ids.sort_unstable();
                ids
            };
            assert_eq!(ids(3), [2], "{when}");
            assert_eq!(ids(5), [3], "{when}");
            assert_eq!(ids(7), [1], "{when}");
            let postings = db.execute_cql("SELECT * FROM ks.t__idx_v").unwrap();
            assert_eq!(postings.len(), 3, "{when}: one posting per row");
            db.flush_all().unwrap();
        }
    }
    twin.assert_same("repeated key");
}

#[test]
fn a_bad_row_commits_the_rows_before_it_and_none_after() {
    let good = rows(9, 300);
    let k = 217;
    type IsExpected = fn(&NosqlError) -> bool;
    let bad_rows: [(&str, Vec<CqlValue>, IsExpected); 4] = [
        (
            "wrong arity",
            good[k][..3].to_vec(),
            |e| matches!(e, NosqlError::Parse(m) if m.contains("binds 4 columns but 3 values")),
        ),
        (
            "type mismatch",
            vec![
                CqlValue::Int(5000),
                CqlValue::Text("not an int".into()),
                CqlValue::Null,
                CqlValue::Null,
            ],
            |e| matches!(e, NosqlError::TypeMismatch { column, .. } if column == "v"),
        ),
        ("null key", vec![CqlValue::Null; 4], |e| {
            matches!(e, NosqlError::MissingPrimaryKey(_))
        }),
        (
            "set as key",
            vec![
                CqlValue::int_set([1]),
                CqlValue::Null,
                CqlValue::Null,
                CqlValue::Null,
            ],
            |e| matches!(e, NosqlError::TypeMismatch { column, .. } if column == "id"),
        ),
    ];
    for (what, bad, is_expected) in bad_rows {
        let twin = Twin::new(small(4));
        let mut batch = good.clone();
        batch[k] = bad.clone();
        let (bulk, each) = twin.insert(&batch);
        assert_eq!(bulk, each, "{what}: same error, same place");
        let err = twin
            .bulk
            .insert_rows("ks", "t", &COLUMNS, [bad])
            .unwrap_err();
        assert!(is_expected(&err), "{what}: {err:?}");
        twin.assert_same(what);
        // Rows before k are durable and visible; rows after it absent.
        let visible = |id: &CqlValue| {
            let cql = format!("SELECT id FROM ks.t WHERE id = {}", id.to_cql_literal());
            !twin.bulk.execute_cql(&cql).unwrap().is_empty()
        };
        assert!(batch[..k].iter().all(|r| visible(&r[0])), "{what}");
        let before: std::collections::HashSet<&CqlValue> =
            batch[..k].iter().map(|r| &r[0]).collect();
        for r in &batch[k + 1..] {
            assert!(
                before.contains(&r[0]) || !visible(&r[0]),
                "{what}: {:?}",
                r[0]
            );
        }
        // Recovered from a copy of the disk, so the live engines' files
        // stay as they are.
        let disk = Vfs::memory();
        for file in twin.bulk_vfs.list("").unwrap() {
            disk.append(&file, &twin.bulk_vfs.read_all(&file).unwrap())
                .unwrap();
        }
        let reopened = Db::open(small(4)(disk)).unwrap();
        assert_eq!(
            reopened.execute_cql("SELECT * FROM ks.t").unwrap(),
            twin.bulk.execute_cql("SELECT * FROM ks.t").unwrap(),
            "{what}: the committed prefix is durable"
        );
        // The next write succeeds, and the twins stay identical.
        let next = rows(10, 5);
        let n = next.len();
        assert_eq!(twin.insert(&next), (Ok(n), Ok(n)), "{what}");
        twin.assert_same(&format!("{what}, next write"));
    }
}
