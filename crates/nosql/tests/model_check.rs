//! Model checking: random operation sequences against an in-memory oracle,
//! across flushes, compactions and recovery.
//!
//! Deterministic randomized sweeps (seeded xorshift — the build is offline,
//! so no proptest): each case draws a random op sequence and replays it
//! against both the engine and a `HashMap` oracle.

use sc_encoding::Rng;
use sc_nosql::{CqlValue, Db, OpenOptions};
use sc_storage::Vfs;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone)]
enum Op {
    Insert { id: i64, v: i64 },
    Update { id: i64, v: i64 },
    Delete { id: i64 },
    Flush,
    Compact,
    Recover,
}

/// Weighted random op: inserts 5, updates 3, deletes 2, flush/compact/recover
/// 1 each (matching the old proptest weights).
fn random_op(rng: &mut Rng) -> Op {
    match rng.gen_range(13) {
        0..=4 => Op::Insert {
            id: rng.gen_range(40) as i64,
            v: rng.gen_i64(),
        },
        5..=7 => Op::Update {
            id: rng.gen_range(40) as i64,
            v: rng.gen_i64(),
        },
        8..=9 => Op::Delete {
            id: rng.gen_range(40) as i64,
        },
        10 => Op::Flush,
        11 => Op::Compact,
        _ => Op::Recover,
    }
}

fn tiny(vfs: &Vfs) -> OpenOptions {
    OpenOptions::default()
        .vfs(vfs.clone())
        .memtable_flush_bytes(512) // force frequent flushes
        .compaction_threshold(3)
}

fn fresh(vfs: &Vfs) -> Db {
    let db = Db::open(tiny(vfs)).unwrap();
    db.execute_cql("CREATE KEYSPACE m").unwrap();
    db.execute_cql("CREATE TABLE m.t (id int, v int, PRIMARY KEY (id))")
        .unwrap();
    db
}

#[test]
fn engine_agrees_with_oracle() {
    let mut rng = Rng::new(0x4E0A);
    for case in 0..48 {
        let ops: Vec<Op> = (0..rng.gen_range(60))
            .map(|_| random_op(&mut rng))
            .collect();
        let vfs = Vfs::memory();
        let mut db = fresh(&vfs);
        let mut oracle: HashMap<i64, i64> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert { id, v } | Op::Update { id, v } => {
                    db.execute_cql(&format!("INSERT INTO m.t (id, v) VALUES ({id}, {v})"))
                        .unwrap();
                    oracle.insert(id, v);
                }
                Op::Delete { id } => {
                    db.execute_cql(&format!("DELETE FROM m.t WHERE id = {id}"))
                        .unwrap();
                    oracle.remove(&id);
                }
                Op::Flush => db.flush_all().unwrap(),
                Op::Compact => db.compact_all().unwrap(),
                Op::Recover => {
                    // Drop the engine and rebuild it from disk state.
                    drop(db);
                    db = Db::open(tiny(&vfs)).unwrap();
                }
            }
            // Spot-check a couple of keys each step.
            for probe in [0i64, 17, 39] {
                let r = db
                    .execute_cql(&format!("SELECT v FROM m.t WHERE id = {probe}"))
                    .unwrap();
                let got = r.first().map(|row| row[0].clone());
                let want = oracle.get(&probe).map(|v| CqlValue::Int(*v));
                assert_eq!(got, want, "case {case}: probe {probe} diverged");
            }
        }
        // Final full-scan equivalence.
        let r = db.execute_cql("SELECT id, v FROM m.t").unwrap();
        let mut got: Vec<(i64, i64)> = r
            .iter()
            .map(|row| (row.get_int("id").unwrap(), row.get_int("v").unwrap()))
            .collect();
        got.sort_unstable();
        let mut want: Vec<(i64, i64)> = oracle.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    }
}

#[test]
fn indexed_queries_agree_with_oracle() {
    let mut rng = Rng::new(0x4E0B);
    for case in 0..48 {
        let ops: Vec<(i64, i64)> = (0..rng.gen_range(60))
            .map(|_| (rng.gen_range(30) as i64, rng.gen_range(5) as i64))
            .collect();
        let flush_every = 1 + rng.gen_range(9) as usize;
        let db = Db::open(tiny(&Vfs::memory())).unwrap();
        db.execute_cql("CREATE KEYSPACE m").unwrap();
        db.execute_cql("CREATE TABLE m.t (id int, tag int, PRIMARY KEY (id))")
            .unwrap();
        db.execute_cql("CREATE INDEX ON m.t (tag)").unwrap();
        let mut oracle: HashMap<i64, i64> = HashMap::new();
        for (i, (id, tag)) in ops.iter().enumerate() {
            db.execute_cql(&format!("INSERT INTO m.t (id, tag) VALUES ({id}, {tag})"))
                .unwrap();
            oracle.insert(*id, *tag);
            if i % flush_every == 0 {
                db.flush_all().unwrap();
            }
        }
        for tag in 0..5i64 {
            let r = db
                .execute_cql(&format!("SELECT id FROM m.t WHERE tag = {tag}"))
                .unwrap();
            let mut got: Vec<i64> = r.iter().map(|row| row.get_int("id").unwrap()).collect();
            got.sort_unstable();
            let mut want: Vec<i64> = oracle
                .iter()
                .filter(|(_, t)| **t == tag)
                .map(|(id, _)| *id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "case {case}: tag {tag} diverged");
        }
    }
}

/// One row of the aggregate oracle's table; `None` is a null cell.
#[derive(Debug, Clone)]
struct AggRow {
    g: Option<String>,
    v: Option<i64>,
    b: Option<bool>,
}

/// What `SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) …
/// GROUP BY g` answers, computed naively: groups in `cmp_sort` order
/// (null first), SUM/MIN/MAX/AVG null over no non-null `v`, AVG
/// truncated.
fn oracle_by_g(rows: &BTreeMap<i64, AggRow>) -> Vec<Vec<CqlValue>> {
    let mut groups: BTreeMap<Option<&str>, Vec<Option<i64>>> = BTreeMap::new();
    for row in rows.values() {
        groups.entry(row.g.as_deref()).or_default().push(row.v);
    }
    let int_or_null = |v: Option<i64>| v.map_or(CqlValue::Null, CqlValue::Int);
    groups
        .into_iter()
        .map(|(g, vs)| {
            let present: Vec<i64> = vs.iter().flatten().copied().collect();
            let sum = (!present.is_empty()).then(|| present.iter().sum::<i64>());
            vec![
                g.map_or(CqlValue::Null, |g| CqlValue::Text(g.to_string())),
                CqlValue::Int(vs.len() as i64),
                CqlValue::Int(present.len() as i64),
                int_or_null(sum),
                int_or_null(present.iter().min().copied()),
                int_or_null(present.iter().max().copied()),
                int_or_null(sum.map(|s| s / present.len() as i64)),
            ]
        })
        .collect()
}

fn oracle_by_b(rows: &BTreeMap<i64, AggRow>) -> Vec<Vec<CqlValue>> {
    let mut groups: BTreeMap<Option<bool>, i64> = BTreeMap::new();
    for row in rows.values() {
        *groups.entry(row.b).or_default() += 1;
    }
    groups
        .into_iter()
        .map(|(b, n)| {
            vec![
                b.map_or(CqlValue::Null, CqlValue::Boolean),
                CqlValue::Int(n),
            ]
        })
        .collect()
}

/// The aggregates of a seeded history of inserts, overwrites and deletes
/// agree with a naive evaluator in every state the rows can sit in:
/// memtable only, memtable over SSTables, flushed, compacted, recovered.
/// Each case draws 1–30 distinct `g` values, so its blocks store `g` both
/// dictionary-encoded and raw.
#[test]
fn aggregates_agree_with_a_naive_evaluator() {
    let mut rng = Rng::new(0xA66);
    for case in 0..24 {
        let vfs = Vfs::memory();
        let options = || {
            OpenOptions::default()
                .vfs(vfs.clone())
                .compaction_threads(0)
        };
        let mut db = Db::open(options()).unwrap();
        db.execute_cql("CREATE KEYSPACE m").unwrap();
        db.execute_cql("CREATE TABLE m.t (id int, g text, v int, b boolean, PRIMARY KEY (id))")
            .unwrap();
        let distinct = 1 + rng.gen_range(30);
        let mut rows: BTreeMap<i64, AggRow> = BTreeMap::new();
        let cell = |rng: &mut Rng| !rng.gen_bool(0.2);
        let write = |db: &Db, rng: &mut Rng, rows: &mut BTreeMap<i64, AggRow>| {
            let id = rng.gen_range(300) as i64;
            if rng.gen_range(8) == 0 {
                db.execute_cql(&format!("DELETE FROM m.t WHERE id = {id}"))
                    .unwrap();
                rows.remove(&id);
                return;
            }
            let row = AggRow {
                g: cell(rng).then(|| format!("g-{:02}-ü", rng.gen_range(distinct))),
                v: cell(rng).then(|| rng.gen_range(2001) as i64 - 1000),
                b: cell(rng).then(|| rng.gen_bool(0.5)),
            };
            // An unbound column is null.
            let mut columns = vec!["id".to_string()];
            let mut values = vec![id.to_string()];
            if let Some(g) = &row.g {
                columns.push("g".into());
                values.push(format!("'{g}'"));
            }
            if let Some(v) = row.v {
                columns.push("v".into());
                values.push(v.to_string());
            }
            if let Some(b) = row.b {
                columns.push("b".into());
                values.push(b.to_string());
            }
            db.execute_cql(&format!(
                "INSERT INTO m.t ({}) VALUES ({})",
                columns.join(", "),
                values.join(", ")
            ))
            .unwrap();
            rows.insert(id, row);
        };
        let check = |db: &Db, rows: &BTreeMap<i64, AggRow>, state: &str| {
            let values = |cql: &str| -> Vec<Vec<CqlValue>> {
                let result = db.execute_cql(cql).unwrap();
                result.iter().map(|row| row.values().to_vec()).collect()
            };
            assert_eq!(
                values(
                    "SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) \
                     FROM m.t GROUP BY g"
                ),
                oracle_by_g(rows),
                "case {case}, {state}: GROUP BY g"
            );
            assert_eq!(
                values("SELECT b, COUNT(*) FROM m.t GROUP BY b"),
                oracle_by_b(rows),
                "case {case}, {state}: GROUP BY b"
            );
            for k in [-1001, -250, 0, 400, 1000] {
                let want = rows.values().filter(|r| r.v.is_some_and(|v| v > k)).count();
                assert_eq!(
                    values(&format!("SELECT COUNT(*) FROM m.t WHERE v > {k}")),
                    vec![vec![CqlValue::Int(want as i64)]],
                    "case {case}, {state}: v > {k}"
                );
            }
        };
        let ops = 100 + rng.gen_range(300);
        for _ in 0..ops {
            write(&db, &mut rng, &mut rows);
        }
        check(&db, &rows, "memtable");
        db.flush_all().unwrap();
        for _ in 0..ops / 2 {
            write(&db, &mut rng, &mut rows);
        }
        check(&db, &rows, "memtable over an SSTable");
        db.flush_all().unwrap();
        check(&db, &rows, "flushed");
        db.compact_all().unwrap();
        check(&db, &rows, "compacted");
        for _ in 0..ops / 4 {
            write(&db, &mut rng, &mut rows);
        }
        drop(db);
        db = Db::open(options()).unwrap();
        check(&db, &rows, "recovered");
    }
}
