//! Model checking: random operation sequences against an in-memory oracle,
//! across flushes, compactions and recovery.
//!
//! Deterministic randomized sweeps (seeded xorshift — the build is offline,
//! so no proptest): each case draws a random op sequence and replays it
//! against both the engine and a `HashMap` oracle.

use sc_encoding::Rng;
use sc_nosql::{CqlValue, Db, OpenOptions};
use sc_storage::Vfs;
use std::collections::HashMap;

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
                    db = Db::open(tiny(&vfs).recover(true)).unwrap();
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
