//! `EXPLAIN` prints whole lines, cost suffix included. The sqllogictest
//! tier strips `  (cost: …)` and pins the tree shape only; this test pins
//! the estimates as well, for every node and scan kind, over an engine
//! whose statistics are all non-trivial: a table with rows in two
//! SSTables and in the memtable, a secondary index, and a block cache
//! that has served hits and misses; and a table with no SSTable yet.

use sc_nosql::{Db, OpenOptions};
use sc_storage::Vfs;

fn engine() -> Db {
    let db = Db::open(
        OpenOptions::default()
            .vfs(Vfs::memory())
            .compaction_threads(0),
    )
    .unwrap();
    for cql in [
        "CREATE KEYSPACE ks",
        "CREATE TABLE ks.obs (id int, station text, bikes int, docks int, PRIMARY KEY (id))",
        "CREATE INDEX ON ks.obs (station)",
    ] {
        db.execute_cql(cql).unwrap();
    }
    let insert = |id: i64| {
        db.execute_cql(&format!(
            "INSERT INTO ks.obs (id, station, bikes, docks) VALUES ({id}, 's{}', {}, {})",
            id % 7,
            id % 13,
            id % 5
        ))
        .unwrap();
    };
    (0..300).for_each(insert);
    db.flush_all().unwrap();
    (300..500).for_each(insert);
    db.flush_all().unwrap();
    (500..520).for_each(insert);
    for cql in [
        "CREATE TABLE ks.fresh (k int, v int, PRIMARY KEY (k))",
        "INSERT INTO ks.fresh (k, v) VALUES (1, 10)",
        "INSERT INTO ks.fresh (k, v) VALUES (2, 20)",
    ] {
        db.execute_cql(cql).unwrap();
    }
    // Warm the cache: the first reads miss, their repeats hit.
    for _ in 0..2 {
        for cql in [
            "SELECT * FROM ks.obs WHERE id = 17",
            "SELECT * FROM ks.obs WHERE id IN (3, 350, 510)",
            "SELECT COUNT(*) FROM ks.obs",
        ] {
            db.execute_cql(cql).unwrap();
        }
    }
    let cache = db.block_cache_stats();
    assert!(cache.hits > 0 && cache.misses > 0, "{cache:?}");
    db
}

fn explain(db: &Db, statement: &str) -> Vec<String> {
    db.execute_cql(statement)
        .unwrap()
        .rows()
        .iter()
        .map(|row| row[0].as_text().unwrap().to_string())
        .collect()
}

/// Each statement's `EXPLAIN` lines, cost suffix included: one block per
/// statement, blank-line separated.
const GOLDEN: &str = "\
EXPLAIN SELECT * FROM ks.obs WHERE id = 17
PointScan ks.obs key=17 (bloom+fence checked)  (cost: rows≈1, total≈5.1)

EXPLAIN SELECT bikes FROM ks.obs WHERE id IN (3, 350, 510)
Project [bikes]  (cost: rows≈3, total≈15.4)
  MultiPointScan ks.obs keys=3 cols=[bikes] (+3 pruned)  (cost: rows≈3, total≈15.2)

EXPLAIN SELECT * FROM ks.obs WHERE station = 's3'
IndexScan ks.obs via ks.obs__idx_station on station values=1  (cost: rows≈52, total≈316.0)

EXPLAIN SELECT id, bikes FROM ks.obs WHERE station IN ('s1', 's2')
Project [id, bikes]  (cost: rows≈104, total≈637.2)
  IndexScan ks.obs via ks.obs__idx_station on station values=2 cols=[id, station, bikes] (+1 pruned)  (cost: rows≈104, total≈632.0)

EXPLAIN SELECT * FROM ks.obs WHERE bikes > 4 AND docks = 2 LIMIT 10
FullScan ks.obs where bikes > 4 AND docks = 2 limit=10  (cost: rows≈10, total≈597.0)

EXPLAIN SELECT * FROM ks.obs WHERE id IN (3, 4) AND bikes = 3
Filter bikes = 3  (cost: rows≈0, total≈10.4)
  MultiPointScan ks.obs keys=2  (cost: rows≈2, total≈10.2)

EXPLAIN SELECT id, docks FROM ks.obs ORDER BY bikes DESC
Project [id, docks]  (cost: rows≈520, total≈1509.3)
  Sort by bikes desc  (cost: rows≈520, total≈1483.3)
    FullScan ks.obs cols=[id, bikes, docks] (+1 pruned)  (cost: rows≈520, total≈545.0)

EXPLAIN SELECT COUNT(*), SUM(bikes) FROM ks.obs LIMIT 50
Aggregate [count, sum(bikes)] groups=0  (cost: rows≈1, total≈555.0)
  FullScan ks.obs limit=50 cols=[bikes] (+3 pruned)  (cost: rows≈50, total≈545.0)

EXPLAIN SELECT station, COUNT(*), MAX(bikes) FROM ks.obs GROUP BY station ORDER BY station LIMIT 3
Limit 3  (cost: rows≈3, total≈669.6)
  Sort by station asc  (cost: rows≈23, total≈669.6)
    Aggregate [station, count, max(bikes)] groups=1  (cost: rows≈23, total≈649.0)
      FullScan ks.obs cols=[station, bikes] (+2 pruned)  (cost: rows≈520, total≈545.0)

EXPLAIN SELECT * FROM ks.obs WHERE id IN (1, 2, 3) LIMIT 2
Limit 2  (cost: rows≈2, total≈15.2)
  MultiPointScan ks.obs keys=3  (cost: rows≈3, total≈15.2)

EXPLAIN SELECT v FROM ks.fresh WHERE k = 1
Project [v]  (cost: rows≈1, total≈2.0)
  PointScan ks.fresh key=1 (bloom+fence checked) cols=[v] (+1 pruned)  (cost: rows≈1, total≈2.0)
";

#[test]
fn explain_lines_keep_their_estimates() {
    let db = engine();
    let mut failures = Vec::new();
    for block in GOLDEN.split("\n\n") {
        let mut lines = block.lines();
        let statement = lines.next().unwrap();
        let want: Vec<&str> = lines.collect();
        let got = explain(&db, statement);
        if got != want {
            failures.push(format!("{statement}\n  got:  {got:?}\n  want: {want:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
