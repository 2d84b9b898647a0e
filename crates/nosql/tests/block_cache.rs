//! The shared block cache under a full scan of a table twice its budget:
//! a scan's misses go in at the cold end, so a repeated scan finds the
//! blocks the first one had room for, and a block a point read made hot
//! is still there after the scan.

use sc_nosql::{CacheStats, CqlValue, Db, OpenOptions};

/// Rows in the table, and the cache's budget: about half its bytes.
const ROWS: i64 = 6000;
const CACHE_BYTES: usize = 64 * 1024;

/// One SSTable of [`ROWS`] rows behind a [`CACHE_BYTES`] cache, with
/// nothing cached yet.
fn table() -> Db {
    let options = OpenOptions::default()
        .compaction_threads(0)
        .block_cache_bytes(CACHE_BYTES);
    let db = Db::open(options).unwrap();
    db.execute_cql("CREATE KEYSPACE ks").unwrap();
    db.execute_cql("CREATE TABLE ks.t (id int, station text, bikes int, PRIMARY KEY (id))")
        .unwrap();
    let rows = (0..ROWS).map(|id| {
        [
            CqlValue::Int(id),
            CqlValue::Text(format!("station-{:02}", id * 7 % 40)),
            CqlValue::Int(id % 41),
        ]
    });
    db.ingest_sorted("ks", "t", &["id", "station", "bikes"], rows)
        .unwrap();
    let bytes = db.table_size("ks", "t").unwrap().as_bytes() as usize;
    assert!(
        bytes >= 2 * CACHE_BYTES,
        "the table is twice the cache: {bytes} B"
    );
    assert_eq!(db.block_cache_stats().blocks, 0);
    db
}

/// Runs `cql` and returns the cache's hits and misses it caused.
fn counted(db: &Db, cql: &str) -> (u64, u64) {
    let before: CacheStats = db.block_cache_stats();
    db.execute_cql(cql).unwrap();
    let after = db.block_cache_stats();
    (after.hits - before.hits, after.misses - before.misses)
}

const SCAN: &str = "SELECT station, COUNT(*), SUM(bikes) FROM ks.t GROUP BY station";

#[test]
fn a_repeated_scan_finds_what_the_first_had_room_for() {
    let db = table();
    let (hits, misses) = counted(&db, SCAN);
    assert_eq!(hits, 0, "the first scan finds an empty cache");
    let blocks = misses;
    let (hits, misses) = counted(&db, SCAN);
    assert_eq!(hits + misses, blocks, "both scans read every block");
    assert!(
        hits * 100 >= blocks * 40,
        "the second scan hits at least 40 % of its {blocks} blocks: {hits} hits"
    );
    assert!(
        misses * 100 <= blocks * 60,
        "the second scan misses at most 60 % of its {blocks} blocks: {misses} misses"
    );
}

#[test]
fn a_block_a_point_read_made_hot_survives_a_full_scan() {
    let db = table();
    // A key a tenth of the way in: the scan reaches its block early, and
    // then reads more than the budget after it.
    let point = format!("SELECT * FROM ks.t WHERE id = {}", ROWS / 10);
    assert_eq!(counted(&db, &point), (0, 1), "a cold point read misses");
    let (_, misses) = counted(&db, SCAN);
    let resident = db.block_cache_stats().blocks as u64;
    assert!(
        misses > resident,
        "the scan read more blocks ({misses}) than the cache holds ({resident})"
    );
    assert_eq!(counted(&db, &point), (1, 0), "the hot block stayed");
}
