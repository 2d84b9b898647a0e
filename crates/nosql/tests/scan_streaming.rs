//! Full scans stream: an aggregate over a flushed table holds one decoded
//! block per SSTable plus one batch, whatever the row count, a scan
//! allocates per block rather than per row, a selective filter or a sort
//! holds the rows it keeps rather than their blocks, and a pushed `LIMIT`
//! stops reading blocks once it is met.
//!
//! Its own integration-test binary with a single test, in the style of
//! `obs/tests/no_alloc.rs`: the counting allocator is process-global, so
//! nothing else may allocate while a statement is measured.

use sc_nosql::{Db, OpenOptions};
use sc_storage::Vfs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocation calls, reallocations included.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe the calls and their sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Live heap bytes the statement added at its peak, over what was live
/// when it started (the in-memory VFS's files, the resident SSTable
/// indexes and the block cache are all there already).
fn peak_heap_of(db: &Db, cql: &str) -> (usize, i64) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let count = db.execute_cql(cql).unwrap().rows()[0][0].as_int().unwrap();
    (PEAK.load(Ordering::Relaxed) - start, count)
}

#[test]
fn aggregates_run_in_bounded_memory_and_limits_stop_reading() {
    const MIB: usize = 1 << 20;
    let vfs = Vfs::memory();
    let db = Db::open(
        OpenOptions::default()
            .vfs(vfs.clone())
            .memtable_flush_bytes(2 * MIB)
            .compaction_threshold(64)
            .compaction_threads(0)
            .block_cache_bytes(MIB / 4),
    )
    .unwrap();
    db.execute_cql("CREATE KEYSPACE m").unwrap();
    db.execute_cql("CREATE TABLE m.t (id int, city text, n int, PRIMARY KEY (id))")
        .unwrap();
    let mut rows = 0i64;
    let mut load = |upto: i64| {
        for id in rows..upto {
            db.execute_cql(&format!(
                "INSERT INTO m.t (id, city, n) VALUES ({id}, 'city-{}', {})",
                id % 7,
                id * 3
            ))
            .unwrap();
        }
        rows = upto;
        db.flush_all().unwrap();
    };

    load(50_000);
    let (small_peak, count) = peak_heap_of(&db, "SELECT COUNT(*) FROM m.t");
    assert_eq!(count, 50_000);
    load(200_000);
    let sstables = vfs.list("m/t/sst-").unwrap().len();
    assert!(sstables >= 4, "only {sstables} SSTables");
    let (peak, count) = peak_heap_of(&db, "SELECT COUNT(*) FROM m.t");
    assert_eq!(count, 200_000);
    // Materialised, 200k rows are tens of MiB; streamed, four times the
    // rows cost only the extra SSTables' one block each.
    assert!(
        peak < 2 * MIB && peak < small_peak + MIB,
        "COUNT(*) peaked at {peak} B over 200k rows, {small_peak} B over 50k"
    );

    // Rows are never built on the way to an aggregate: a scan's
    // allocations are its blocks' (the block read, the decoded runs),
    // not its rows'. The warm-up leaves one-off growth out of the count.
    for cql in [
        "SELECT city, COUNT(*), SUM(n) FROM m.t GROUP BY city",
        "SELECT COUNT(*) FROM m.t",
    ] {
        db.execute_cql(cql).unwrap();
        let start = ALLOCS.load(Ordering::Relaxed);
        let groups = db.execute_cql(cql).unwrap().len();
        let allocs = ALLOCS.load(Ordering::Relaxed) - start;
        assert!(groups == 7 || groups == 1, "{cql}: {groups} rows");
        let per_row = allocs as f64 / 200_000.0;
        assert!(
            per_row < 0.5,
            "{cql}: {allocs} allocations over 200k scanned rows ({per_row:.2} per row)"
        );
    }

    // A selective residual's batches hold a few blocks, as an unfiltered
    // scan's do, not every block their rows were read from.
    let filtered = "SELECT COUNT(*) FROM m.t WHERE city = 'city-3'";
    let (filtered_peak, count) = peak_heap_of(&db, filtered);
    assert_eq!(count, 28_571);
    assert!(
        filtered_peak < 2 * peak,
        "{filtered} peaked at {filtered_peak} B, COUNT(*) at {peak} B"
    );
    // A sort holds the rows that reach it, not their blocks: at its peak
    // each row exists twice, the sort's and the result's, about 240 B;
    // keeping every block the rows came from costs three times that.
    let sorted = "SELECT id, n FROM m.t WHERE city = 'city-3' ORDER BY n DESC";
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let result = db.execute_cql(sorted).unwrap();
    let sorted_peak = PEAK.load(Ordering::Relaxed) - start;
    let rows = result.rows();
    assert_eq!(rows.len(), 28_571);
    assert_eq!(rows[0][1].as_int(), Some(3 * 199_993));
    assert!(
        sorted_peak < 400 * rows.len(),
        "{sorted} peaked at {sorted_peak} B for {} rows",
        rows.len()
    );

    let before = db.block_cache_stats();
    let limited = db.execute_cql("SELECT * FROM m.t LIMIT 10").unwrap();
    assert_eq!(limited.len(), 10);
    let after = db.block_cache_stats();
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    assert!(
        lookups <= sstables as u64,
        "LIMIT 10 looked up {lookups} blocks over {sstables} SSTables"
    );
}
