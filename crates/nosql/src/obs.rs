//! Engine instrumentation handles (`nosql.*`).
//!
//! One `OnceLock` registers every handle on the global registry; hot paths
//! gate on [`sc_obs::enabled`] before touching them, so the disabled cost
//! is a single relaxed load per call site.
//!
//! Metric map:
//!
//! | name                           | kind      | meaning                                  |
//! |--------------------------------|-----------|------------------------------------------|
//! | `nosql.memtable.puts`          | counter   | rows applied to a memtable               |
//! | `nosql.commitlog.appends`      | counter   | commit-log append calls (batch = 1)      |
//! | `nosql.commitlog.append_bytes` | counter   | framed bytes appended to the commit log  |
//! | `nosql.commitlog.checkpoints`  | counter   | WAL checkpoint passes after flushes      |
//! | `nosql.commitlog.segments_deleted` | counter | redundant WAL segments deleted         |
//! | `nosql.flush.*`                | span      | memtable → SSTable flush (bytes = SSTable size) |
//! | `nosql.compaction.*`           | span      | one merge run (bytes = bytes written)    |
//! | `nosql.compaction.bytes_in`    | counter   | bytes read by merges (input amplification) |
//! | `nosql.compaction.bytes_out`   | counter   | bytes written by merges                  |
//! | `nosql.compaction.errors`      | counter   | background merges that failed            |
//! | `nosql.read.point_queries`     | counter   | keys point-read (a batch counts each key) |
//! | `nosql.read.sstables_per_get`  | histogram | SSTables consulted per key read          |
//! | `nosql.read.blocks_per_get`    | histogram | data blocks read per key read; a block a batch shares counts on one key, so sum / count is blocks per key |
//! | `nosql.bloom.hit`              | counter   | filter said maybe and the key was there  |
//! | `nosql.bloom.miss`             | counter   | filter ruled the key out (no block read) |
//! | `nosql.bloom.false_positive`   | counter   | filter said maybe but the key was absent |
//! | `nosql.read.cols_read`         | counter   | column runs decoded by projected scans   |
//! | `nosql.read.cols_skipped`      | counter   | column runs pruned without decoding      |
//! | `nosql.block_cache.hit`        | counter   | block served from the shared cache       |
//! | `nosql.block_cache.miss`       | counter   | block read from the VFS                  |
//! | `nosql.block_cache.evict`      | counter   | block evicted to stay within budget      |
//! | `nosql.recovery.*`             | span      | `Db` recovery (replay + manifest load)   |
//! | `nosql.recovery.replayed_records` | counter | commit-log records re-applied           |
//! | `nosql.group_commit.batches`   | counter   | WAL batches written (one append each)    |
//! | `nosql.group_commit.records`   | counter   | records carried by those batches         |
//! | `nosql.group_commit.records_per_batch` | histogram | batch size distribution          |
//! | `nosql.group_commit.wait_ns`   | histogram | follower wait for its leader, in ns      |
//! | `nosql.snapshot.opened`        | counter   | `Snapshot` handles opened                |
//! | `nosql.snapshot.closed`        | counter   | `Snapshot` handles dropped               |
//! | `nosql.snapshot.live`          | gauge     | currently live `Snapshot` handles        |

use sc_obs::{Counter, Gauge, Histogram, Registry, SpanHandle};
use std::sync::OnceLock;

pub(crate) struct NosqlObs {
    pub memtable_puts: Counter,
    pub commitlog_appends: Counter,
    pub commitlog_append_bytes: Counter,
    pub commitlog_checkpoints: Counter,
    pub commitlog_segments_deleted: Counter,
    pub flush: SpanHandle,
    pub compaction: SpanHandle,
    pub compaction_bytes_in: Counter,
    pub compaction_bytes_out: Counter,
    pub compaction_errors: Counter,
    pub point_queries: Counter,
    pub sstables_per_get: Histogram,
    pub blocks_per_get: Histogram,
    pub bloom_hit: Counter,
    pub bloom_miss: Counter,
    pub bloom_false_positive: Counter,
    pub cols_read: Counter,
    pub cols_skipped: Counter,
    pub block_cache_hit: Counter,
    pub block_cache_miss: Counter,
    pub block_cache_evict: Counter,
    pub recovery: SpanHandle,
    pub replayed_records: Counter,
    pub group_commit_batches: Counter,
    pub group_commit_records: Counter,
    pub group_commit_records_per_batch: Histogram,
    pub group_commit_wait_ns: Histogram,
    pub snapshot_opened: Counter,
    pub snapshot_closed: Counter,
    pub snapshot_live: Gauge,
}

pub(crate) fn nosql() -> &'static NosqlObs {
    static OBS: OnceLock<NosqlObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = Registry::global();
        NosqlObs {
            memtable_puts: r.counter("nosql.memtable.puts"),
            commitlog_appends: r.counter("nosql.commitlog.appends"),
            commitlog_append_bytes: r.counter("nosql.commitlog.append_bytes"),
            commitlog_checkpoints: r.counter("nosql.commitlog.checkpoints"),
            commitlog_segments_deleted: r.counter("nosql.commitlog.segments_deleted"),
            flush: r.span("nosql.flush"),
            compaction: r.span("nosql.compaction"),
            compaction_bytes_in: r.counter("nosql.compaction.bytes_in"),
            compaction_bytes_out: r.counter("nosql.compaction.bytes_out"),
            compaction_errors: r.counter("nosql.compaction.errors"),
            point_queries: r.counter("nosql.read.point_queries"),
            sstables_per_get: r.histogram("nosql.read.sstables_per_get"),
            blocks_per_get: r.histogram("nosql.read.blocks_per_get"),
            bloom_hit: r.counter("nosql.bloom.hit"),
            bloom_miss: r.counter("nosql.bloom.miss"),
            bloom_false_positive: r.counter("nosql.bloom.false_positive"),
            cols_read: r.counter("nosql.read.cols_read"),
            cols_skipped: r.counter("nosql.read.cols_skipped"),
            block_cache_hit: r.counter("nosql.block_cache.hit"),
            block_cache_miss: r.counter("nosql.block_cache.miss"),
            block_cache_evict: r.counter("nosql.block_cache.evict"),
            recovery: r.span("nosql.recovery"),
            replayed_records: r.counter("nosql.recovery.replayed_records"),
            group_commit_batches: r.counter("nosql.group_commit.batches"),
            group_commit_records: r.counter("nosql.group_commit.records"),
            group_commit_records_per_batch: r.histogram("nosql.group_commit.records_per_batch"),
            group_commit_wait_ns: r.histogram("nosql.group_commit.wait_ns"),
            snapshot_opened: r.counter("nosql.snapshot.opened"),
            snapshot_closed: r.counter("nosql.snapshot.closed"),
            snapshot_live: r.gauge("nosql.snapshot.live"),
        }
    })
}
