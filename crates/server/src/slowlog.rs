//! Ring-buffered slow-query log.
//!
//! Every statement whose engine execution exceeds the configured
//! threshold is recorded: tenant, (truncated) CQL text, duration, a
//! monotone sequence number, plus the request's trace ID and read stats
//! (blocks read, block-cache hits) so a slow entry links straight to its
//! span tree at `GET /debug/traces/<trace_id>`. The ring keeps the most
//! recent `capacity` entries — old entries fall off the front, so the log
//! is a bounded diagnostic window, not an audit trail.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// CQL text longer than this is truncated in log entries (the full text
/// may be megabytes for generated batches).
pub const MAX_LOGGED_CQL: usize = 512;

/// Truncates CQL to [`MAX_LOGGED_CQL`] bytes on a char boundary, marking
/// the cut with `…`. Used by the slow-query log and by trace details.
pub(crate) fn truncate_cql(cql: &str) -> String {
    let mut text = cql.to_string();
    if text.len() > MAX_LOGGED_CQL {
        let mut cut = MAX_LOGGED_CQL;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
        text.push('…');
    }
    text
}

/// One slow statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// Monotone per-server sequence number (1-based), so readers can tell
    /// how many entries the ring has dropped.
    pub seq: u64,
    /// Tenant that issued the statement.
    pub tenant: String,
    /// The statement text as the tenant wrote it (logical keyspace names,
    /// truncated to [`MAX_LOGGED_CQL`] bytes on a char boundary).
    pub cql: String,
    /// Engine execution time — excludes network and group-commit queueing,
    /// so the entry blames the statement, not its neighbors' appends.
    pub duration: Duration,
    /// Time spent queued in the group-commit WAL (informational; not part
    /// of the threshold comparison).
    pub queue_wait: Duration,
    /// The request's trace ID: look it up at `/debug/traces/<hex>` for
    /// the full span tree (0 when tracing was disabled).
    pub trace_id: u64,
    /// SSTable data blocks this request read (trace-attributed; 0 when
    /// tracing was disabled).
    pub blocks_read: u64,
    /// Blocks served from the shared block cache (ditto).
    pub block_cache_hits: u64,
}

/// Per-request metadata attached to a slow-query entry — the trace ID
/// and the read stats harvested from the request's finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlowQueryMeta {
    /// The request's trace ID (0 = untraced).
    pub trace_id: u64,
    /// Data blocks read while serving the request.
    pub blocks_read: u64,
    /// Blocks served from the shared block cache.
    pub block_cache_hits: u64,
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<SlowQuery>,
    next_seq: u64,
}

/// The log: threshold + bounded ring. Shared across sessions.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold: Duration,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl SlowQueryLog {
    /// A log that records statements slower than `threshold`, keeping the
    /// most recent `capacity` entries.
    pub fn new(threshold: Duration, capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            threshold,
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                next_seq: 1,
            }),
        }
    }

    /// The recording threshold.
    pub fn threshold(&self) -> Duration {
        self.threshold
    }

    /// Records the statement if its *execution* time (queueing excluded)
    /// was slow enough. Returns whether it was recorded (callers bump the
    /// `server.slow_queries` counter on `true`).
    pub fn observe(
        &self,
        tenant: &str,
        cql: &str,
        duration: Duration,
        queue_wait: Duration,
        meta: SlowQueryMeta,
    ) -> bool {
        if duration < self.threshold {
            return false;
        }
        let text = truncate_cql(cql);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(SlowQuery {
            seq,
            tenant: tenant.to_string(),
            cql: text,
            duration,
            queue_wait,
            trace_id: meta.trace_id,
            blocks_read: meta.blocks_read,
            block_cache_hits: meta.block_cache_hits,
        });
        true
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.ring.iter().cloned().collect()
    }

    /// Total number of statements ever recorded (including ones the ring
    /// has since dropped).
    pub fn total_recorded(&self) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.next_seq - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_filters_and_ring_drops_oldest() {
        let log = SlowQueryLog::new(Duration::from_millis(10), 3);
        assert!(!log.observe(
            "t",
            "fast",
            Duration::from_millis(9),
            Duration::ZERO,
            SlowQueryMeta::default()
        ));
        // Queue wait does not count toward the threshold...
        assert!(!log.observe(
            "t",
            "queued",
            Duration::from_millis(9),
            Duration::from_millis(100),
            SlowQueryMeta::default()
        ));
        for i in 0..5 {
            assert!(log.observe(
                "t",
                &format!("q{i}"),
                Duration::from_millis(10 + i),
                Duration::from_micros(i),
                SlowQueryMeta {
                    trace_id: 0x1000 + i,
                    blocks_read: i,
                    block_cache_hits: i / 2,
                }
            ));
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 3, "capacity bounds the ring");
        assert_eq!(
            entries.iter().map(|e| e.cql.as_str()).collect::<Vec<_>>(),
            vec!["q2", "q3", "q4"]
        );
        // Sequence numbers expose the dropped prefix.
        assert_eq!(entries[0].seq, 3);
        assert_eq!(entries[2].queue_wait, Duration::from_micros(4));
        // Trace metadata rides along with each entry.
        assert_eq!(entries[2].trace_id, 0x1004);
        assert_eq!(entries[2].blocks_read, 4);
        assert_eq!(entries[2].block_cache_hits, 2);
        assert_eq!(log.total_recorded(), 5);
    }

    #[test]
    fn zero_threshold_records_everything() {
        let log = SlowQueryLog::new(Duration::ZERO, 8);
        assert!(log.observe(
            "t",
            "any",
            Duration::ZERO,
            Duration::ZERO,
            SlowQueryMeta::default()
        ));
    }

    #[test]
    fn long_statements_are_truncated_on_char_boundaries() {
        let log = SlowQueryLog::new(Duration::ZERO, 2);
        let long = "é".repeat(MAX_LOGGED_CQL); // 2 bytes per char
        log.observe(
            "t",
            &long,
            Duration::from_secs(1),
            Duration::ZERO,
            SlowQueryMeta::default(),
        );
        let entry = &log.entries()[0];
        assert!(entry.cql.len() <= MAX_LOGGED_CQL + '…'.len_utf8());
        assert!(entry.cql.ends_with('…'));
    }
}
