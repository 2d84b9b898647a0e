//! Runtime counters for the streaming pipeline, backed by `sc-obs`.
//!
//! Workers, the merger and the ingest front-end all share one [`Metrics`]
//! view through an `Arc`. Each `Metrics` is a *child* of the global
//! [`sc_obs::Registry`]: the handles below keep per-pipeline local cells
//! (so concurrent pipelines — and tests — see only their own traffic)
//! while every increment also feeds the process-wide `stream.*` totals
//! that `repro obs` / `--stats` report.
//!
//! Counters are independent relaxed atomics — no ordering is implied
//! between them, and a snapshot is only ever taken after the threads it
//! observes have quiesced or for advisory progress reporting.

use sc_obs::{Counter, Registry};

/// Shared counters, incremented live by pipeline threads.
#[derive(Debug)]
pub struct Metrics {
    /// Raw payloads accepted by [`StreamIngestor::ingest`](crate::StreamIngestor::ingest).
    pub events_in: Counter,
    /// Payloads successfully parsed and extracted by a worker.
    pub events_parsed: Counter,
    /// Payloads rejected (malformed document or failed extraction).
    pub events_failed: Counter,
    /// Fact tuples extracted across all shards.
    pub tuples_extracted: Counter,
    /// Micro-cubes sealed by watermark or final drain.
    pub seals: Counter,
    /// Sealed micro-cubes absorbed by the merger.
    pub merges: Counter,
    /// Sends that blocked on a full shard queue.
    pub backpressure_stalls: Counter,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates a zeroed per-pipeline view chained to the global registry.
    pub fn new() -> Self {
        let r = Registry::global().child();
        Metrics {
            events_in: r.counter("stream.ingest.events_in"),
            events_parsed: r.counter("stream.worker.events_parsed"),
            events_failed: r.counter("stream.worker.events_failed"),
            tuples_extracted: r.counter("stream.worker.tuples_extracted"),
            seals: r.counter("stream.worker.seals"),
            merges: r.counter("stream.merger.merges"),
            backpressure_stalls: r.counter("stream.ingest.backpressure_stalls"),
        }
    }

    /// Copies every counter's per-pipeline value into a plain snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            events_in: self.events_in.get(),
            events_parsed: self.events_parsed.get(),
            events_failed: self.events_failed.get(),
            tuples_extracted: self.tuples_extracted.get(),
            seals: self.seals.get(),
            merges: self.merges.get(),
            backpressure_stalls: self.backpressure_stalls.get(),
        }
    }
}

/// A point-in-time copy of [`Metrics`], safe to compare and print.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Raw payloads accepted for ingestion.
    pub events_in: u64,
    /// Payloads successfully parsed and extracted.
    pub events_parsed: u64,
    /// Payloads rejected as malformed.
    pub events_failed: u64,
    /// Fact tuples extracted across all shards.
    pub tuples_extracted: u64,
    /// Micro-cubes sealed.
    pub seals: u64,
    /// Micro-cubes merged into the global cube.
    pub merges: u64,
    /// Sends that blocked on a full shard queue.
    pub backpressure_stalls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::new();
        m.events_in.add(3);
        m.tuples_extracted.add(40);
        m.backpressure_stalls.add(1);
        let snap = m.snapshot();
        assert_eq!(snap.events_in, 3);
        assert_eq!(snap.tuples_extracted, 40);
        assert_eq!(snap.backpressure_stalls, 1);
        assert_eq!(snap.events_failed, 0);
        assert_eq!(snap, m.snapshot());
    }

    #[test]
    fn pipelines_do_not_see_each_other() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.events_in.add(5);
        assert_eq!(a.snapshot().events_in, 5);
        assert_eq!(b.snapshot().events_in, 0);
    }

    #[test]
    fn global_registry_accumulates_across_pipelines() {
        let before = sc_obs::Registry::global()
            .snapshot()
            .counter("stream.worker.seals")
            .unwrap_or(0);
        let a = Metrics::new();
        let b = Metrics::new();
        a.seals.add(2);
        b.seals.add(3);
        let after = sc_obs::Registry::global()
            .snapshot()
            .counter("stream.worker.seals")
            .unwrap_or(0);
        // Other tests may run concurrently and seal too, so >= not ==.
        assert!(after >= before + 5, "global total {after} < {before} + 5");
    }
}
