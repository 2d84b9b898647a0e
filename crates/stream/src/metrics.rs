//! Runtime counters for the streaming pipeline.
//!
//! Workers, the merger and the ingest front-end all share one [`Metrics`]
//! through an `Arc` and count the run in plain relaxed atomics, so a run's
//! counts are its own (concurrent pipelines, and tests, never see each
//! other's traffic) and do not depend on [`sc_obs::set_enabled`].
//! [`StreamIngestor::finish`](crate::StreamIngestor::finish) adds the run's
//! totals to the process-wide `stream.*` counters of the global
//! [`sc_obs::Registry`] once, which `repro --stats` and the server's
//! `/metrics` report and which do respect that switch.
//!
//! Counters are independent relaxed atomics — no ordering is implied
//! between them, and a snapshot is only ever taken after the threads it
//! observes have quiesced or for advisory progress reporting.

use sc_obs::{Counter, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Shared counters, incremented live by pipeline threads.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Raw payloads accepted by [`StreamIngestor::ingest`](crate::StreamIngestor::ingest).
    pub events_in: AtomicU64,
    /// Payloads successfully parsed and extracted by a worker.
    pub events_parsed: AtomicU64,
    /// Payloads rejected (malformed document or failed extraction).
    pub events_failed: AtomicU64,
    /// Fact tuples extracted across all shards.
    pub tuples_extracted: AtomicU64,
    /// Micro-cubes sealed by watermark or final drain.
    pub seals: AtomicU64,
    /// Sealed micro-cubes absorbed by the merger.
    pub merges: AtomicU64,
    /// Sends that blocked on a full shard queue.
    pub backpressure_stalls: AtomicU64,
}

impl Metrics {
    /// Copies every counter into a plain snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        MetricsSnapshot {
            events_in: get(&self.events_in),
            events_parsed: get(&self.events_parsed),
            events_failed: get(&self.events_failed),
            tuples_extracted: get(&self.tuples_extracted),
            seals: get(&self.seals),
            merges: get(&self.merges),
            backpressure_stalls: get(&self.backpressure_stalls),
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

impl MetricsSnapshot {
    /// Every count beside the name of its process-wide counter.
    fn named(&self) -> [(&'static str, u64); 7] {
        [
            ("stream.ingest.events_in", self.events_in),
            ("stream.worker.events_parsed", self.events_parsed),
            ("stream.worker.events_failed", self.events_failed),
            ("stream.worker.tuples_extracted", self.tuples_extracted),
            ("stream.worker.seals", self.seals),
            ("stream.merger.merges", self.merges),
            (
                "stream.ingest.backpressure_stalls",
                self.backpressure_stalls,
            ),
        ]
    }

    /// Adds this run's counts to the global `stream.*` counters (no-op while
    /// [`sc_obs::enabled`] is off). The handles are registered once.
    pub(crate) fn publish(&self) {
        static TOTALS: OnceLock<Vec<Counter>> = OnceLock::new();
        let totals = TOTALS.get_or_init(|| {
            let registry = Registry::global();
            let names = MetricsSnapshot::default().named().map(|(name, _)| name);
            names.iter().map(|name| registry.counter(name)).collect()
        });
        for (total, (_, n)) in totals.iter().zip(self.named()) {
            total.add(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::default();
        m.events_in.fetch_add(3, Ordering::Relaxed);
        m.tuples_extracted.fetch_add(40, Ordering::Relaxed);
        m.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.events_in, 3);
        assert_eq!(snap.tuples_extracted, 40);
        assert_eq!(snap.backpressure_stalls, 1);
        assert_eq!(snap.events_failed, 0);
        assert_eq!(snap, m.snapshot());
    }
}
