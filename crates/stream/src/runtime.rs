//! The sharded streaming runtime: worker pool, micro-cubes, merger.
//!
//! ```text
//!                    ingest(payload)
//!                          │  fnv1a(partition key) % shards
//!          ┌───────────────┼───────────────┐
//!          ▼               ▼               ▼
//!    [shard queue 0] [shard queue 1] [shard queue N-1]   bounded, blocking
//!          │               │               │
//!     worker thread   worker thread   worker thread      StreamPipeline::ingest
//!          │ build_cube on watermark   │
//!          └───────────────┼───────────────┘
//!                          ▼
//!                    [merge queue]                       sealed micro-cubes
//!                          │
//!                    merger thread                       Dwarf::merge_many
//!                          ▼
//!                     global Dwarf
//! ```
//!
//! Each worker owns a sequential [`StreamPipeline`] and seals it into a
//! DWARF micro-cube with [`StreamPipeline::build_cube`] whenever it crosses
//! the configured tuple- or byte-watermark; sealed cubes flow to a dedicated
//! merger thread that runs one [`Dwarf::merge_many`] over its queue. Because
//! every cube aggregate (Sum/Count/Min/Max) is commutative and associative,
//! the merged result is identical to feeding all documents through one
//! sequential [`StreamPipeline`] (sc-stream's equivalence test asserts
//! exactly that), no matter how payloads were sharded or interleaved.

use crate::config::StreamConfig;
use crate::metrics::{Metrics, MetricsSnapshot};
use sc_dwarf::Dwarf;
use sc_encoding::fnv1a_64;
use sc_ingest::{CubeDef, StreamPipeline};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Delivers `value` on a bounded queue, blocking while it is full, and says
/// whether it had to: `Ok(true)` is the backpressure event the stall metric
/// counts. A vanished receiver hands the value back, as `send` itself does.
fn send_counting_stall<T>(tx: &SyncSender<T>, value: T) -> Result<bool, T> {
    match tx.try_send(value) {
        Ok(()) => Ok(false),
        Err(TrySendError::Full(value)) => tx.send(value).map(|()| true).map_err(|e| e.0),
        Err(TrySendError::Disconnected(value)) => Err(value),
    }
}

/// Everything the runtime hands back after a graceful drain.
#[derive(Debug)]
pub struct StreamResult {
    /// The merged global cube over every ingested document.
    pub cube: Dwarf,
    /// Final counter values.
    pub metrics: MetricsSnapshot,
}

/// A running sharded ingestion pipeline.
///
/// Create with [`StreamIngestor::new`], feed payloads with
/// [`ingest`](Self::ingest) (or [`ingest_keyed`](Self::ingest_keyed) to
/// control placement), then call [`finish`](Self::finish) to drain every
/// queue, seal the remainders and obtain the merged cube.
pub struct StreamIngestor {
    shards: Vec<SyncSender<String>>,
    workers: Vec<JoinHandle<()>>,
    merger: JoinHandle<Dwarf>,
    metrics: Arc<Metrics>,
}

impl StreamIngestor {
    /// Spawns the worker pool and merger for `def`.
    pub fn new(def: CubeDef, config: StreamConfig) -> StreamIngestor {
        config.validate();
        let metrics = Arc::new(Metrics::default());
        // The merge queue is sized to the shard count: at any moment each
        // worker contributes at most one in-flight sealed cube plus one
        // being built, so this never becomes the bottleneck.
        let (merge_tx, merge_rx) = sync_channel::<Dwarf>(config.shards.max(2));
        let merger = {
            let metrics = Arc::clone(&metrics);
            let schema = def.schema();
            std::thread::Builder::new()
                .name("sc-stream-merger".into())
                .spawn(move || run_merger(schema, merge_rx, &metrics))
                .expect("spawn merger thread")
        };
        let mut shards = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = sync_channel::<String>(config.channel_capacity);
            let def = def.clone();
            let config = config.clone();
            let metrics = Arc::clone(&metrics);
            let merge_tx = merge_tx.clone();
            let worker = std::thread::Builder::new()
                .name(format!("sc-stream-worker-{shard}"))
                .spawn(move || run_worker(def, &config, rx, merge_tx, &metrics))
                .expect("spawn worker thread");
            shards.push(tx);
            workers.push(worker);
        }
        // Workers hold the only remaining merge senders; once they exit the
        // merger sees end-of-stream.
        drop(merge_tx);
        StreamIngestor {
            shards,
            workers,
            merger,
            metrics,
        }
    }

    /// Queues one raw payload, sharding by a hash of the payload itself.
    pub fn ingest(&self, payload: String) {
        let shard = (fnv1a_64(payload.as_bytes()) as usize) % self.shards.len();
        self.dispatch(shard, payload);
    }

    /// Queues one raw payload, sharding by `partition_key` — payloads with
    /// equal keys land on the same worker (useful to keep one sensor's
    /// documents ordered within a shard).
    pub fn ingest_keyed(&self, partition_key: &str, payload: String) {
        let shard = (fnv1a_64(partition_key.as_bytes()) as usize) % self.shards.len();
        self.dispatch(shard, payload);
    }

    fn dispatch(&self, shard: usize, payload: String) {
        self.metrics.events_in.fetch_add(1, Relaxed);
        match send_counting_stall(&self.shards[shard], payload) {
            Ok(false) => {}
            Ok(true) => {
                self.metrics.backpressure_stalls.fetch_add(1, Relaxed);
            }
            // A dead worker means a panic in parse/extract code; surface it
            // at the ingest site rather than deadlocking the producer.
            Err(_) => panic!("stream worker for shard {shard} terminated"),
        }
    }

    /// Live counters (shared with every pipeline thread).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Drains every queue, seals what remains, joins all threads and
    /// returns the merged cube plus final metrics, which it also adds to
    /// the global `stream.*` counters.
    pub fn finish(self) -> StreamResult {
        let StreamIngestor {
            shards,
            workers,
            merger,
            metrics,
        } = self;
        // Dropping the senders signals end-of-stream; each worker drains
        // its queue, seals any partial micro-cube and exits.
        drop(shards);
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        let cube = match merger.join() {
            Ok(cube) => cube,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        let metrics = metrics.snapshot();
        metrics.publish();
        StreamResult { cube, metrics }
    }
}

/// Worker loop: ingest into the shard's pipeline, seal on watermark.
fn run_worker(
    def: CubeDef,
    config: &StreamConfig,
    rx: Receiver<String>,
    merge_tx: SyncSender<Dwarf>,
    metrics: &Metrics,
) {
    let mut pipeline = StreamPipeline::new(def);
    // `recv` errs once every sender is gone and the queue is drained.
    while let Ok(payload) = rx.recv() {
        match pipeline.ingest(&payload) {
            Ok(stats) => {
                metrics.events_parsed.fetch_add(1, Relaxed);
                metrics
                    .tuples_extracted
                    .fetch_add(stats.extracted as u64, Relaxed);
            }
            Err(_) => {
                metrics.events_failed.fetch_add(1, Relaxed);
            }
        }
        if pipeline.tuple_count() >= config.seal_tuple_watermark
            || pipeline.approximate_bytes() >= config.seal_byte_watermark
        {
            seal(&mut pipeline, &merge_tx, metrics);
        }
    }
    // End of stream: seal the partial remainder so nothing is lost.
    if pipeline.tuple_count() > 0 {
        seal(&mut pipeline, &merge_tx, metrics);
    }
}

fn seal(pipeline: &mut StreamPipeline, merge_tx: &SyncSender<Dwarf>, metrics: &Metrics) {
    let micro = pipeline.build_cube();
    metrics.seals.fetch_add(1, Relaxed);
    if merge_tx.send(micro).is_err() {
        // The merger died (panicked); the worker's own exit will surface it
        // when the runtime joins the merger thread.
    }
}

/// Merger loop: one merge over every sealed micro-cube, as it arrives.
fn run_merger(schema: sc_dwarf::CubeSchema, rx: Receiver<Dwarf>, metrics: &Metrics) -> Dwarf {
    let micro_cubes = rx.iter().inspect(|_| {
        metrics.merges.fetch_add(1, Relaxed);
    });
    Dwarf::merge_many(schema, micro_cubes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_ingest::cube_def::TimeField;

    fn def() -> CubeDef {
        CubeDef::xml("/stations/station")
            .timestamp("@updated")
            .time_dimension("day", TimeField::Day)
            .dimension("station", "name/text()")
            .measure("bikes", "bikes/text()")
            .build()
            .unwrap()
    }

    fn feed(day: u8, station: &str, bikes: i64) -> String {
        format!(
            r#"<stations updated="2015-11-{day:02}T10:00:00">
              <station><name>{station}</name><bikes>{bikes}</bikes></station>
            </stations>"#
        )
    }

    #[test]
    fn full_queue_stalls_and_reports_it() {
        // A send into a full queue must block until the receiver makes
        // room, and must say so. std exposes no "the sender is blocked"
        // signal to wait on, so the receiver gives the sender ever more time
        // to find the queue full; a send that got there late is not a stall.
        for patience_ms in [1, 10, 100, 1000] {
            let (tx, rx) = sync_channel(1);
            assert_eq!(send_counting_stall(&tx, 1), Ok(false));
            let sender = std::thread::spawn(move || send_counting_stall(&tx, 2));
            std::thread::sleep(std::time::Duration::from_millis(patience_ms));
            assert_eq!(rx.recv(), Ok(1));
            let stalled = sender.join().unwrap();
            assert_eq!(rx.recv(), Ok(2));
            if stalled == Ok(true) {
                return;
            }
        }
        panic!("no send into a full queue ever reported its stall");
    }

    #[test]
    fn sender_drop_ends_the_stream_after_a_drain() {
        let (tx, rx) = sync_channel::<u8>(2);
        let tx2 = tx.clone();
        assert_eq!(send_counting_stall(&tx, 7), Ok(false));
        drop(tx);
        // A clone still holds the channel open.
        let blocked = std::thread::spawn(move || (rx.recv(), rx.recv()));
        drop(tx2);
        let (first, second) = blocked.join().unwrap();
        assert_eq!(first, Ok(7));
        assert!(second.is_err(), "drained and senderless: end of stream");
    }

    #[test]
    fn receiver_drop_hands_the_value_back() {
        let (tx, rx) = sync_channel(1);
        assert_eq!(send_counting_stall(&tx, 1), Ok(false));
        // Blocked on the full queue when the receiver goes...
        let tx2 = tx.clone();
        let blocked = std::thread::spawn(move || send_counting_stall(&tx2, 2));
        drop(rx);
        assert_eq!(blocked.join().unwrap(), Err(2));
        // ...and after.
        assert_eq!(send_counting_stall(&tx, 9), Err(9));
    }

    #[test]
    fn empty_stream_produces_empty_cube() {
        let ingestor = StreamIngestor::new(def(), StreamConfig::with_shards(2));
        let result = ingestor.finish();
        assert_eq!(result.cube.tuple_count(), 0);
        assert_eq!(result.metrics, MetricsSnapshot::default());
    }

    #[test]
    fn malformed_payloads_are_counted_not_fatal() {
        let ingestor = StreamIngestor::new(def(), StreamConfig::with_shards(2));
        ingestor.ingest(feed(1, "A", 5));
        ingestor.ingest("<not-even".to_string());
        ingestor.ingest(feed(2, "B", 7));
        let result = ingestor.finish();
        assert_eq!(result.metrics.events_in, 3);
        assert_eq!(result.metrics.events_parsed, 2);
        assert_eq!(result.metrics.events_failed, 1);
        assert_eq!(result.cube.tuple_count(), 2);
    }

    #[test]
    fn keyed_ingest_routes_consistently() {
        // Same key → same shard; with one shard per key's hash the counts
        // must still add up globally.
        let ingestor = StreamIngestor::new(def(), StreamConfig::with_shards(3));
        for day in 1..=9 {
            ingestor.ingest_keyed("sensor-A", feed(day, "A", i64::from(day)));
        }
        let result = ingestor.finish();
        assert_eq!(result.metrics.events_parsed, 9);
        assert_eq!(result.cube.tuple_count(), 9);
    }

    #[test]
    fn tuple_watermark_seals_micro_cubes() {
        let config = StreamConfig {
            shards: 1,
            seal_tuple_watermark: 2,
            ..StreamConfig::default()
        };
        let ingestor = StreamIngestor::new(def(), config);
        for day in 1..=5 {
            ingestor.ingest(feed(day, "A", 1));
        }
        let result = ingestor.finish();
        // 5 tuples at watermark 2 → seals after docs 2 and 4, plus the
        // final drain seal of the remaining 1.
        assert_eq!(result.metrics.seals, 3);
        assert_eq!(result.metrics.merges, 3);
        assert_eq!(result.cube.tuple_count(), 5);
    }
}
