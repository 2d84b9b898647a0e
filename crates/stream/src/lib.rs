//! # sc-stream
//!
//! Sharded parallel streaming ingestion for smart-city cube construction.
//!
//! The sequential path (`sc_ingest::StreamPipeline`) parses every feed
//! document on one thread. This crate runs several of those pipelines at
//! once while keeping results bit-identical:
//!
//! 1. raw XML/JSON payloads are hash-sharded by partition key across a
//!    fixed pool of worker threads (one bounded `std::sync::mpsc` queue per
//!    shard provides blocking backpressure),
//! 2. each worker owns a `StreamPipeline` and seals it into a DWARF
//!    **micro-cube** (`build_cube`) whenever a tuple- or byte-watermark is
//!    crossed,
//! 3. a dedicated merger thread runs one `Dwarf::merge_many` over the
//!    sealed micro-cubes as they arrive, building the global cube once,
//! 4. the caller stores the merged cube like any other window's (see
//!    `sc_core::CubeWarehouse::store_window`).
//!
//! Everything is `std`-only: threads are `std::thread`, queues are
//! `std::sync::mpsc::sync_channel`, counters are `AtomicU64` ([`metrics`]).
//!
//! ```
//! use sc_stream::{StreamConfig, StreamIngestor};
//! # use sc_ingest::cube_def::TimeField;
//! # use sc_ingest::CubeDef;
//! # let def = CubeDef::xml("/stations/station")
//! #     .timestamp("@updated")
//! #     .time_dimension("day", TimeField::Day)
//! #     .dimension("station", "name/text()")
//! #     .measure("bikes", "bikes/text()")
//! #     .build()
//! #     .unwrap();
//! let ingestor = StreamIngestor::new(def, StreamConfig::with_shards(4));
//! ingestor.ingest(r#"<stations updated="2015-11-01T10:00:00">
//!     <station><name>A</name><bikes>3</bikes></station>
//! </stations>"#.to_string());
//! let result = ingestor.finish();
//! assert_eq!(result.cube.tuple_count(), 1);
//! assert_eq!(result.metrics.events_parsed, 1);
//! ```

pub mod config;
pub mod metrics;
pub mod runtime;

pub use config::StreamConfig;
pub use metrics::{Metrics, MetricsSnapshot};
pub use runtime::{StreamIngestor, StreamResult};
