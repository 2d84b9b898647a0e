//! A run's own counts do not depend on the process-wide observability
//! switch; the global `stream.*` totals it feeds do.
//!
//! Own binary, single `#[test]`: `sc_obs::set_enabled` is process-wide, so
//! flipping it beside other tests would race with them, and the exact
//! global deltas below need no other run finishing in this process.

use sc_datagen::{BikesGenerator, BikesSpec};
use sc_stream::{MetricsSnapshot, StreamConfig, StreamIngestor};

fn global(name: &str) -> u64 {
    sc_obs::Registry::global()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

fn run() -> MetricsSnapshot {
    let config = StreamConfig {
        shards: 2,
        seal_tuple_watermark: 64,
        ..StreamConfig::default()
    };
    let ingestor = StreamIngestor::new(BikesGenerator::cube_def(), config);
    for snapshot in BikesGenerator::new(BikesSpec::small()) {
        ingestor.ingest(snapshot.xml);
    }
    ingestor.finish().metrics
}

#[test]
fn run_counts_survive_disabled_observability() {
    sc_obs::set_enabled(false);
    let before = global("stream.worker.tuples_extracted");
    let metrics = run();
    let after = global("stream.worker.tuples_extracted");
    sc_obs::set_enabled(true);
    assert_eq!(metrics.events_in, 24);
    assert_eq!(metrics.events_parsed, 24);
    assert_eq!(metrics.tuples_extracted, 480);
    assert!(metrics.seals > 0 && metrics.merges == metrics.seals);
    assert_eq!(after, before, "the global total respects the switch");

    // Enabled again: `finish` adds exactly the run's totals.
    let seals = global("stream.worker.seals");
    let metrics = run();
    assert_eq!(global("stream.worker.seals"), seals + metrics.seals);
    assert_eq!(
        global("stream.worker.tuples_extracted"),
        after + metrics.tuples_extracted
    );
}
