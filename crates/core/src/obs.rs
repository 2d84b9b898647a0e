//! Store read-path instrumentation handles (`core.store_query.*`).
//!
//! Registered once on the global registry; every handle checks
//! [`sc_obs::enabled`] itself, so the disabled cost is a single relaxed load.

use sc_obs::{Counter, Histogram, Registry, SpanHandle};
use std::sync::OnceLock;

pub(crate) struct StoreQueryObs {
    /// Node views answered from the bounded LRU cache.
    pub node_cache_hits: Counter,
    /// Node views that had to touch the store.
    pub node_cache_misses: Counter,
    /// Rows read from the store (node rows + cell rows).
    pub rows_fetched: Counter,
    /// Cells per batched `WHERE id IN (...)` fetch.
    pub batch_size: Histogram,
    /// One node materialization from the store
    /// (`core.store_query.fetch.duration_ns`).
    pub fetch: SpanHandle,
}

pub(crate) fn store_query() -> &'static StoreQueryObs {
    static OBS: OnceLock<StoreQueryObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = Registry::global();
        StoreQueryObs {
            node_cache_hits: r.counter("core.store_query.node_cache_hits"),
            node_cache_misses: r.counter("core.store_query.node_cache_misses"),
            rows_fetched: r.counter("core.store_query.rows_fetched"),
            batch_size: r.histogram("core.store_query.batch_size"),
            fetch: r.span("core.store_query.fetch"),
        }
    })
}
