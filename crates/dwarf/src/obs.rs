//! Cube instrumentation handles (`dwarf.*`).
//!
//! Registered once on the global registry; every handle checks
//! [`sc_obs::enabled`] itself, so the disabled cost is a single relaxed load.

use sc_obs::{Counter, Registry, SpanHandle};
use std::sync::OnceLock;

pub(crate) struct DwarfObs {
    pub build: SpanHandle,
    pub nodes: Counter,
    pub cells: Counter,
    pub tuples: Counter,
    pub coalesce_cache_hits: Counter,
    pub point: SpanHandle,
    pub range: SpanHandle,
}

pub(crate) fn dwarf() -> &'static DwarfObs {
    static OBS: OnceLock<DwarfObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = Registry::global();
        DwarfObs {
            build: r.span("dwarf.build"),
            nodes: r.counter("dwarf.build.nodes"),
            cells: r.counter("dwarf.build.cells"),
            tuples: r.counter("dwarf.build.tuples"),
            coalesce_cache_hits: r.counter("dwarf.build.coalesce_cache_hits"),
            point: r.span("dwarf.query.point"),
            range: r.span("dwarf.query.range"),
        }
    })
}
