//! # sc-obs
//!
//! Workspace-wide observability: a zero-dependency metric registry plus a
//! lightweight structured-tracing facility. Every crate in the data path
//! (`sc-storage`, `sc-nosql`, `sc-dwarf`, `sc-stream`) records into one
//! process-global [`Registry`]; `repro ... --stats` prints it as a text
//! report, and `sc-server`'s `/metrics` serves it as Prometheus text.
//!
//! ## Model
//!
//! * **Counters** — monotonic `u64`s (`nosql.commitlog.append_bytes`).
//! * **Gauges** — signed instantaneous values (`nosql.memtable.bytes`).
//! * **Histograms** — log-bucketed (powers of two) latency/size
//!   distributions with count/sum/min/max and quantile estimates.
//! * **Spans** — RAII guards ([`SpanHandle::start`]) that time a region
//!   and feed a `<name>.duration_ns` histogram (plus `<name>.bytes` when
//!   bytes are attached). A latency histogram over one thread's region is
//!   always a span; there is no other timer.
//!
//! * **Traces** — per-request span *trees* with engine attribution
//!   counters, tail-sampled into a bounded store (see [`trace`]). Off by
//!   default; servers opt in with [`set_trace_enabled`]. A region that
//!   should appear in the tree but feed no histogram is a [`trace::stage`].
//!
//! Metric names follow the convention **`crate.component.metric`**
//! (e.g. `storage.vfs.append_bytes`, `dwarf.build.nodes`).
//!
//! ## Hot-path cost
//!
//! Recording is lock-free: every handle holds one shared cell — an atomic,
//! or a histogram's atomic buckets — updated with relaxed RMWs. A
//! process-wide toggle ([`set_enabled`]) turns all recording off; the
//! disabled path of [`Counter::add`], [`Histogram::record`] and
//! [`SpanHandle::start`] is a **single relaxed atomic load** and never
//! allocates (proven by `tests/no_alloc.rs`). The registry lock is touched
//! only at handle registration time — instrumented code caches handles in
//! `OnceLock` statics or struct fields, never looks them up per operation.
//!
//! ```
//! use sc_obs::Registry;
//!
//! let registry = Registry::new();
//! let puts = registry.counter("demo.engine.puts");
//! let latency = registry.histogram("demo.engine.put_ns");
//! puts.inc();
//! latency.record(850);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("demo.engine.puts"), Some(1));
//! assert!(snap.to_prometheus_text().contains("demo_engine_puts 1"));
//! ```

pub mod export;
pub mod histogram;
pub mod registry;
pub mod span;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use span::{SpanGuard, SpanHandle};
pub use trace::{set_trace_enabled, trace_enabled, TailSampler, Trace, TraceGuard, TraceSpan};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide recording switch. `true` at startup.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether recording is enabled (one relaxed load — this is the entire
/// disabled fast path of every recording primitive).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns all metric recording and span tracing on or off at runtime.
///
/// Already-recorded values are kept; use [`Registry::reset`] to zero them.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// The global on/off toggle is tested in `tests/no_alloc.rs`, which runs in
// its own process: unit tests here share one binary and assume recording
// stays enabled, so flipping the process-wide switch mid-run would race.
