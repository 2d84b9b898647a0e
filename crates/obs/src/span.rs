//! RAII span tracing.
//!
//! A [`SpanHandle`] names a region of code and owns the two histograms the
//! region feeds (`{name}.duration_ns`, `{name}.bytes`). [`SpanHandle::start`]
//! returns a [`SpanGuard`] that, on drop, records the elapsed monotonic time
//! (always) and the attached byte count (when non-zero). While a request
//! trace is being built on the thread, the span also becomes a node of
//! that trace's tree (see [`crate::trace`]).
//!
//! Instrumented code registers a handle once and keeps it (a struct field
//! or a `OnceLock` static), making the steady-state cost of an instrumented
//! region one atomic load (disabled) or one `Instant::now` pair plus a few
//! relaxed RMWs (enabled).

use crate::enabled;
use crate::histogram::Histogram;
use std::time::Instant;

/// A named, reusable span. Obtain one from
/// [`Registry::span`](crate::Registry::span).
#[derive(Debug, Clone)]
pub struct SpanHandle {
    name: &'static str,
    duration_ns: Histogram,
    bytes: Histogram,
}

impl SpanHandle {
    pub(crate) fn new(name: &'static str, duration_ns: Histogram, bytes: Histogram) -> SpanHandle {
        SpanHandle {
            name,
            duration_ns,
            bytes,
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Enters the span. While observability is disabled this is a single
    /// relaxed load and the returned guard is inert.
    #[inline]
    pub fn start(&self) -> SpanGuard<'_> {
        if !enabled() {
            return SpanGuard { active: None };
        }
        SpanGuard {
            active: Some(ActiveSpan {
                handle: self,
                started: Instant::now(),
                bytes: 0,
                trace_idx: crate::trace::open_span(self.name),
            }),
        }
    }
}

#[derive(Debug)]
struct ActiveSpan<'a> {
    handle: &'a SpanHandle,
    started: Instant,
    bytes: u64,
    /// Node index in the active request trace, if one is being built on
    /// this thread (see [`crate::trace`]).
    trace_idx: Option<u32>,
}

/// RAII guard for an entered span; records on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl SpanGuard<'_> {
    /// Attributes `n` bytes to this span occurrence (e.g. bytes flushed).
    #[inline]
    pub fn add_bytes(&mut self, n: u64) {
        if let Some(active) = &mut self.active {
            active.bytes = active.bytes.saturating_add(n);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let duration_ns = u64::try_from(active.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        crate::trace::close_span(active.trace_idx);
        active.handle.duration_ns.record(duration_ns);
        if active.bytes > 0 {
            active.handle.bytes.record(active.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn span_records_duration_and_bytes() {
        let registry = Registry::new();
        let outer = registry.span("t.span.outer");
        let inner = registry.span("t.span.inner");
        {
            let mut outer_guard = outer.start();
            outer_guard.add_bytes(100);
            outer_guard.add_bytes(28);
            {
                let _inner_guard = inner.start();
                std::hint::black_box(());
            }
        }
        let snap = registry.snapshot();
        let outer_ns = snap.histogram("t.span.outer.duration_ns").unwrap();
        assert_eq!(outer_ns.count, 1);
        assert!(outer_ns.sum > 0, "monotonic duration must be non-zero ns");
        let outer_bytes = snap.histogram("t.span.outer.bytes").unwrap();
        assert_eq!(outer_bytes.sum, 128);
        // Inner span recorded no bytes → bytes histogram stays empty.
        assert_eq!(snap.histogram("t.span.inner.bytes").unwrap().count, 0);
    }
}
