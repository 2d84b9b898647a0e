//! Named-metric registry: get-or-register counters, gauges and histograms,
//! snapshot and reset.

use crate::enabled;
use crate::histogram::{Histogram, HistogramCore, HistogramSnapshot};
use crate::span::SpanHandle;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A monotonic counter handle. Cloning is cheap; all clones share one cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`. No-op (a single relaxed load) while observability is
    /// disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous-value handle. Cloning is cheap; all clones share
/// one cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Adds `delta` (may be negative). No-op while observability is
    /// disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sets the value. No-op while disabled.
    #[inline]
    pub fn set(&self, value: i64) {
        if enabled() {
            self.cell.store(value, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
enum Entry {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
        }
    }
}

/// Both maps are taken over with `into_inner` when poisoned: every update
/// under their locks is one map operation that leaves the map valid, so a
/// thread that panicked holding one (the kind-mismatch `panic!` below fires
/// with `metrics` locked) leaves every later registration working.
#[derive(Debug, Default)]
struct Inner {
    metrics: Mutex<BTreeMap<String, Entry>>,
    helps: Mutex<BTreeMap<String, String>>,
}

/// A registry of named metrics.
///
/// [`Registry::global`] is the process-wide instance every instrumented
/// crate records into.
///
/// Registration takes a lock and may allocate; recording through the
/// returned handles is lock-free. Callers therefore register once (e.g. in
/// a `OnceLock` static or a struct field) and record through the handle.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Attaches a human-readable description to metric `name`, rendered as
    /// the `# HELP` line of the Prometheus exposition. For spans, describe
    /// the derived histograms (`{name}.duration_ns`). Undescribed metrics
    /// get a fallback `# HELP` naming the dotted series.
    pub fn describe(&self, name: &str, help: &str) {
        self.inner
            .helps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), help.to_string());
    }

    /// The cell registered under `name`: `make` creates the entry when the
    /// name is new, `pick` takes the cell out of it.
    ///
    /// The kind-mismatch `panic!` is reachable only by programmer error:
    /// metric names are string literals in the instrumented crates, never
    /// input.
    fn register<T>(
        &self,
        name: &str,
        kind: &str,
        make: fn() -> Entry,
        pick: fn(&Entry) -> Option<T>,
    ) -> T {
        let mut metrics = self
            .inner
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = metrics.entry(name.to_string()).or_insert_with(make);
        match pick(entry) {
            Some(cell) => cell,
            None => panic!(
                "metric {name:?} already registered as a {}, not a {kind}",
                entry.kind()
            ),
        }
    }

    /// Gets or registers the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let cell = self.register(
            name,
            "counter",
            || Entry::Counter(Arc::default()),
            |entry| match entry {
                Entry::Counter(cell) => Some(Arc::clone(cell)),
                _ => None,
            },
        );
        Counter { cell }
    }

    /// Gets or registers the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let cell = self.register(
            name,
            "gauge",
            || Entry::Gauge(Arc::default()),
            |entry| match entry {
                Entry::Gauge(cell) => Some(Arc::clone(cell)),
                _ => None,
            },
        );
        Gauge { cell }
    }

    /// Gets or registers the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let core = self.register(
            name,
            "histogram",
            || Entry::Histogram(Arc::new(HistogramCore::new())),
            |entry| match entry {
                Entry::Histogram(core) => Some(Arc::clone(core)),
                _ => None,
            },
        );
        Histogram { core }
    }

    /// Gets or registers the pair of histograms backing span `name`
    /// (`{name}.duration_ns` and `{name}.bytes`) and returns the reusable
    /// handle. See [`SpanHandle`].
    pub fn span(&self, name: &'static str) -> SpanHandle {
        SpanHandle::new(
            name,
            self.histogram(&format!("{name}.duration_ns")),
            self.histogram(&format!("{name}.bytes")),
        )
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self
            .inner
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut snap = RegistrySnapshot::default();
        for (name, entry) in metrics.iter() {
            match entry {
                Entry::Counter(cell) => snap
                    .counters
                    .push((name.clone(), cell.load(Ordering::Relaxed))),
                Entry::Gauge(cell) => snap
                    .gauges
                    .push((name.clone(), cell.load(Ordering::Relaxed))),
                Entry::Histogram(core) => snap.histograms.push((name.clone(), core.snapshot())),
            }
        }
        let helps = self
            .inner
            .helps
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        snap.helps = helps.iter().map(|(n, h)| (n.clone(), h.clone())).collect();
        snap
    }

    /// Zeroes every metric. Registered handles stay valid.
    pub fn reset(&self) {
        let metrics = self
            .inner
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for entry in metrics.values() {
            match entry {
                Entry::Counter(cell) => cell.store(0, Ordering::Relaxed),
                Entry::Gauge(cell) => cell.store(0, Ordering::Relaxed),
                Entry::Histogram(core) => core.reset(),
            }
        }
    }
}

/// A point-in-time copy of a registry's metrics, each list sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, help)` for every metric described via [`Registry::describe`].
    pub helps: Vec<(String, String)>,
}

impl RegistrySnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The snapshot of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The registered help text for metric `name`, if any.
    pub fn help(&self, name: &str) -> Option<&str> {
        self.helps
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.as_str())
    }

    /// True when no metric has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn get_or_register_returns_shared_storage() {
        let registry = Registry::new();
        let a = registry.counter("r.a.hits");
        let b = registry.counter("r.a.hits");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(registry.snapshot().counter("r.a.hits"), Some(3));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("r.kind.clash");
        registry.histogram("r.kind.clash");
    }

    #[test]
    fn a_panic_holding_the_lock_leaves_the_registry_working() {
        let registry = Registry::new();
        registry.counter("r.poison.n").inc();
        // The kind mismatch panics with the metrics lock held, poisoning it.
        let clash = thread::scope(|scope| {
            scope
                .spawn(|| registry.histogram("r.poison.n"))
                .join()
                .is_err()
        });
        assert!(clash, "the kind mismatch must panic");
        registry.counter("r.poison.n").inc();
        registry.gauge("r.poison.g").set(3);
        registry.describe("r.poison.g", "a gauge registered after the panic");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("r.poison.n"), Some(2));
        assert_eq!(snap.gauge("r.poison.g"), Some(3));
        registry.reset();
        assert_eq!(registry.snapshot().counter("r.poison.n"), Some(0));
    }

    #[test]
    fn gauge_set_and_add() {
        let registry = Registry::new();
        let g = registry.gauge("r.g.level");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        assert_eq!(registry.snapshot().gauge("r.g.level"), Some(7));
    }

    #[test]
    fn reset_zeroes_and_keeps_handles_valid() {
        let registry = Registry::new();
        let c = registry.counter("r.reset.n");
        let h = registry.histogram("r.reset.h");
        c.add(4);
        h.record(9);
        registry.reset();
        assert_eq!(registry.snapshot().counter("r.reset.n"), Some(0));
        assert_eq!(registry.snapshot().histogram("r.reset.h").unwrap().count, 0);
        assert_eq!(c.get(), 0, "handle stays valid after reset");
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn snapshot_under_concurrent_increment_is_coherent() {
        let registry = Registry::new();
        let c = registry.counter("r.conc.n");
        let h = registry.histogram("r.conc.h");
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 10_000;
        thread::scope(|scope| {
            for _ in 0..THREADS {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record(i % 7);
                    }
                });
            }
            // Snapshots taken mid-flight must be internally sane: counts
            // monotone, histogram bucket total == histogram count is NOT
            // guaranteed mid-update, but nothing may exceed the final total
            // and nothing may go backwards.
            let mut last = 0u64;
            for _ in 0..100 {
                let snap = registry.snapshot();
                let n = snap.counter("r.conc.n").unwrap();
                assert!(n >= last, "counter went backwards: {n} < {last}");
                assert!(n <= THREADS as u64 * PER_THREAD);
                last = n;
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("r.conc.n"), Some(THREADS as u64 * PER_THREAD));
        let hs = snap.histogram("r.conc.h").unwrap();
        assert_eq!(hs.count, THREADS as u64 * PER_THREAD);
        assert_eq!(hs.buckets.iter().map(|&(_, n)| n).sum::<u64>(), hs.count);
    }
}
