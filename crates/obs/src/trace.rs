//! Per-request trace trees with tail sampling.
//!
//! A **trace** is the span tree of one request: the server calls
//! [`begin`] with a 64-bit trace ID when a statement arrives, code on the
//! request path opens named [`stage`]s (and every
//! [`SpanHandle`](crate::SpanHandle) entered while the trace is active joins the tree
//! automatically), engine hot paths attach cheap attribution counters via
//! [`add`] ([`Attr`]: WAL commit-wait, memtable vs SSTable hits, blocks
//! read, bloom probes, block-cache hits/misses, VFS bytes), and
//! [`TraceGuard::finish`] yields the completed [`Trace`] which is offered
//! to the global [`TailSampler`].
//!
//! ## Cost discipline
//!
//! The same kill-switch discipline as the metric registry, one level
//! stricter: tracing is **off by default** ([`set_trace_enabled`]), and
//! every per-event primitive ([`stage`], [`add`], the span-tree hook
//! inside `SpanHandle::start`) first reads a thread-local flag that is
//! only set while a trace is active *on that thread*. With no active
//! trace the cost is one thread-local load and **zero allocations**
//! (proven alongside the registry's fast path in `tests/no_alloc.rs`).
//! Allocation happens only on traced requests, which the sampler bounds.
//!
//! ## Sampling policy
//!
//! Retaining every trace would turn a diagnostic into a second workload,
//! so completed traces are *tail-sampled*: per statement kind the sampler
//! keeps the slowest-K plus one in every N offered (the first of each
//! kind is always kept), each in a bounded ring. The request path never
//! blocks on the sampler — `offer` uses `try_lock` and discards the trace
//! if a scraper holds the lock (counted in [`TailSampler::contended_drops`]).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Process-wide tracing switch, layered *under* [`crate::enabled`]:
/// [`begin`] starts a trace only when both are on.
static TRACING: AtomicU64 = AtomicU64::new(0);

/// Whether request tracing is enabled (tracing is off by default; servers
/// opt in).
#[inline(always)]
pub fn trace_enabled() -> bool {
    TRACING.load(Ordering::Relaxed) != 0
}

/// Turns request tracing on or off at runtime. Off is the default: with
/// tracing off, [`begin`] returns an inert guard and no request-path
/// primitive allocates.
pub fn set_trace_enabled(on: bool) {
    TRACING.store(u64::from(on), Ordering::Relaxed);
}

/// Per-request attribution counters, snapshotted into the innermost open
/// span so a trace shows *which stage* paid for what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Attr {
    /// Nanoseconds spent queued in the group-commit WAL (leader linger +
    /// follower wait).
    CommitWaitNs,
    /// Point reads answered definitively by the memtable (no disk).
    MemtableHits,
    /// SSTables probed by point reads.
    SstableProbes,
    /// Data blocks read (cache miss → VFS, cache hit → copy).
    BlocksRead,
    /// Bloom filters consulted.
    BloomProbes,
    /// Blocks served from the shared block cache.
    BlockCacheHits,
    /// Blocks that missed the shared block cache.
    BlockCacheMisses,
    /// Bytes read from the VFS leaf (disk or memory backend).
    VfsReadBytes,
    /// Bytes appended to the VFS leaf.
    VfsWriteBytes,
    /// Rows pulled from a child operator by a query-pipeline operator
    /// (charged to the consuming operator's span).
    OpRowsIn,
    /// Rows emitted by a query-pipeline operator (charged to the
    /// operator's own span).
    OpRowsOut,
}

impl Attr {
    /// Number of attribution counters (length of a span's `attrs` array).
    pub const COUNT: usize = 11;

    /// All attributes, index order.
    pub const ALL: [Attr; Attr::COUNT] = [
        Attr::CommitWaitNs,
        Attr::MemtableHits,
        Attr::SstableProbes,
        Attr::BlocksRead,
        Attr::BloomProbes,
        Attr::BlockCacheHits,
        Attr::BlockCacheMisses,
        Attr::VfsReadBytes,
        Attr::VfsWriteBytes,
        Attr::OpRowsIn,
        Attr::OpRowsOut,
    ];

    /// Stable snake_case name used in every export format.
    pub fn name(self) -> &'static str {
        match self {
            Attr::CommitWaitNs => "commit_wait_ns",
            Attr::MemtableHits => "memtable_hits",
            Attr::SstableProbes => "sstable_probes",
            Attr::BlocksRead => "blocks_read",
            Attr::BloomProbes => "bloom_probes",
            Attr::BlockCacheHits => "block_cache_hits",
            Attr::BlockCacheMisses => "block_cache_misses",
            Attr::VfsReadBytes => "vfs_read_bytes",
            Attr::VfsWriteBytes => "vfs_write_bytes",
            Attr::OpRowsIn => "op_rows_in",
            Attr::OpRowsOut => "op_rows_out",
        }
    }
}

/// One node of a trace's span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Stage or span name (e.g. `server.execute`, `nosql.flush`).
    pub name: &'static str,
    /// Index of the parent span in [`Trace::spans`]; `None` for a
    /// top-level stage.
    pub parent: Option<u32>,
    /// Start offset from the trace's begin, in nanoseconds.
    pub start_ns: u64,
    /// Elapsed wall time, in nanoseconds.
    pub duration_ns: u64,
    /// Attribution counters charged while this span was innermost-open.
    pub attrs: [u64; Attr::COUNT],
}

/// A completed request trace: identity, timing, span tree, attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// 64-bit trace ID (client-supplied or server-minted; never 0).
    pub trace_id: u64,
    /// Statement kind the sampler buckets by (`select`, `insert`, ...).
    pub kind: &'static str,
    /// Tenant that issued the request (filled in by the server; empty
    /// when untenanted).
    pub tenant: String,
    /// Free-form detail, e.g. the truncated statement text.
    pub detail: String,
    /// Total wall time from [`begin`] to [`TraceGuard::finish`], ns.
    pub total_ns: u64,
    /// Counters charged while no stage was open.
    pub root_attrs: [u64; Attr::COUNT],
    /// The span tree, in open order (parents precede children).
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// The trace ID as the 16-hex-digit form used in URLs and logs.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// Total of `attr` across the root and every span.
    pub fn attr_total(&self, attr: Attr) -> u64 {
        let i = attr as usize;
        self.root_attrs[i] + self.spans.iter().map(|s| s.attrs[i]).sum::<u64>()
    }

    /// The trace as a self-contained JSON object (span tree inline,
    /// per-span attrs elided when zero).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 96);
        out.push_str("{\"trace_id\": \"");
        out.push_str(&self.id_hex());
        out.push_str("\", \"kind\": \"");
        json_escape(self.kind, &mut out);
        out.push_str("\", \"tenant\": \"");
        json_escape(&self.tenant, &mut out);
        out.push_str("\", \"detail\": \"");
        json_escape(&self.detail, &mut out);
        out.push_str(&format!(
            "\", \"total_ns\": {}, \"attrs\": {{",
            self.total_ns
        ));
        for (i, attr) in Attr::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", attr.name(), self.attr_total(*attr)));
        }
        out.push_str("}, \"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"duration_ns\": {}",
                span.name,
                match span.parent {
                    Some(p) => p.to_string(),
                    None => "null".to_string(),
                },
                span.start_ns,
                span.duration_ns
            ));
            let nonzero: Vec<(Attr, u64)> = Attr::ALL
                .iter()
                .map(|&a| (a, span.attrs[a as usize]))
                .filter(|&(_, v)| v > 0)
                .collect();
            if !nonzero.is_empty() {
                out.push_str(", \"attrs\": {");
                for (j, (a, v)) in nonzero.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": {v}", a.name()));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// The trace in Chrome trace-event format (JSON array of `ph: "X"`
    /// complete events, microsecond timestamps) — loadable as-is in
    /// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev), which
    /// nest the events into a flame graph by time.
    pub fn to_chrome_trace(&self) -> String {
        let us = |ns: u64| format!("{:.3}", ns as f64 / 1000.0);
        let mut out = String::from("[\n");
        // Root event: the whole request.
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"cat\": \"request\", \"ph\": \"X\", \"ts\": 0.000, \
             \"dur\": {}, \"pid\": 1, \"tid\": 1, \"args\": {{\"trace_id\": \"{}\", \
             \"tenant\": \"",
            self.kind,
            us(self.total_ns),
            self.id_hex()
        ));
        json_escape(&self.tenant, &mut out);
        out.push_str("\", \"detail\": \"");
        json_escape(&self.detail, &mut out);
        out.push_str("\"}}");
        for span in &self.spans {
            out.push_str(",\n");
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": 1, \"tid\": 1",
                span.name,
                us(span.start_ns),
                us(span.duration_ns)
            ));
            let nonzero: Vec<(Attr, u64)> = Attr::ALL
                .iter()
                .map(|&a| (a, span.attrs[a as usize]))
                .filter(|&(_, v)| v > 0)
                .collect();
            if !nonzero.is_empty() {
                out.push_str(", \"args\": {");
                for (j, (a, v)) in nonzero.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": {v}", a.name()));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Parses the 16-hex-digit form produced by [`Trace::id_hex`] (leading
/// zeros optional).
pub fn parse_trace_id(hex: &str) -> Option<u64> {
    if hex.is_empty() || hex.len() > 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

// ---------------------------------------------------------------------------
// Thread-local trace context
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct TraceBuilder {
    trace_id: u64,
    kind: &'static str,
    started: Instant,
    spans: Vec<TraceSpan>,
    open: Vec<u32>,
    root_attrs: [u64; Attr::COUNT],
}

thread_local! {
    /// Fast flag: is a trace active on this thread? Every request-path
    /// primitive reads only this when idle.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static BUILDER: RefCell<Option<TraceBuilder>> = const { RefCell::new(None) };
}

/// Mints a fresh, never-zero 64-bit trace ID (a splitmix64 walk seeded
/// once from the wall clock and address-space layout — unique enough for
/// correlation, with no RNG dependency).
pub fn next_trace_id() -> u64 {
    static STATE: OnceLock<AtomicU64> = OnceLock::new();
    let state = STATE.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0xDEADBEEF);
        let aslr = &STATE as *const _ as u64;
        AtomicU64::new(t ^ aslr.rotate_left(32))
    });
    loop {
        let x = state.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if z != 0 {
            return z;
        }
    }
}

/// Begins a trace on the calling thread and returns its guard. Inert (no
/// thread-local state touched beyond one flag read) when tracing or
/// observability is disabled, or when a trace is already active on this
/// thread (traces do not nest).
pub fn begin(trace_id: u64, kind: &'static str) -> TraceGuard {
    if !trace_enabled() || !crate::enabled() || ACTIVE.with(Cell::get) {
        return TraceGuard {
            active: false,
            _not_send: PhantomData,
        };
    }
    BUILDER.with(|b| {
        *b.borrow_mut() = Some(TraceBuilder {
            trace_id,
            kind,
            started: Instant::now(),
            spans: Vec::with_capacity(8),
            open: Vec::with_capacity(4),
            root_attrs: [0; Attr::COUNT],
        });
    });
    ACTIVE.with(|a| a.set(true));
    TraceGuard {
        active: true,
        _not_send: PhantomData,
    }
}

/// The trace ID active on the calling thread, if any.
pub fn current_trace_id() -> Option<u64> {
    if !ACTIVE.with(Cell::get) {
        return None;
    }
    BUILDER.with(|b| b.borrow().as_ref().map(|t| t.trace_id))
}

/// RAII handle for an in-progress trace. Dropping without
/// [`TraceGuard::finish`] discards the trace.
#[derive(Debug)]
pub struct TraceGuard {
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl TraceGuard {
    /// Whether this guard owns an active trace (false when tracing was
    /// disabled at [`begin`]).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Re-labels the trace's statement kind ([`begin`] often runs before
    /// the statement is parsed).
    pub fn set_kind(&mut self, kind: &'static str) {
        if !self.active {
            return;
        }
        BUILDER.with(|b| {
            if let Some(t) = b.borrow_mut().as_mut() {
                t.kind = kind;
            }
        });
    }

    /// Ends the trace and returns it (closing any span left open). `None`
    /// for an inert guard.
    pub fn finish(mut self) -> Option<Trace> {
        if !self.active {
            return None;
        }
        self.active = false;
        ACTIVE.with(|a| a.set(false));
        let builder = BUILDER.with(|b| b.borrow_mut().take())?;
        let total_ns = elapsed_ns(builder.started);
        let mut spans = builder.spans;
        // Close anything still open (a panic unwound through a stage, or
        // a caller finished early): charge it the full remaining time.
        for idx in builder.open {
            let span = &mut spans[idx as usize];
            span.duration_ns = total_ns.saturating_sub(span.start_ns);
        }
        Some(Trace {
            trace_id: builder.trace_id,
            kind: builder.kind,
            tenant: String::new(),
            detail: String::new(),
            total_ns,
            root_attrs: builder.root_attrs,
            spans,
        })
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.active {
            ACTIVE.with(|a| a.set(false));
            BUILDER.with(|b| *b.borrow_mut() = None);
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Opens a named stage in the active trace's span tree. Inert — one
/// thread-local flag read, no allocation — when no trace is active on
/// this thread.
#[inline]
pub fn stage(name: &'static str) -> Stage {
    Stage {
        idx: open_span(name),
        _not_send: PhantomData,
    }
}

/// RAII guard for a [`stage`]; closes the tree node on drop.
#[derive(Debug)]
pub struct Stage {
    idx: Option<u32>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Stage {
    fn drop(&mut self) {
        close_span(self.idx);
    }
}

/// Opens a span node; used by [`stage`] and by `SpanHandle::start` so
/// every metric span entered during a trace joins the tree. Returns the
/// node index to pass to [`close_span`].
#[inline]
pub(crate) fn open_span(name: &'static str) -> Option<u32> {
    if !ACTIVE.with(Cell::get) {
        return None;
    }
    BUILDER.with(|b| {
        let mut b = b.borrow_mut();
        let t = b.as_mut()?;
        let idx = u32::try_from(t.spans.len()).ok()?;
        t.spans.push(TraceSpan {
            name,
            parent: t.open.last().copied(),
            start_ns: elapsed_ns(t.started),
            duration_ns: 0,
            attrs: [0; Attr::COUNT],
        });
        t.open.push(idx);
        Some(idx)
    })
}

/// Closes the span node opened by [`open_span`].
#[inline]
pub(crate) fn close_span(idx: Option<u32>) {
    let Some(idx) = idx else {
        return;
    };
    BUILDER.with(|b| {
        let mut b = b.borrow_mut();
        let Some(t) = b.as_mut() else {
            return;
        };
        if let Some(span) = t.spans.get_mut(idx as usize) {
            span.duration_ns = elapsed_ns(t.started).saturating_sub(span.start_ns);
        }
        // Guards drop LIFO in correct code; tolerate out-of-order closes.
        if t.open.last() == Some(&idx) {
            t.open.pop();
        } else {
            t.open.retain(|&i| i != idx);
        }
    });
}

/// Charges `n` to attribution counter `attr` of the innermost open stage
/// (or the trace root when none is open). Inert — one thread-local flag
/// read — when no trace is active on this thread.
#[inline]
pub fn add(attr: Attr, n: u64) {
    if !ACTIVE.with(Cell::get) {
        return;
    }
    BUILDER.with(|b| {
        let mut b = b.borrow_mut();
        let Some(t) = b.as_mut() else {
            return;
        };
        let cell = match t.open.last() {
            Some(&idx) => &mut t.spans[idx as usize].attrs[attr as usize],
            None => &mut t.root_attrs[attr as usize],
        };
        *cell = cell.saturating_add(n);
    });
}

/// Records an already-elapsed region as a completed child of the
/// innermost open stage — for waits measured by the code that waited
/// (e.g. the group-commit queue). The node's window is `[now - d, now]`
/// and `attr` (typically [`Attr::CommitWaitNs`]) is charged to it.
#[inline]
pub fn record_wait(name: &'static str, d: Duration, attr: Attr) {
    if !ACTIVE.with(Cell::get) {
        return;
    }
    let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    BUILDER.with(|b| {
        let mut b = b.borrow_mut();
        let Some(t) = b.as_mut() else {
            return;
        };
        if u32::try_from(t.spans.len()).is_err() {
            return;
        }
        let mut attrs = [0; Attr::COUNT];
        attrs[attr as usize] = ns;
        let now = elapsed_ns(t.started);
        t.spans.push(TraceSpan {
            name,
            parent: t.open.last().copied(),
            start_ns: now.saturating_sub(ns),
            duration_ns: ns,
            attrs,
        });
    });
}

// ---------------------------------------------------------------------------
// Tail sampler
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct KindBucket {
    seen: u64,
    /// Slowest-K, sorted by `total_ns` descending.
    slowest: Vec<Arc<Trace>>,
    /// 1-in-N systematic sample, bounded ring (drop-oldest).
    sampled: VecDeque<Arc<Trace>>,
}

/// Retains a bounded, per-statement-kind selection of completed traces:
/// the slowest K plus one of every N offered. See the module docs for the
/// non-blocking offer discipline.
#[derive(Debug)]
pub struct TailSampler {
    slowest_k: AtomicUsize,
    sample_one_in: AtomicU64,
    sample_cap: AtomicUsize,
    offered: AtomicU64,
    contended: AtomicU64,
    inner: Mutex<BTreeMap<&'static str, KindBucket>>,
}

impl Default for TailSampler {
    fn default() -> TailSampler {
        TailSampler::new()
    }
}

impl TailSampler {
    /// A fresh sampler with the default policy: slowest 8 + 1-in-64
    /// (ring of 32) per statement kind.
    pub fn new() -> TailSampler {
        TailSampler {
            slowest_k: AtomicUsize::new(8),
            sample_one_in: AtomicU64::new(64),
            sample_cap: AtomicUsize::new(32),
            offered: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-global sampler (what servers offer into and
    /// `/debug/traces` reads from).
    pub fn global() -> &'static TailSampler {
        static GLOBAL: OnceLock<TailSampler> = OnceLock::new();
        GLOBAL.get_or_init(TailSampler::new)
    }

    /// Sets the retention policy: keep the slowest `k` and 1 in
    /// `one_in` offered traces (ring of `cap`) per statement kind.
    /// `one_in = 1` retains every offer (up to `cap`); `one_in = 0`
    /// disables the random sample; `k = 0` disables slowest-K.
    pub fn set_policy(&self, k: usize, one_in: u64, cap: usize) {
        self.slowest_k.store(k, Ordering::Relaxed);
        self.sample_one_in.store(one_in, Ordering::Relaxed);
        self.sample_cap.store(cap, Ordering::Relaxed);
    }

    /// Offers a completed trace. Returns whether it was retained. Never
    /// blocks: under lock contention the trace is dropped and counted.
    pub fn offer(&self, trace: Trace) -> bool {
        self.offered.fetch_add(1, Ordering::Relaxed);
        let Ok(mut map) = self.inner.try_lock() else {
            self.contended.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let bucket = map.entry(trace.kind).or_default();
        bucket.seen += 1;
        let trace = Arc::new(trace);
        let mut retained = false;

        let k = self.slowest_k.load(Ordering::Relaxed);
        if k > 0 {
            if bucket.slowest.len() < k {
                bucket.slowest.push(Arc::clone(&trace));
                retained = true;
            } else if bucket
                .slowest
                .last()
                .is_some_and(|slowest_min| trace.total_ns > slowest_min.total_ns)
            {
                bucket.slowest.pop();
                bucket.slowest.push(Arc::clone(&trace));
                retained = true;
            }
            if retained {
                bucket
                    .slowest
                    .sort_by_key(|t| std::cmp::Reverse(t.total_ns));
                bucket.slowest.truncate(k);
            }
        }

        let one_in = self.sample_one_in.load(Ordering::Relaxed);
        // `seen % one_in == 1` keeps the *first* trace of every kind, so
        // a single traced request is always inspectable.
        if one_in > 0 && bucket.seen % one_in == 1 % one_in {
            let cap = self.sample_cap.load(Ordering::Relaxed).max(1);
            if bucket.sampled.len() >= cap {
                bucket.sampled.pop_front();
            }
            bucket.sampled.push_back(Arc::clone(&trace));
            retained = true;
        }
        retained
    }

    /// Every retained trace, de-duplicated, slowest first.
    pub fn traces(&self) -> Vec<Arc<Trace>> {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut seen_ids = std::collections::BTreeSet::new();
        let mut out: Vec<Arc<Trace>> = Vec::new();
        for bucket in map.values() {
            for t in bucket.slowest.iter().chain(bucket.sampled.iter()) {
                if seen_ids.insert(t.trace_id) {
                    out.push(Arc::clone(t));
                }
            }
        }
        out.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        out
    }

    /// Looks up a retained trace by ID.
    pub fn find(&self, trace_id: u64) -> Option<Arc<Trace>> {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for bucket in map.values() {
            for t in bucket.slowest.iter().chain(bucket.sampled.iter()) {
                if t.trace_id == trace_id {
                    return Some(Arc::clone(t));
                }
            }
        }
        None
    }

    /// Discards every retained trace (policy and counters are kept).
    pub fn clear(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Traces ever offered.
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Traces dropped because `offer` found the sampler lock held.
    pub fn contended_drops(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enable() {
        crate::set_enabled(true);
        set_trace_enabled(true);
    }

    #[test]
    fn trace_builds_a_span_tree_with_attribution() {
        enable();
        let guard = begin(0x1234, "t.trace.select");
        assert!(guard.is_active());
        assert_eq!(current_trace_id(), Some(0x1234));
        add(Attr::VfsReadBytes, 5); // no stage open → root
        {
            let _parse = stage("parse");
            std::hint::black_box(());
        }
        {
            let _exec = stage("execute");
            add(Attr::BlocksRead, 3);
            {
                let _probe = stage("probe");
                add(Attr::BlocksRead, 4);
                add(Attr::BloomProbes, 2);
            }
            record_wait("commit_wait", Duration::from_nanos(500), Attr::CommitWaitNs);
        }
        let trace = guard.finish().expect("active trace finishes");
        assert_eq!(current_trace_id(), None);
        assert_eq!(trace.trace_id, 0x1234);
        assert_eq!(trace.kind, "t.trace.select");
        assert!(trace.total_ns > 0);
        assert_eq!(trace.root_attrs[Attr::VfsReadBytes as usize], 5);

        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["parse", "execute", "probe", "commit_wait"]);
        let parse = &trace.spans[0];
        let exec = &trace.spans[1];
        let probe = &trace.spans[2];
        let wait = &trace.spans[3];
        assert_eq!(parse.parent, None);
        assert_eq!(exec.parent, None);
        assert_eq!(probe.parent, Some(1));
        assert_eq!(wait.parent, Some(1));
        // Attribution goes to the innermost open stage.
        assert_eq!(exec.attrs[Attr::BlocksRead as usize], 3);
        assert_eq!(probe.attrs[Attr::BlocksRead as usize], 4);
        assert_eq!(probe.attrs[Attr::BloomProbes as usize], 2);
        assert_eq!(wait.attrs[Attr::CommitWaitNs as usize], 500);
        assert_eq!(wait.duration_ns, 500);
        assert_eq!(trace.attr_total(Attr::BlocksRead), 7);
        // Children are time-nested within their parent.
        assert!(probe.start_ns >= exec.start_ns);
        assert!(probe.start_ns + probe.duration_ns <= exec.start_ns + exec.duration_ns + 1);
    }

    #[test]
    fn metric_spans_join_the_active_trace_tree() {
        enable();
        let registry = crate::Registry::new();
        let flush = registry.span("t.trace.flush");
        let guard = begin(next_trace_id(), "t.trace.spanjoin");
        {
            let _exec = stage("execute");
            let _flush = flush.start();
        }
        let trace = guard.finish().unwrap();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["execute", "t.trace.flush"]);
        assert_eq!(trace.spans[1].parent, Some(0));
        // And the histogram recorded as before.
        assert_eq!(
            registry
                .snapshot()
                .histogram("t.trace.flush.duration_ns")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn inert_when_disabled_and_traces_do_not_nest() {
        enable();
        set_trace_enabled(false);
        let guard = begin(1, "t.trace.off");
        assert!(!guard.is_active());
        assert_eq!(current_trace_id(), None);
        add(Attr::BlocksRead, 1); // must not panic or record
        drop(stage("noop"));
        assert!(guard.finish().is_none());

        set_trace_enabled(true);
        let outer = begin(2, "t.trace.outer");
        let inner = begin(3, "t.trace.inner");
        assert!(outer.is_active());
        assert!(!inner.is_active(), "traces must not nest");
        drop(inner);
        // Dropping the inert inner guard must not kill the outer trace.
        assert_eq!(current_trace_id(), Some(2));
        let t = outer.finish().unwrap();
        assert_eq!(t.trace_id, 2);
    }

    #[test]
    fn dropping_a_guard_discards_the_trace() {
        enable();
        drop(begin(7, "t.trace.dropped"));
        assert_eq!(current_trace_id(), None);
        // A new trace can start afterwards.
        let g = begin(8, "t.trace.next");
        assert!(g.is_active());
        drop(g);
    }

    #[test]
    fn unclosed_stage_is_charged_to_trace_end() {
        enable();
        let guard = begin(9, "t.trace.leak");
        let leaked = stage("leaked");
        std::thread::sleep(Duration::from_millis(1));
        let trace = guard.finish().unwrap();
        drop(leaked); // late drop after finish: must be inert, not panic
        assert_eq!(trace.spans.len(), 1);
        assert!(trace.spans[0].duration_ns > 0, "open span charged to end");
    }

    #[test]
    fn sampler_keeps_slowest_k_and_one_in_n() {
        let s = TailSampler::new();
        s.set_policy(2, 10, 4);
        let mk = |id: u64, ns: u64| Trace {
            trace_id: id,
            kind: "t.sampler.q",
            tenant: String::new(),
            detail: String::new(),
            total_ns: ns,
            root_attrs: [0; Attr::COUNT],
            spans: Vec::new(),
        };
        // First offer is always retained (1-in-N keeps the first).
        assert!(s.offer(mk(1, 100)));
        for i in 2..=30u64 {
            s.offer(mk(i, i * 10));
        }
        let traces = s.traces();
        // Slowest two: ids 30 (300ns) and 29 (290ns).
        assert_eq!(traces[0].trace_id, 30);
        assert_eq!(traces[1].trace_id, 29);
        // 1-in-10 sample kept offers 1, 11, 21 (ring cap 4).
        assert!(s.find(11).is_some());
        assert!(s.find(21).is_some());
        assert!(s.find(2).is_none(), "unsampled, not slow → dropped");
        assert_eq!(s.offered(), 30);
        // A different kind gets its own buckets.
        let other = Trace {
            kind: "t.sampler.other",
            ..mk(99, 1)
        };
        assert!(s.offer(other), "first of a new kind is retained");
        s.clear();
        assert!(s.traces().is_empty());
    }

    #[test]
    fn exports_are_well_formed() {
        enable();
        let guard = begin(0xABCD, "select");
        {
            let _s = stage("server.execute");
            add(Attr::BlocksRead, 2);
        }
        let mut trace = guard.finish().unwrap();
        trace.tenant = "t\"1".into();
        trace.detail = "SELECT * FROM \"x\"\n".into();

        let json = trace.to_json();
        assert!(json.contains("\"trace_id\": \"000000000000abcd\""));
        assert!(json.contains("\"blocks_read\": 2"));
        assert!(json.contains("\\\"x\\\""), "detail must be escaped");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        let chrome = trace.to_chrome_trace();
        assert!(chrome.trim_start().starts_with('['));
        assert!(chrome.trim_end().ends_with(']'));
        assert!(chrome.contains("\"ph\": \"X\""));
        assert!(chrome.contains("\"name\": \"server.execute\""));
        assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());

        assert_eq!(parse_trace_id("000000000000abcd"), Some(0xABCD));
        assert_eq!(parse_trace_id("abcd"), Some(0xABCD));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("not-hex"), None);
    }

    #[test]
    fn next_trace_id_is_nonzero_and_distinct() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }
}
