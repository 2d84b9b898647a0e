//! Harness-side tracing: spans recorded from the benchmark's own files
//! around each call into a layer.
//!
//! A span has a name, a start, an end, the span that caused it (its parent)
//! and the id of the operation it belongs to. A layer's *self time* is its
//! span's duration minus the part its child spans cover. Spans are kept in
//! memory and written once, at exit, as Chrome trace-event JSON
//! (`chrome://tracing`, Perfetto).
//!
//! Flushes and merges that fire inline inside an engine call are invisible
//! from here; the engine's own `nosql.flush` / `nosql.compaction` duration
//! histograms say how long they took, and [`Tracer::shares`] moves that time
//! out of the span that hosted them.

use crate::obsx::{engine_busy, EngineBusy};
use std::collections::BTreeMap;
use std::time::Instant;

/// The span names the benchmark emits. `harness` is an operation's root
/// span (its self time is the harness's own work: oracle checks, loop
/// overhead); `other` is region time no span covers.
pub const SPAN_NAMES: [&str; 12] = [
    "xml_parse",
    "ingest_extract",
    "dwarf_build",
    "core_map",
    "core_store",
    "core_query",
    "cql_parse",
    "session_execute",
    "flush",
    "compaction",
    "harness",
    "other",
];

/// Raw spans kept for the trace file; shares are aggregated as spans close,
/// so the cap bounds only the file, not the accounting.
const RAW_SPAN_CAP: usize = 200_000;

const NO_PARENT: u32 = u32::MAX;

/// One closed span, as written to the trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent in the span list, or `u32::MAX` for a root.
    pub parent: u32,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Index this span will take in `raw` (reserved at open so children can
    /// name their parent), or `NO_PARENT` once the cap is reached.
    raw_index: u32,
}

/// Records spans on the single load thread. Disabled, every call is one
/// branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    raw: Vec<Span>,
    dropped: u64,
    op: u64,
    self_ns: BTreeMap<&'static str, u64>,
    root_ns: u64,
    spans_closed: u64,
    /// Engine flush/merge time that ran inside [`Tracer::flush_span`]s.
    explicit: EngineBusy,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            raw: Vec::new(),
            dropped: 0,
            op: 0,
            self_ns: BTreeMap::new(),
            root_ns: 0,
            spans_closed: 0,
            explicit: EngineBusy::default(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between repetitions (the traced run
    /// alternates traced and untraced repetitions to price the tracing).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens an operation's root span and gives the operation a fresh id.
    #[inline]
    pub fn begin_op(&mut self) {
        if self.on {
            self.op += 1;
            self.open("harness");
        }
    }

    /// Closes the operation's root span.
    #[inline]
    pub fn end_op(&mut self) {
        if self.on {
            self.close();
        }
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let raw_index = if self.raw.len() < RAW_SPAN_CAP {
            // Reserve a slot now so the file lists parents before children.
            self.raw.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: NO_PARENT,
                op: self.op,
            });
            (self.raw.len() - 1) as u32
        } else {
            NO_PARENT
        };
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            raw_index,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("close without open");
        let parent = self.stack.last().map_or(NO_PARENT, |p| p.raw_index);
        self.record(open, end_ns, parent);
    }

    /// Times one call into a layer.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Times a flush the harness asks the engine for, as a `flush` span,
    /// noting how much of it the engine says was flush and how much the
    /// merges the flush triggered.
    pub fn flush_span<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let before = engine_busy();
        let out = self.span("flush", f);
        self.explicit += engine_busy().since(before);
        out
    }

    fn record(&mut self, open: Open, end_ns: u64, parent: u32) {
        let duration = end_ns - open.start_ns;
        *self.self_ns.entry(open.name).or_default() += self_time(duration, open.child_ns);
        self.spans_closed += 1;
        match self.stack.last_mut() {
            Some(p) => p.child_ns += duration,
            None => self.root_ns += duration,
        }
        if open.raw_index == NO_PARENT {
            self.dropped += 1;
        } else {
            let slot = &mut self.raw[open.raw_index as usize];
            slot.start_ns = open.start_ns;
            slot.end_ns = end_ns;
            slot.parent = parent;
        }
    }

    /// Spans closed so far (the sample count behind the shares).
    pub fn spans_closed(&self) -> u64 {
        self.spans_closed
    }

    /// Share of `region_ns` (the traced repetitions' wall time) per span
    /// name, in percent, `other` being what no span covered.
    ///
    /// `engine` is all the flush and merge time the engine reports for the
    /// region. The part that did not run inside a [`Tracer::flush_span`]
    /// ran inline inside `host` spans without the harness seeing it, and
    /// moves from `host` to `flush` and `compaction`.
    pub fn shares(
        &self,
        region_ns: u64,
        host: &'static str,
        engine: EngineBusy,
    ) -> BTreeMap<&'static str, f64> {
        let mut ns: BTreeMap<&'static str, u64> = SPAN_NAMES.iter().map(|n| (*n, 0)).collect();
        for (name, v) in &self.self_ns {
            *ns.get_mut(name).expect("span name is catalogued") += v;
        }
        let inline = engine.since(self.explicit);
        let host_ns = ns.get_mut(host).expect("host is catalogued");
        *host_ns = host_ns.saturating_sub(inline.flush_ns + inline.compaction_ns);
        // A harness-named flush span covers the engine's flushes and the
        // merges they trigger; the merge part belongs to `compaction`.
        let flush = ns.get_mut("flush").expect("catalogued");
        *flush = flush.saturating_sub(self.explicit.compaction_ns) + inline.flush_ns;
        *ns.get_mut("compaction").expect("catalogued") += engine.compaction_ns;
        *ns.get_mut("other").expect("catalogued") = region_ns.saturating_sub(self.root_ns);
        let total = region_ns.max(1) as f64;
        ns.into_iter()
            .map(|(name, v)| (name, 100.0 * v as f64 / total))
            .collect()
    }

    /// Chrome trace-event JSON of the retained spans.
    pub fn to_chrome_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.raw.len() * 120 + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{");
        out.push_str(&format!(
            "\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"spans_not_written\":{}",
            self.spans_closed, self.dropped
        ));
        out.push_str("},\"traceEvents\":[\n");
        for (i, s) in self.raw.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time: a span's duration minus what its children cover.
pub fn self_time(duration_ns: u64, children_ns: u64) -> u64 {
    duration_ns.saturating_sub(children_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_time(100, 30), 70);
        assert_eq!(self_time(100, 100), 0);
        // Clock granularity can make children sum past the parent.
        assert_eq!(self_time(100, 101), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_op();
        assert_eq!(t.span("cql_parse", || 7), 7);
        t.end_op();
        assert_eq!(t.spans_closed(), 0);
        assert!(t.raw.is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.begin_op();
        t.span("cql_parse", || std::hint::black_box(1));
        t.open("session_execute");
        t.span("flush", || std::hint::black_box(2));
        t.close();
        t.end_op();
        assert_eq!(t.spans_closed(), 4);
        let names: Vec<&str> = t.raw.iter().map(|s| s.name).collect();
        assert_eq!(names, ["harness", "cql_parse", "session_execute", "flush"]);
        assert_eq!(t.raw[0].parent, NO_PARENT);
        assert_eq!(t.raw[1].parent, 0);
        assert_eq!(t.raw[2].parent, 0);
        assert_eq!(t.raw[3].parent, 2);
        assert!(t.raw.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        let root = t.raw[0].end_ns - t.raw[0].start_ns;
        assert_eq!(t.self_ns.values().sum::<u64>(), root);
        assert_eq!(t.root_ns, root);
        let json = t.to_chrome_json("w", 3);
        assert!(json.contains("\"traceEvents\"") && json.contains("\"parent\":2"));
    }

    #[test]
    fn shares_move_inline_engine_time_out_of_the_host() {
        let mut t = Tracer::new(true);
        t.self_ns.insert("session_execute", 700);
        t.self_ns.insert("flush", 200);
        t.self_ns.insert("harness", 50);
        t.root_ns = 950;
        // Inside harness-named flush spans the engine flushed for 120 ns and
        // merged for 60; in all it flushed for 420 and merged for 160.
        t.explicit = EngineBusy {
            flush_ns: 120,
            compaction_ns: 60,
        };
        let engine = EngineBusy {
            flush_ns: 420,
            compaction_ns: 160,
        };
        let shares = t.shares(1000, "session_execute", engine);
        assert_eq!(shares["session_execute"], 30.0);
        assert_eq!(shares["flush"], 44.0);
        assert_eq!(shares["compaction"], 16.0);
        assert_eq!(shares["harness"], 5.0);
        assert_eq!(shares["other"], 5.0);
        assert!((shares.values().sum::<f64>() - 100.0).abs() < 1e-9);
        assert_eq!(shares.len(), SPAN_NAMES.len());
    }
}
