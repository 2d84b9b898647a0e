//! MVCC machinery: sequence allocation, the visible watermark, snapshot
//! pinning, commit-wait accounting and a schedule-perturbing yield injector.
//!
//! Every row version carries a **sequence number** allocated by
//! [`SeqTracker::alloc`]. A write becomes *visible* only once every write
//! with a smaller sequence has also completed: the tracker publishes a
//! `visible` watermark equal to `min(outstanding) - 1` (or `next - 1` when
//! nothing is outstanding). Reads never use a bound above the watermark,
//! so a concurrent writer can never tear a read — either all of a
//! statement's versions are below the bound or none are.
//!
//! [`SnapshotRegistry`] pins bounds for long-lived [`crate::Snapshot`]
//! handles. The registry's cached minimum gates two kinds of garbage
//! collection: version-chain pruning in the memtable (an old
//! version is droppable only when no live snapshot sits below the sequence
//! that shadowed it) and tombstone-dropping/merging decisions in
//! compaction.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Sequence allocator + visible-watermark publisher.
#[derive(Debug)]
pub(crate) struct SeqTracker {
    inner: Mutex<TrackerInner>,
    /// `min(outstanding) - 1`, or `next - 1` when nothing is in flight.
    visible: AtomicU64,
}

#[derive(Debug)]
struct TrackerInner {
    next: u64,
    outstanding: BTreeSet<u64>,
}

impl SeqTracker {
    /// A fresh tracker: first allocated sequence is 1, watermark 0.
    pub fn new() -> SeqTracker {
        SeqTracker {
            inner: Mutex::new(TrackerInner {
                next: 1,
                outstanding: BTreeSet::new(),
            }),
            visible: AtomicU64::new(0),
        }
    }

    /// Recovery: every sequence up to and including `max` is durable and
    /// visible; the next allocation returns `max + 1`.
    pub fn set_floor(&self, max: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.next = inner.next.max(max + 1);
        let visible = inner
            .outstanding
            .first()
            .map(|m| m - 1)
            .unwrap_or(inner.next - 1);
        self.visible.store(visible, Ordering::Release);
    }

    /// Allocates `n` consecutive sequences and returns the first, which is
    /// marked outstanding (invisible until [`SeqTracker::complete`]). The
    /// watermark never advances past an outstanding sequence, so un-acked
    /// writes are never read — and since no other writer can hold a
    /// sequence inside the block, its first one holds the whole block back.
    pub fn alloc(&self, n: u64) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let seq = inner.next;
        inner.next += n;
        inner.outstanding.insert(seq);
        seq
    }

    /// Marks the block starting at `seq` complete and republishes the
    /// watermark. Must be called exactly once per [`SeqTracker::alloc`],
    /// success or failure — a leaked sequence would freeze the watermark
    /// forever.
    pub fn complete(&self, seq: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.outstanding.remove(&seq);
        let visible = inner
            .outstanding
            .first()
            .map(|m| m - 1)
            .unwrap_or(inner.next - 1);
        // Monotone: removing a non-minimum leaves the watermark unchanged;
        // removing the minimum can only raise it.
        self.visible.store(visible, Ordering::Release);
    }

    /// Whether no allocated sequence is outstanding.
    pub fn settled(&self) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.outstanding.is_empty()
    }

    /// The current visible watermark (the read bound for new statements and
    /// snapshots).
    pub fn visible(&self) -> u64 {
        self.visible.load(Ordering::Acquire)
    }
}

/// Completion guard over one commit's block of sequences: completes the
/// block on drop, so error paths can never leak an outstanding sequence
/// (which would freeze the watermark).
pub(crate) struct SeqGuard<'a> {
    tracker: &'a SeqTracker,
    seqs: Range<u64>,
}

impl<'a> SeqGuard<'a> {
    pub fn new(tracker: &'a SeqTracker, n: usize) -> SeqGuard<'a> {
        debug_assert!(n > 0, "an empty block would share its first sequence");
        let first = tracker.alloc(n as u64);
        SeqGuard {
            tracker,
            seqs: first..first + n as u64,
        }
    }

    /// The block, in allocation order.
    pub fn seqs(&self) -> Range<u64> {
        self.seqs.clone()
    }
}

impl Drop for SeqGuard<'_> {
    fn drop(&mut self) {
        self.tracker.complete(self.seqs.start);
    }
}

/// Live read bounds (statement reads and [`crate::Snapshot`] handles),
/// reference-counted per sequence.
///
/// Pinning and GC-floor computation serialize on the same mutex, and both
/// read the visible watermark *inside* the critical section. That closes
/// the classic pin race: either a reader's pin is published before a
/// writer computes its floor (so the floor respects the pin), or the
/// writer's floor was computed from a watermark the reader's bound can
/// only equal or exceed (so anything pruned was already shadowed for that
/// reader). Floors are therefore safe to use after the lock is dropped —
/// they only ever err conservative.
#[derive(Debug)]
pub(crate) struct SnapshotRegistry {
    pins: Mutex<BTreeMap<u64, usize>>,
}

impl SnapshotRegistry {
    pub fn new() -> SnapshotRegistry {
        SnapshotRegistry {
            pins: Mutex::new(BTreeMap::new()),
        }
    }

    /// Atomically reads the visible watermark and pins it as a live read
    /// bound. Release with [`SnapshotRegistry::unpin`].
    pub fn pin_current(&self, tracker: &SeqTracker) -> u64 {
        let mut pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        let seq = tracker.visible();
        *pins.entry(seq).or_insert(0) += 1;
        seq
    }

    /// Releases one pin on `seq`.
    pub fn unpin(&self, seq: u64) {
        let mut pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(count) = pins.get_mut(&seq) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&seq);
            }
        }
    }

    /// The version-GC floor: `min(visible watermark, oldest pinned
    /// bound)`. A version shadowed at or below the floor is unreachable by
    /// every current and future reader and may be dropped.
    pub fn gc_floor(&self, tracker: &SeqTracker) -> u64 {
        let pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        let min_pin = pins.keys().next().copied().unwrap_or(u64::MAX);
        min_pin.min(tracker.visible())
    }

    /// The oldest pinned bound, or `u64::MAX` when nothing is pinned.
    pub fn min_pinned(&self) -> u64 {
        let pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        pins.keys().next().copied().unwrap_or(u64::MAX)
    }
}

/// RAII read pin: holds a bound in the registry for the duration of a
/// statement or snapshot, releasing on drop.
pub(crate) struct ReadPin<'a> {
    registry: &'a SnapshotRegistry,
    seq: u64,
}

impl<'a> ReadPin<'a> {
    pub fn new(registry: &'a SnapshotRegistry, tracker: &SeqTracker) -> ReadPin<'a> {
        let seq = registry.pin_current(tracker);
        ReadPin { registry, seq }
    }

    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl Drop for ReadPin<'_> {
    fn drop(&mut self) {
        self.registry.unpin(self.seq);
    }
}

// ---------------------------------------------------------------------------
// Commit-wait accounting
// ---------------------------------------------------------------------------

std::thread_local! {
    static QUEUE_WAIT_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Resets the calling thread's accumulated queueing wait (start of a
/// statement).
pub(crate) fn reset_queue_wait() {
    QUEUE_WAIT_NS.with(|w| w.set(0));
}

/// Adds group-commit (or other queueing) wait to the calling thread's
/// accumulator. When the thread is building a request trace, the
/// already-elapsed wait is also recorded as a completed
/// `nosql.commit_wait` node so the span tree shows *where* inside the
/// statement the queueing happened.
pub(crate) fn add_queue_wait(d: Duration) {
    QUEUE_WAIT_NS.with(|w| w.set(w.get().saturating_add(d.as_nanos() as u64)));
    sc_obs::trace::record_wait("nosql.commit_wait", d, sc_obs::trace::Attr::CommitWaitNs);
}

/// The calling thread's queueing wait accumulated since the last reset.
/// The server subtracts this from wall-clock statement time so slow-query
/// logging and `server.*` latency metrics measure execution, not queueing.
pub(crate) fn queue_wait() -> Duration {
    Duration::from_nanos(QUEUE_WAIT_NS.with(|w| w.get()))
}

// ---------------------------------------------------------------------------
// Schedule-perturbing yield injector (loom-free sanity gate)
// ---------------------------------------------------------------------------
//
// (Condvar waits in the group-commit protocol charge their elapsed time to
// the accumulator directly via `add_queue_wait`.)

std::thread_local! {
    static PERTURB_COUNTER: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn perturb_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("SC_NOSQL_YIELD")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    })
}

/// Interleaving amplifier for the concurrency test tier. Disabled (one
/// relaxed `OnceLock` read and an integer compare) unless the
/// `SC_NOSQL_YIELD` environment variable holds a non-zero seed; when armed,
/// deterministically-pseudo-randomly yields the thread at engine
/// synchronization points so the release-mode concurrency tests explore far
/// more schedules than free-running threads would.
pub(crate) fn perturb(point: u32) {
    let seed = perturb_seed();
    if seed == 0 {
        return;
    }
    let n = PERTURB_COUNTER.with(|c| {
        let n = c.get().wrapping_add(1);
        c.set(n);
        n
    });
    // FNV-1a over (seed, call index, site id): cheap, deterministic per
    // thread, different sites decorrelated.
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in n.to_le_bytes().iter().chain(point.to_le_bytes().iter()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    if h.is_multiple_of(5) {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_waits_for_the_oldest_writer() {
        let t = SeqTracker::new();
        assert_eq!(t.visible(), 0);
        let a = t.alloc(1); // 1
        let b = t.alloc(3); // 2..=4
        assert_eq!(t.visible(), 0, "both outstanding");
        t.complete(b);
        assert_eq!(t.visible(), 0, "oldest still outstanding");
        let c = t.alloc(1); // 5
        t.complete(a);
        assert_eq!(t.visible(), 4, "the block completed whole");
        t.complete(c);
        assert_eq!(t.visible(), 5);
    }

    #[test]
    fn set_floor_after_recovery() {
        let t = SeqTracker::new();
        t.set_floor(41);
        assert_eq!(t.visible(), 41);
        assert_eq!(t.alloc(1), 42);
    }

    #[test]
    fn seq_guard_completes_on_drop() {
        let t = SeqTracker::new();
        {
            let g = SeqGuard::new(&t, 3);
            assert_eq!(g.seqs(), 1..4);
            assert_eq!(t.visible(), 0);
        }
        assert_eq!(t.visible(), 3);
    }

    #[test]
    fn registry_tracks_min_with_refcounts() {
        let t = SeqTracker::new();
        t.set_floor(7);
        let r = SnapshotRegistry::new();
        assert_eq!(r.min_pinned(), u64::MAX);
        assert_eq!(r.gc_floor(&t), 7, "no pins: floor is the watermark");
        let a = r.pin_current(&t);
        let b = r.pin_current(&t);
        assert_eq!((a, b), (7, 7));
        t.set_floor(9);
        let c = r.pin_current(&t);
        assert_eq!(c, 9);
        assert_eq!(r.min_pinned(), 7);
        assert_eq!(r.gc_floor(&t), 7, "oldest pin holds the floor down");
        r.unpin(7);
        assert_eq!(r.min_pinned(), 7, "still one pin at 7");
        r.unpin(7);
        assert_eq!(r.min_pinned(), 9);
        r.unpin(9);
        assert_eq!(r.min_pinned(), u64::MAX);
        assert_eq!(r.gc_floor(&t), 9);
    }

    #[test]
    fn read_pin_releases_on_drop() {
        let t = SeqTracker::new();
        t.set_floor(4);
        let r = SnapshotRegistry::new();
        {
            let pin = ReadPin::new(&r, &t);
            assert_eq!(pin.seq(), 4);
            t.set_floor(10);
            assert_eq!(r.gc_floor(&t), 4);
        }
        assert_eq!(r.gc_floor(&t), 10);
    }

    #[test]
    fn queue_wait_accumulates_and_resets() {
        reset_queue_wait();
        add_queue_wait(Duration::from_micros(5));
        add_queue_wait(Duration::from_micros(7));
        assert_eq!(queue_wait(), Duration::from_micros(12));
        reset_queue_wait();
        assert_eq!(queue_wait(), Duration::ZERO);
    }
}
