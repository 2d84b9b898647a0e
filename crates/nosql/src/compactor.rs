//! The background compaction worker pool (see DESIGN.md §5i).
//!
//! Flushes used to run size-tiered compaction inline on the committing
//! session's thread, stalling that commit — and, through the WAL group
//! and the table's maintenance lock, every commit behind it — for the
//! length of a multi-SSTable merge. The pool moves the merge off the
//! commit path: a flush that crosses the threshold just enqueues its
//! table and returns.
//!
//! Scheduling is per *table*: each [`TableCore`] holds one queue slot
//! (`try_queue_compaction`), so the queue never grows beyond the table
//! count no matter how many flushes race, while distinct tables compact
//! in parallel across the workers. The slot is released by the worker
//! right before the merge runs, so a flush landing mid-merge re-queues
//! and nothing is lost. The job itself re-checks the threshold under the
//! maintenance lock ([`TableCore::compact_tiered`]); a stale job on an
//! already-compacted or retired table is a cheap no-op.
//!
//! Shutdown is drain-first: `Drop` lets the workers finish every queued
//! job before joining them, so `Db::close` never leaks a half-scheduled
//! merge. A merge error has no caller to return to: it is counted on
//! `nosql.compaction.errors` and otherwise dropped — a failed merge leaves
//! the input SSTables untouched (the manifest swap is atomic) and the
//! next flush re-schedules, so correctness never depends on a background
//! job succeeding.

use crate::mvcc::SnapshotRegistry;
use crate::table::TableCore;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One queued merge: the table plus the snapshot registry its merge must
/// consult for the GC floor.
struct Job {
    core: Arc<TableCore>,
    registry: Arc<SnapshotRegistry>,
}

struct PoolInner {
    queue: Mutex<VecDeque<Job>>,
    /// Jobs popped but not yet finished; `drain` waits for queue empty AND
    /// zero active. Mutated only while holding the queue lock, so the pair
    /// is checked consistently.
    active: AtomicUsize,
    /// Signals workers that the queue gained a job (or shutdown began).
    work: Condvar,
    /// Signals drainers that a worker went idle.
    idle: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-size worker pool draining per-table compaction jobs.
pub(crate) struct CompactionPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for CompactionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompactionPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl CompactionPool {
    /// Spawns `threads` workers (callers gate on `threads > 0`).
    pub fn new(threads: usize) -> CompactionPool {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            active: AtomicUsize::new(0),
            work: Condvar::new(),
            idle: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sc-nosql-compact-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn compaction worker")
            })
            .collect();
        CompactionPool { inner, workers }
    }

    /// Enqueues `core` unless a job for it is already queued. Cheap enough
    /// for the commit path: one CAS plus, on the first schedule, a queue
    /// push and a wakeup.
    pub fn schedule(&self, core: &Arc<TableCore>, registry: &Arc<SnapshotRegistry>) {
        if !core.try_queue_compaction() {
            return;
        }
        let mut queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.push_back(Job {
            core: Arc::clone(core),
            registry: Arc::clone(registry),
        });
        self.inner.work.notify_one();
    }

    /// Blocks until every queued and in-flight job has finished. Jobs
    /// scheduled *during* the drain are waited for too.
    pub fn drain(&self) {
        let mut queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
        while !queue.is_empty() || self.inner.active.load(Ordering::Acquire) > 0 {
            queue = self
                .inner
                .idle
                .wait(queue)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for CompactionPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Take the lock so the store cannot land between a worker's empty
        // check and its wait (a missed wakeup would hang the join).
        drop(self.inner.queue.lock().unwrap_or_else(|e| e.into_inner()));
        self.inner.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    // Claim under the queue lock: `drain` sees either the
                    // queued job or the active count, never a gap.
                    inner.active.fetch_add(1, Ordering::AcqRel);
                    break Some(job);
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = inner.work.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        // Free the slot before merging so a concurrent flush can re-queue
        // the table for the SSTables this run won't see.
        job.core.clear_compaction_queued();
        crate::mvcc::perturb(35);
        // The manifest swap is atomic, so a failed merge leaves the table
        // exactly as it was and the next flush re-schedules it; the error
        // itself goes on a counter.
        if job.core.compact_tiered(&job.registry).is_err() {
            crate::obs::nosql().compaction_errors.inc();
        }
        let queue = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
        inner.active.fetch_sub(1, Ordering::AcqRel);
        inner.idle.notify_all();
        drop(queue);
    }
}
