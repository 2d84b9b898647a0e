//! Deterministic fault injection for crash-recovery testing.
//!
//! [`Vfs::with_faults`](crate::Vfs::with_faults) wraps any VFS in a
//! [`FaultState`] that counts every **mutating** operation (`append`,
//! `delete`, `truncate`) and can be armed, via the returned [`FaultHandle`],
//! to simulate power loss at a chosen operation index:
//!
//! * an armed `append` writes a *torn prefix* of the data — a deterministic,
//!   seed-derived length in `[0, len]`, possibly zero — and then fails with
//!   [`StorageError::Injected`]; this models a write that was cut mid-sector,
//! * an armed `delete` or `truncate` is simply lost (the file survives),
//! * every mutating operation *after* the crash point also fails with
//!   `Injected`, because the simulated process is dead; reads still pass
//!   through so tests can inspect the "disk" post-mortem.
//!
//! [`FaultHandle::disarm`] models the restart: the same underlying bytes, a
//! fresh process. The handle also exposes the full op trace so a test can
//! first run a workload uninjected, count its mutating ops, and then crash
//! at every single index (the crash-matrix pattern `sc-nosql` uses).

use crate::{Result, StorageError, Vfs};
use sc_encoding::Rng;
// Poisoned locks are taken over with `into_inner`: each update under them
// (a counter bump, a trace push, a flag) leaves the state valid, and the
// VFS must keep serving after a test thread panicked holding one.
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// What a mutating operation was, as recorded in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `append` of `len` bytes.
    Append {
        /// Bytes the caller asked to append.
        len: usize,
    },
    /// `delete`.
    Delete,
    /// `truncate` to `len` bytes.
    Truncate {
        /// Requested new length.
        len: u64,
    },
}

/// One traced mutating operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultOp {
    /// Zero-based index among mutating operations.
    pub index: u64,
    /// Target file name.
    pub file: String,
    /// Operation shape.
    pub kind: FaultKind,
}

#[derive(Debug)]
struct Shared {
    next_op: u64,
    crash_at: Option<u64>,
    crashed_at: Option<u64>,
    trace: Vec<FaultOp>,
    rng: Rng,
}

/// A test-armed gate that parks matching `delete`s until released, so a
/// test can hold a compaction (the only deleter of data files) mid-flight
/// for as long as it likes — deterministically, with no timing sleeps.
#[derive(Debug, Default)]
struct StallGate {
    state: Mutex<StallState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct StallState {
    /// Deletes whose file name contains this substring park on the gate.
    substr: Option<String>,
    /// How many deletes are currently parked.
    parked: usize,
}

impl StallGate {
    /// Blocks the calling (engine) thread while the gate matches `name`.
    fn wait_if_match(&self, name: &str) {
        let matches = |s: &StallState| s.substr.as_deref().is_some_and(|sub| name.contains(sub));
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !matches(&s) {
            return;
        }
        s.parked += 1;
        self.cv.notify_all();
        while matches(&s) {
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.parked -= 1;
        self.cv.notify_all();
    }
}

/// The fault-injecting backend state (held inside a [`Vfs`]).
#[derive(Debug)]
pub struct FaultState {
    inner: Vfs,
    shared: Arc<Mutex<Shared>>,
    stall: Arc<StallGate>,
}

/// Test-side controller for a fault-injecting VFS.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    inner: Vfs,
    shared: Arc<Mutex<Shared>>,
    stall: Arc<StallGate>,
}

impl FaultState {
    /// Creates the state plus its controlling handle.
    pub fn new(inner: Vfs, seed: u64) -> (FaultState, FaultHandle) {
        let shared = Arc::new(Mutex::new(Shared {
            next_op: 0,
            crash_at: None,
            crashed_at: None,
            trace: Vec::new(),
            rng: Rng::new(seed),
        }));
        let stall = Arc::new(StallGate::default());
        let handle = FaultHandle {
            inner: inner.clone(),
            shared: Arc::clone(&shared),
            stall: Arc::clone(&stall),
        };
        (
            FaultState {
                inner,
                shared,
                stall,
            },
            handle,
        )
    }

    /// The wrapped VFS (reads delegate here).
    pub fn inner(&self) -> &Vfs {
        &self.inner
    }

    /// Counts the op, decides its fate. Returns `Ok(true)` if the op should
    /// proceed normally, `Ok(false)` if this op is the crash point (the
    /// caller then applies its partial effect and reports `Injected`), or
    /// `Err` if the process already crashed.
    fn admit(&self, file: &str, kind: FaultKind) -> Result<bool> {
        let mut s = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(op) = s.crashed_at {
            return Err(StorageError::Injected {
                op,
                file: file.to_string(),
            });
        }
        let index = s.next_op;
        s.next_op += 1;
        s.trace.push(FaultOp {
            index,
            file: file.to_string(),
            kind,
        });
        if s.crash_at == Some(index) {
            s.crashed_at = Some(index);
            if sc_obs::enabled() {
                crate::obs::vfs().injected_crashes.inc();
            }
            return Ok(false);
        }
        Ok(true)
    }

    fn injected(&self, file: &str) -> StorageError {
        let s = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        StorageError::Injected {
            op: s.crashed_at.expect("crash point recorded"),
            file: file.to_string(),
        }
    }

    /// `append` with possible torn-prefix crash.
    pub fn append(&self, name: &str, data: &[u8]) -> Result<u64> {
        if self.admit(name, FaultKind::Append { len: data.len() })? {
            return self.inner.append(name, data);
        }
        // Crash point: persist a deterministic prefix (maybe empty), as if
        // power died mid-write.
        let torn = {
            let mut s = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
            s.rng.gen_range(data.len() as u64 + 1) as usize
        };
        if torn > 0 {
            self.inner.append(name, &data[..torn])?;
        }
        Err(self.injected(name))
    }

    /// `delete` that is lost entirely at the crash point, and that parks on
    /// the stall gate first when one is armed for this file name.
    pub fn delete(&self, name: &str) -> Result<()> {
        self.stall.wait_if_match(name);
        if self.admit(name, FaultKind::Delete)? {
            return self.inner.delete(name);
        }
        Err(self.injected(name))
    }

    /// `truncate` that is lost entirely at the crash point.
    pub fn truncate(&self, name: &str, len: u64) -> Result<()> {
        if self.admit(name, FaultKind::Truncate { len })? {
            return self.inner.truncate(name, len);
        }
        Err(self.injected(name))
    }
}

impl FaultHandle {
    /// Arms a crash at mutating-operation index `op` (zero-based).
    pub fn crash_at(&self, op: u64) {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .crash_at = Some(op);
    }

    /// Clears both the armed crash point and the crashed flag — the process
    /// "restarted" over the same disk. The op counter and trace continue.
    pub fn disarm(&self) {
        let mut s = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        s.crash_at = None;
        s.crashed_at = None;
    }

    /// Mutating operations seen so far (crash point included).
    pub fn ops(&self) -> u64 {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next_op
    }

    /// The index the crash fired at, if it fired.
    pub fn crashed_at(&self) -> Option<u64> {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .crashed_at
    }

    /// Snapshot of the op trace.
    pub fn trace(&self) -> Vec<FaultOp> {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .trace
            .clone()
    }

    /// The wrapped VFS — the "disk" that survives the crash. Recovery code
    /// may open it directly, bypassing injection.
    pub fn inner(&self) -> Vfs {
        self.inner.clone()
    }

    /// Arms the stall gate: any `delete` whose file name contains `substr`
    /// parks until [`release_deletes`](FaultHandle::release_deletes). Models
    /// an arbitrarily slow disk under a maintenance job without sleeps.
    pub fn stall_deletes(&self, substr: &str) {
        let mut s = self
            .stall
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        s.substr = Some(substr.to_string());
    }

    /// Opens the gate and wakes every parked delete.
    pub fn release_deletes(&self) {
        let mut s = self
            .stall
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        s.substr = None;
        self.stall.cv.notify_all();
    }

    /// Blocks until at least one delete is parked on the gate — the moment a
    /// test knows the stalled job is truly mid-flight.
    pub fn wait_for_stalled_delete(&self) {
        let mut s = self
            .stall
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while s.parked == 0 {
            s = self
                .stall
                .cv
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// How many deletes are parked on the gate right now.
    pub fn stalled_deletes(&self) -> usize {
        self.stall
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_passthrough_traces_ops() {
        let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 7);
        vfs.append("a", b"one").unwrap();
        vfs.append("b", b"two").unwrap();
        vfs.delete("b").unwrap();
        vfs.append("a", b"!").unwrap();
        vfs.truncate("a", 3).unwrap();
        assert_eq!(vfs.read_all("a").unwrap(), b"one");
        assert!(!vfs.exists("b"));
        assert_eq!(handle.ops(), 5);
        assert_eq!(handle.crashed_at(), None);
        let trace = handle.trace();
        assert_eq!(trace.len(), 5);
        assert_eq!(
            trace[0],
            FaultOp {
                index: 0,
                file: "a".into(),
                kind: FaultKind::Append { len: 3 },
            }
        );
        assert_eq!(trace[2].kind, FaultKind::Delete);
        assert_eq!(trace[4].kind, FaultKind::Truncate { len: 3 });
    }

    #[test]
    fn crash_on_append_leaves_torn_prefix_and_kills_later_ops() {
        let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 42);
        vfs.append("log", b"first").unwrap();
        handle.crash_at(1);
        let err = vfs.append("log", b"second-record").unwrap_err();
        assert!(
            matches!(err, StorageError::Injected { op: 1, .. }),
            "{err:?}"
        );
        // The prefix is deterministic and within bounds.
        let len = vfs.read_all("log").unwrap().len();
        assert!((5..=5 + 13).contains(&len), "torn length {len}");
        // Everything after the crash fails too, including deletes.
        assert!(matches!(
            vfs.append("log", b"x"),
            Err(StorageError::Injected { op: 1, .. })
        ));
        assert!(matches!(
            vfs.delete("log"),
            Err(StorageError::Injected { op: 1, .. })
        ));
        // Reads still work (post-mortem inspection).
        assert_eq!(vfs.len("log").unwrap() as usize, len);
        assert_eq!(handle.crashed_at(), Some(1));
    }

    #[test]
    fn crash_is_deterministic_per_seed() {
        let torn = |seed: u64| {
            let (vfs, handle) = Vfs::with_faults(Vfs::memory(), seed);
            handle.crash_at(0);
            vfs.append("f", b"0123456789").unwrap_err();
            vfs.read_all("f").map(|d| d.len()).unwrap_or(0)
        };
        assert_eq!(torn(9), torn(9));
        // Different seeds eventually differ (not a hard guarantee per pair,
        // but these two do — locked by the determinism above).
        let a = torn(1);
        let b = (2..20).map(torn).find(|&l| l != a);
        assert!(b.is_some(), "all seeds produced the same torn length");
    }

    #[test]
    fn crashed_delete_and_truncate_are_lost() {
        let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 3);
        vfs.append("keep", b"data").unwrap();
        handle.crash_at(1);
        assert!(vfs.delete("keep").is_err());
        assert_eq!(vfs.read_all("keep").unwrap(), b"data");
        handle.disarm();
        handle.crash_at(2);
        assert!(vfs.truncate("keep", 1).is_err());
        assert_eq!(vfs.read_all("keep").unwrap(), b"data");
    }

    #[test]
    fn a_panic_holding_the_fault_locks_leaves_the_vfs_working() {
        let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 5);
        vfs.append("f", b"one").unwrap();
        let panicked = std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _trace = handle.shared.lock().unwrap();
                let _stall = handle.stall.state.lock().unwrap();
                panic!("a thread dies holding the fault and stall locks");
            });
            holder.join().is_err()
        });
        assert!(panicked && handle.shared.is_poisoned());
        vfs.append("f", b"two").unwrap();
        vfs.delete("f").unwrap();
        assert_eq!(handle.ops(), 3);
        assert_eq!(handle.trace().len(), 3);
        assert_eq!(handle.stalled_deletes(), 0);
        handle.crash_at(3);
        assert!(vfs.append("g", b"x").is_err());
        assert_eq!(handle.crashed_at(), Some(3));
        handle.disarm();
        vfs.append("g", b"y").unwrap();
    }

    #[test]
    fn disarm_models_restart() {
        let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 11);
        handle.crash_at(0);
        vfs.append("f", b"abc").unwrap_err();
        assert!(vfs.append("f", b"abc").is_err());
        handle.disarm();
        vfs.append("f", b"abc").unwrap();
        assert!(vfs.read_all("f").unwrap().ends_with(b"abc"));
        // The inner handle sees the same bytes without injection.
        assert_eq!(
            handle.inner().read_all("f").unwrap(),
            vfs.read_all("f").unwrap()
        );
    }
}
