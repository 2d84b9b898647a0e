//! Point-in-time, read-only database views.

use crate::cql::ast::Statement;
use crate::cql::parse_statement;
use crate::engine::DbCore;
use crate::error::Result;
use crate::result::QueryResult;
use std::sync::Arc;

/// A pinned, point-in-time, read-only view of the database.
///
/// A snapshot captures the MVCC watermark at creation and pins it in the
/// engine's `mvcc::SnapshotRegistry`: every `SELECT` through the
/// snapshot resolves keys as of that instant, no matter how many writes,
/// flushes or compactions happen afterwards. The pin holds version GC and
/// tombstone-dropping compaction back only as far as this bound, and is
/// released on drop — hold snapshots for bounded work (a consistent
/// multi-query read, a backup scan), not forever.
///
/// Only `SELECT` is accepted; every other statement returns
/// [`crate::NosqlError::Unsupported`].
#[derive(Debug)]
pub struct Snapshot {
    core: Arc<DbCore>,
    bound: u64,
}

impl Snapshot {
    pub(crate) fn new(core: Arc<DbCore>) -> Snapshot {
        let bound = core.registry.pin_current(&core.tracker);
        if sc_obs::enabled() {
            let obs = crate::obs::nosql();
            obs.snapshot_opened.inc();
            obs.snapshot_live.add(1);
        }
        Snapshot { core, bound }
    }

    /// The pinned sequence bound: reads see exactly the writes visible at
    /// this sequence.
    pub fn sequence(&self) -> u64 {
        self.bound
    }

    /// Parses and executes one read-only CQL statement at the pinned bound.
    pub fn execute_cql(&self, cql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(cql)?;
        self.execute(&stmt)
    }

    /// Executes a pre-parsed read-only statement at the pinned bound.
    pub fn execute(&self, stmt: &Statement) -> Result<QueryResult> {
        self.core.execute_read(stmt, self.bound)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.core.registry.unpin(self.bound);
        if sc_obs::enabled() {
            let obs = crate::obs::nosql();
            obs.snapshot_closed.inc();
            obs.snapshot_live.add(-1);
        }
    }
}
