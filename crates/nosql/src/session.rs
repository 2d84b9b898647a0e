//! Per-connection statement state over the shared engine core.

use crate::cql::ast::Statement;
use crate::cql::parse_statement;
use crate::engine::DbCore;
use crate::error::{NosqlError, Result};
use crate::mvcc;
use crate::result::QueryResult;
use crate::snapshot::Snapshot;
use std::sync::Arc;
use std::time::Duration;

/// A statement-execution session: the unit of per-connection state over a
/// [`crate::SharedDb`].
///
/// Sessions are cheap (an `Arc` clone plus a few fields) and independent:
/// each carries its own `USE` keyspace and its own commit-wait accounting,
/// while every statement executes against the same shared, internally
/// synchronized engine core — two sessions on different threads proceed
/// concurrently.
///
/// [`Session::last_commit_wait`] reports how long the previous statement
/// spent queueing in the group-commit WAL rather than executing; servers
/// subtract it from wall-clock latency so slow-query logs and latency
/// metrics attribute time to the statement, not to its neighbors' appends.
#[derive(Debug)]
pub struct Session {
    core: Arc<DbCore>,
    keyspace: Option<String>,
    last_commit_wait: Duration,
}

impl Session {
    pub(crate) fn new(core: Arc<DbCore>) -> Session {
        Session {
            core,
            keyspace: None,
            last_commit_wait: Duration::ZERO,
        }
    }

    /// The session's current `USE` keyspace, if any.
    pub fn keyspace(&self) -> Option<&str> {
        self.keyspace.as_deref()
    }

    /// Parses and executes one CQL statement.
    pub fn execute_cql(&mut self, cql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(cql)?;
        self.execute(&stmt)
    }

    /// Executes a pre-parsed statement. `USE` is handled here (it mutates
    /// session state); everything else runs on the shared core, which
    /// resolves unqualified table references against the session keyspace.
    pub fn execute(&mut self, stmt: &Statement) -> Result<QueryResult> {
        mvcc::reset_queue_wait();
        let result = match stmt {
            Statement::Use { keyspace } => {
                if !self.core.has_keyspace(keyspace) {
                    return Err(NosqlError::UnknownKeyspace(keyspace.clone()));
                }
                self.keyspace = Some(keyspace.clone());
                Ok(QueryResult::empty())
            }
            _ => self.core.execute(stmt, self.keyspace.as_deref()),
        };
        self.last_commit_wait = mvcc::queue_wait();
        result
    }

    /// How long the most recent statement spent waiting on the
    /// group-commit queue (leader's linger + follower's wait for the
    /// leader's append). Subtract from wall-clock time to get execution
    /// time.
    pub fn last_commit_wait(&self) -> Duration {
        self.last_commit_wait
    }

    /// Pins a point-in-time, read-only view of the database (same as
    /// [`crate::SharedDb::snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(Arc::clone(&self.core))
    }
}
