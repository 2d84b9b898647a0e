//! The database engine: the table registry, the statement dispatch and the
//! [`Db`] handle. The rest of `DbCore` sits beside this file, along its
//! seams: `recovery.rs` (open + crash recovery), `ddl.rs` (what changes the
//! registry), `dml.rs` (the commit, the one write routine, the one SELECT).
//!
//! A statement is bound once — `EngineState::table` finds its table,
//! [`crate::TableDef`] checks its names and literals and encodes its keys —
//! and everything below trusts the result (DESIGN.md §5g).
//!
//! # Concurrency model (see DESIGN.md §5g)
//!
//! The engine core (`DbCore`) is `Send + Sync` and shared by every
//! session through an `Arc` — there is no global statement mutex.
//!
//! - **Reads** never wait for a statement. A `SELECT` pins the MVCC
//!   watermark (`mvcc::ReadPin`) and resolves each key to the newest
//!   version at or below that bound, across the memtable and immutable
//!   SSTables (a merged-away SSTable's file lives until its last reader
//!   lets go). Concurrent writers can never tear a read: versions above
//!   the pin are invisible. A point read or a scan's copy of the memtable
//!   holds its read lock, and so writers to that table, only while it
//!   reads the map.
//! - **Writes** append to the group-commit WAL
//!   (`commitlog::GroupCommitLog`) — concurrent sessions share one
//!   commit-log append via a leader/follower protocol; the VFS has no sync
//!   operation, so no write is fsynced — then insert into the table's
//!   ordered memtable under its write lock.
//! - **Read-modify-write statements** (UPDATE, and any write to a table
//!   with secondary indexes) serialize on a per-table RMW mutex so the
//!   read half always observes the previous RMW's write.
//! - **DDL and TRUNCATE** take the engine state's write lock, which also
//!   guarantees `flush_all` sees no in-flight statements.
//! - **A sorted-run ingest** ([`Db::ingest_columns`], [`Db::ingest_sorted`])
//!   holds the same write lock from its checks to its attach, so its check
//!   that no batch key is already held sees every write sequenced before
//!   its block.
//!
//! Lock order (outermost first): engine state → per-table RMW → WAL
//! group → per-table maintenance → memtable / SSTable list.

use crate::cache::{BlockCache, CacheStats, DEFAULT_BLOCK_CACHE_BYTES};
use crate::commitlog::{CommitLog, GroupCommitLog, WalError};
use crate::compactor::CompactionPool;
use crate::cql::ast::{SelectColumns, Statement, TableRef, WhereClause};
use crate::cql::parse_statement;
use crate::error::{NosqlError, Result};
use crate::exec;
use crate::index::{self, Index};
use crate::manifest::{Manifest, ManifestEdit};
use crate::mvcc::{ReadPin, SeqGuard, SeqTracker, SnapshotRegistry};
use crate::plan;
use crate::result::QueryResult;
use crate::row::Row;
use crate::schema::{ColumnDef, TableDef};
use crate::session::Session;
use crate::snapshot::Snapshot;
use crate::table::{PendingWrite, TableCore, TableOptions, TableWrites};
use crate::types::{CqlValue, ValueRef};
use sc_encoding::ByteSize;
use sc_storage::Vfs;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

mod ddl;
mod dml;
mod recovery;

/// Builder for [`Db::open`].
///
/// ```
/// use sc_nosql::{Db, OpenOptions};
///
/// let db = Db::open(OpenOptions::default()).unwrap(); // fresh, in-memory
/// # drop(db);
/// ```
///
/// Reopening an existing disk runs full crash recovery:
///
/// ```no_run
/// # use sc_nosql::{Db, OpenOptions};
/// # let vfs = sc_storage::Vfs::memory();
/// let db = Db::open(OpenOptions::default().vfs(vfs).recover(true)).unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpenOptions {
    vfs: Option<Vfs>,
    recover: bool,
    table: TableOptions,
    block_cache_bytes: Option<usize>,
    group_commit_delay: Duration,
    wal_segment_bytes: Option<u64>,
    compaction_threads: Option<usize>,
}

impl OpenOptions {
    /// Opens over an explicit VFS (defaults to a fresh in-memory one).
    pub fn vfs(mut self, vfs: Vfs) -> OpenOptions {
        self.vfs = Some(vfs);
        self
    }

    /// Runs crash recovery on open. It reads back the manifest (the DDL
    /// and each table's live SSTables) and the commit log, truncating a
    /// torn tail off either and failing with `Corrupt` — every file left as
    /// it was — on a damaged frame. Then it registers every table and
    /// index, attaches their SSTables in age order, sweeps orphan SSTable
    /// files and replays the commit log into the memtables. Without it the
    /// VFS must be empty.
    pub fn recover(mut self, recover: bool) -> OpenOptions {
        self.recover = recover;
        self
    }

    /// Memtable bytes that trigger a flush.
    pub fn memtable_flush_bytes(mut self, bytes: usize) -> OpenOptions {
        self.table.memtable_flush_bytes = bytes;
        self
    }

    /// SSTable count that triggers compaction.
    pub fn compaction_threshold(mut self, count: usize) -> OpenOptions {
        self.table.compaction_threshold = count;
        self
    }

    /// Byte budget of the engine-wide shared SSTable block cache (default
    /// 4 MiB; 0 disables caching).
    pub fn block_cache_bytes(mut self, bytes: usize) -> OpenOptions {
        self.block_cache_bytes = Some(bytes);
        self
    }

    /// How long a group-commit leader lingers for followers to join its
    /// WAL batch when it would otherwise commit alone. Zero (the default)
    /// commits immediately — concurrent sessions still coalesce, because
    /// whoever arrives while a leader's write is in flight joins the next
    /// batch. A small delay (tens of microseconds) trades single-session
    /// latency for larger batches under contention.
    pub fn group_commit_delay(mut self, delay: Duration) -> OpenOptions {
        self.group_commit_delay = delay;
        self
    }

    /// Background compaction worker threads (default 2). A flush that
    /// crosses the SSTable threshold enqueues its table for these workers
    /// and returns, so commits never wait for a multi-SSTable merge;
    /// distinct tables (base and hidden index column families included)
    /// compact in parallel across the pool. `0` disables the pool and runs
    /// the merge inline on the flushing thread — deterministic, which is
    /// what the fault-injection crash tests pin.
    pub fn compaction_threads(mut self, threads: usize) -> OpenOptions {
        self.compaction_threads = Some(threads);
        self
    }

    /// Bytes an active commit-log segment may reach before the next append
    /// rotates to a fresh segment (default
    /// [`crate::commitlog::DEFAULT_SEGMENT_BYTES`]). Smaller segments let
    /// post-flush checkpoints reclaim WAL space sooner; larger ones mean
    /// fewer files.
    pub fn wal_segment_bytes(mut self, bytes: u64) -> OpenOptions {
        self.wal_segment_bytes = Some(bytes);
        self
    }
}

pub(crate) const COMMIT_LOG: &str = "commitlog";

/// Estimated memtable overhead per version beyond key and body bytes.
const VERSION_COST: usize = 48;

/// One table of the registry: its definition, its runtime and its
/// secondary indexes. `def.indexed_columns` and `indexes` grow together, in
/// [`TableHandle::attach`] only.
#[derive(Debug)]
struct TableHandle {
    def: TableDef,
    core: Arc<TableCore>,
    indexes: Vec<Index>,
    /// An index's hidden posting table: only its base table's index
    /// writes it, so every user write is refused ([`TableHandle::writable`]).
    posting: bool,
}

impl TableHandle {
    /// Refuses a user write (`verb`) to a posting table. Its runtime is
    /// also held by the base table's `Index`: a user write would leave the
    /// postings disagreeing with the base rows, and a TRUNCATE would strand
    /// every later posting in a runtime no flush, checkpoint or recovery
    /// reaches.
    fn writable(&self, verb: &str) -> Result<()> {
        if self.posting {
            return Err(NosqlError::Unsupported(format!(
                "{verb} of {}, an index's posting table; write to the indexed table",
                self.def.qualified_name()
            )));
        }
        Ok(())
    }

    fn attach(&mut self, index: Index) {
        let column = self.def.columns[index.column()].name.clone();
        self.def.indexed_columns.push(column);
        self.indexes.push(index);
    }
}

type Keyspace = BTreeMap<String, TableHandle>;

/// The table registry, keyspace → table → handle, under one lock: DML and
/// SELECT hold the read side; DDL, TRUNCATE and `flush_all` the write
/// side. A hidden posting table is registered like any other table; the
/// base table's handle holds its runtime a second time, as an [`Index`].
#[derive(Debug, Default)]
struct EngineState {
    keyspaces: BTreeMap<String, Keyspace>,
}

fn unknown_table(keyspace: &str, name: &str) -> NosqlError {
    NosqlError::UnknownTable(format!("{keyspace}.{name}"))
}

/// The keyspace a table reference means: its own, or the session's `USE`
/// keyspace when it names none.
fn resolve_keyspace<'a>(table: &'a TableRef, session_keyspace: Option<&'a str>) -> Result<&'a str> {
    if table.is_qualified() {
        return Ok(&table.keyspace);
    }
    session_keyspace.ok_or_else(|| {
        NosqlError::Parse(format!(
            "unqualified table {:?} requires a session keyspace (USE)",
            table.table
        ))
    })
}

impl EngineState {
    fn keyspace(&self, name: &str) -> Result<&Keyspace> {
        self.keyspaces
            .get(name)
            .ok_or_else(|| NosqlError::UnknownKeyspace(name.to_string()))
    }

    fn keyspace_mut(&mut self, name: &str) -> Result<&mut Keyspace> {
        self.keyspaces
            .get_mut(name)
            .ok_or_else(|| NosqlError::UnknownKeyspace(name.to_string()))
    }

    /// The table lookup every statement goes through: `table` as the
    /// statement names it, an unqualified name resolved against the
    /// session's `USE` keyspace.
    fn table(&self, table: &TableRef, session_keyspace: Option<&str>) -> Result<&TableHandle> {
        self.get(resolve_keyspace(table, session_keyspace)?, &table.table)
    }

    fn get(&self, keyspace: &str, name: &str) -> Result<&TableHandle> {
        self.keyspace(keyspace)?
            .get(name)
            .ok_or_else(|| unknown_table(keyspace, name))
    }

    /// Every table runtime, hidden posting tables included.
    fn cores(&self) -> impl Iterator<Item = &Arc<TableCore>> {
        self.keyspaces
            .values()
            .flat_map(|tables| tables.values())
            .map(|handle| &handle.core)
    }
}

/// The engine core shared by every [`Db`], [`Session`] and [`Snapshot`]
/// handle. All methods take `&self`.
#[derive(Debug)]
pub(crate) struct DbCore {
    vfs: Vfs,
    manifest: Manifest,
    state: RwLock<EngineState>,
    wal: GroupCommitLog,
    pub(crate) tracker: SeqTracker,
    /// `Arc` so background compaction jobs can hold the registry across
    /// the engine's locks; every in-process use goes through deref.
    pub(crate) registry: Arc<SnapshotRegistry>,
    table_options: TableOptions,
    /// Shared across every table's SSTables; see [`BlockCache`].
    cache: BlockCache,
    /// Background compaction workers; `None` when
    /// [`OpenOptions::compaction_threads`] is 0 (merges then run inline on
    /// the flushing thread). Dropping the core drains and joins the pool,
    /// so close never abandons a scheduled merge.
    pool: Option<CompactionPool>,
}

impl DbCore {
    fn read_state(&self) -> RwLockReadGuard<'_, EngineState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_state(&self) -> RwLockWriteGuard<'_, EngineState> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn has_keyspace(&self, name: &str) -> bool {
        self.read_state().keyspaces.contains_key(name)
    }

    /// Executes one statement. `session_keyspace` is the calling session's
    /// `USE` keyspace, against which unqualified table names resolve;
    /// without one they are a typed error.
    pub(crate) fn execute(
        &self,
        stmt: &Statement,
        session_keyspace: Option<&str>,
    ) -> Result<QueryResult> {
        match stmt {
            Statement::Use { .. } => {
                return Err(NosqlError::Unsupported(
                    "USE needs session state; execute it on a `Session`".into(),
                ))
            }
            Statement::CreateKeyspace { .. }
            | Statement::CreateTable { .. }
            | Statement::CreateIndex { .. } => {
                let mut state = self.write_state();
                self.apply_ddl(&mut state, stmt, session_keyspace, true)?;
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                let keyspace = resolve_keyspace(table, session_keyspace)?;
                let row = values.iter().cloned();
                self.insert_rows(keyspace, &table.table, columns, std::iter::once(row))?;
            }
            Statement::Select { .. } => {
                let state = self.read_state();
                let pin = ReadPin::new(&self.registry, &self.tracker);
                return self.select(&state, stmt, session_keyspace, Some(pin.seq()));
            }
            Statement::Explain { statement } => {
                return self.select(&self.read_state(), statement, session_keyspace, None);
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                let state = self.read_state();
                let handle = state.table(table, session_keyspace)?;
                self.update(&state, handle, assignments, where_clause)?;
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let state = self.read_state();
                self.delete(&state, state.table(table, session_keyspace)?, where_clause)?;
            }
            Statement::Truncate { table } => {
                let mut state = self.write_state();
                self.truncate(&mut state, table, session_keyspace)?;
            }
            Statement::Batch { statements } => {
                // Statements commit individually; under concurrency their
                // WAL frames still coalesce through the group commit.
                for s in statements {
                    self.execute(s, session_keyspace)?;
                }
            }
        }
        Ok(QueryResult::empty())
    }

    /// SELECT at a fixed MVCC bound (a [`Snapshot`]'s view).
    pub(crate) fn execute_read(&self, stmt: &Statement, bound: u64) -> Result<QueryResult> {
        match stmt {
            Statement::Select { .. } => self.select(&self.read_state(), stmt, None, Some(bound)),
            Statement::Explain { statement } => {
                self.select(&self.read_state(), statement, None, None)
            }
            _ => Err(NosqlError::Unsupported(
                "snapshots are read-only: only SELECT is allowed".into(),
            )),
        }
    }

    /// Flush every table, then truncate the (now fully redundant) commit
    /// log. The caller holds the state write lock.
    fn checkpoint_all_locked(&self, state: &EngineState) -> Result<()> {
        for table in state.cores() {
            table.flush(&self.tracker, &self.registry)?;
            if table.needs_compaction() {
                self.schedule_compaction(table)?;
            }
        }
        self.wal.plain().truncate()?;
        Ok(())
    }

    /// Post-flush compaction hook. With a pool, enqueue the table (its
    /// queue slot collapses duplicate schedules) and return immediately;
    /// with `compaction_threads = 0`, merge inline right here.
    fn schedule_compaction(&self, table: &Arc<TableCore>) -> Result<()> {
        match &self.pool {
            Some(pool) => {
                pool.schedule(table, &self.registry);
                Ok(())
            }
            None => table.compact_tiered(&self.registry),
        }
    }
}

/// An embedded Cassandra-like database handle: cloneable and
/// thread-shared.
///
/// The engine core is internally synchronized, so clones execute
/// statements **concurrently** — snapshot-isolated reads never block
/// behind writers, and concurrent writers share commit-log appends through
/// the group commit (an append is not fsynced). Per-connection state (the
/// `USE` keyspace, slow-query attribution) lives on [`Session`];
/// point-in-time reads on [`Snapshot`].
///
/// ```
/// use sc_nosql::{Db, OpenOptions};
///
/// let db = Db::open(OpenOptions::default()).unwrap();
/// let mut session = db.session();
/// session.execute_cql("CREATE KEYSPACE ks").unwrap();
/// session.execute_cql("CREATE TABLE ks.t (id int, PRIMARY KEY (id))").unwrap();
/// session.execute_cql("USE ks").unwrap();
/// session.execute_cql("INSERT INTO t (id) VALUES (1)").unwrap();
/// let snap = db.snapshot();
/// session.execute_cql("INSERT INTO t (id) VALUES (2)").unwrap();
/// // The snapshot still sees exactly one row.
/// assert_eq!(snap.execute_cql("SELECT * FROM ks.t").unwrap().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Db {
    core: Arc<DbCore>,
}

/// The name concurrent callers spell; the same handle as [`Db`].
pub type SharedDb = Db;

impl Db {
    /// Opens an engine per `options`. Without `.recover(true)` the VFS is
    /// assumed empty; with it, the on-disk state is replayed and repaired.
    pub fn open(options: OpenOptions) -> Result<Db> {
        Ok(Db {
            core: Arc::new(DbCore::open(options)?),
        })
    }

    /// Opens a new session: the unit of per-connection statement state.
    pub fn session(&self) -> Session {
        Session::new(Arc::clone(&self.core))
    }

    /// Pins a point-in-time, read-only view of the database.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(Arc::clone(&self.core))
    }

    /// Parses and executes one statement without session state (no `USE`
    /// resolution).
    pub fn execute_cql(&self, cql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(cql)?;
        self.execute(&stmt)
    }

    /// Executes a pre-parsed statement.
    pub fn execute(&self, stmt: &Statement) -> Result<QueryResult> {
        self.core.execute(stmt, None)
    }

    /// Inserts `rows` into `keyspace.table`, each row's values bound to
    /// `columns` in order: `INSERT INTO keyspace.table (columns) VALUES
    /// (...)` once per row, with the same checks, errors and on-disk bytes,
    /// but each row bound once and the rows committed in chunks — one WAL
    /// append, one commit and one flush check per chunk, where a chunk
    /// ends at the row after which one INSERT per row would have flushed a
    /// memtable or rotated the commit log (DESIGN.md §5g).
    ///
    /// A row that fails to bind (wrong arity, unknown column, mistyped or
    /// null key, a literal of the wrong type) is a typed error once every
    /// row before it has committed; no row after it is written. Returns
    /// the number of rows inserted.
    ///
    /// ```
    /// use sc_nosql::{CqlValue, Db, OpenOptions};
    ///
    /// let db = Db::open(OpenOptions::default()).unwrap();
    /// db.execute_cql("CREATE KEYSPACE ks").unwrap();
    /// db.execute_cql("CREATE TABLE ks.t (id int, v text, PRIMARY KEY (id))").unwrap();
    /// let rows = (0..3).map(|i| [CqlValue::Int(i), CqlValue::Text(format!("v{i}"))]);
    /// assert_eq!(db.insert_rows("ks", "t", &["id", "v"], rows).unwrap(), 3);
    /// assert_eq!(db.execute_cql("SELECT * FROM ks.t").unwrap().len(), 3);
    /// ```
    pub fn insert_rows<C, R>(
        &self,
        keyspace: &str,
        table: &str,
        columns: &[C],
        rows: impl IntoIterator<Item = R>,
    ) -> Result<usize>
    where
        C: AsRef<str>,
        R: IntoIterator<Item = CqlValue>,
        R::IntoIter: ExactSizeIterator,
    {
        self.core.insert_rows(keyspace, table, columns, rows)
    }

    /// Writes `rows` into `keyspace.table` as one new SSTable: each row's
    /// values, one per name in `columns`, go in as [`Db::ingest_columns`]
    /// takes them, with the same refusals, bytes and crash outcomes; a row
    /// of another length is a `Parse` error, as an INSERT's is.
    pub fn ingest_sorted<C, R>(
        &self,
        keyspace: &str,
        table: &str,
        columns: &[C],
        rows: impl IntoIterator<Item = R>,
    ) -> Result<usize>
    where
        C: AsRef<str>,
        R: IntoIterator<Item = CqlValue>,
    {
        let rows: Vec<Vec<CqlValue>> = rows.into_iter().map(|r| r.into_iter().collect()).collect();
        if let Some(row) = rows.iter().find(|row| row.len() != columns.len()) {
            return Err(NosqlError::Parse(format!(
                "INSERT binds {} columns but {} values",
                columns.len(),
                row.len()
            )));
        }
        let cells = (0..columns.len())
            .map(|c| rows.iter().map(|row| ValueRef::from(&row[c])).collect())
            .collect();
        let names: Vec<&str> = columns.iter().map(AsRef::as_ref).collect();
        self.ingest_columns(keyspace, table, &names, cells)
    }

    /// Writes rows given column by column into `keyspace.table` as one new
    /// SSTable: `cells[c][r]` is row `r`'s value of `columns[c]`, a column
    /// not named is null, and a set is its elements in ascending order.
    /// The rows go in with no commit-log frame and no memtable version:
    /// they are sorted by key (unless they already ascend), take one block
    /// of sequences, and are written, named in the manifest and attached
    /// as a flush attaches its file. They become visible together once
    /// attached, so a read pinned earlier sees none of them, and a crash
    /// leaves all of them or none (DESIGN.md §5d). Returns the number of
    /// rows.
    ///
    /// It refuses, as a typed error with nothing written and no sequence
    /// taken: an unknown column, columns of unequal length (`Parse`), a
    /// cell of the wrong type or a set out of order (`TypeMismatch`), a
    /// null key, a key twice among the rows (`AlreadyExists`), a key the
    /// table already holds (a live row, or any version in the memtable;
    /// `AlreadyExists`), a table with secondary indexes and an index's
    /// posting table (`Unsupported`). The engine-state write lock is held
    /// throughout, so statements wait for an ingest as they wait for DDL
    /// (DESIGN.md §5g).
    ///
    /// ```
    /// use sc_nosql::{Db, OpenOptions, ValueRef};
    ///
    /// let db = Db::open(OpenOptions::default()).unwrap();
    /// db.execute_cql("CREATE KEYSPACE ks").unwrap();
    /// db.execute_cql("CREATE TABLE ks.t (id int, s set<int>, PRIMARY KEY (id))").unwrap();
    /// let ids = vec![ValueRef::Int(2), ValueRef::Int(1)];
    /// let sets = vec![ValueRef::IntSet(&[4, 7]), ValueRef::Null];
    /// assert_eq!(db.ingest_columns("ks", "t", &["id", "s"], vec![ids, sets]).unwrap(), 2);
    /// let r = db.execute_cql("SELECT s FROM ks.t WHERE id = 2").unwrap();
    /// assert_eq!(r.rows()[0].get_int_set("s").unwrap(), [4, 7]);
    /// assert_eq!(db.commitlog_size().as_bytes(), 0);
    /// ```
    pub fn ingest_columns(
        &self,
        keyspace: &str,
        table: &str,
        columns: &[&str],
        cells: Vec<Vec<ValueRef<'_>>>,
    ) -> Result<usize> {
        self.core.ingest_columns(keyspace, table, columns, cells)
    }

    /// Reads the rows of `keyspace.table` under the primary keys `keys`,
    /// each row's `columns` in order: `SELECT columns FROM keyspace.table
    /// WHERE <primary key> IN (keys)` (`=` for one key), with the same
    /// checks, errors and rows — in `keys` order, a repeated key once, an
    /// absent key skipped — but planned from the values, with no parser
    /// and no [`Statement`]. The mirror of [`Db::insert_rows`].
    ///
    /// ```
    /// use sc_nosql::{CqlValue, Db, OpenOptions};
    ///
    /// let db = Db::open(OpenOptions::default()).unwrap();
    /// db.execute_cql("CREATE KEYSPACE ks").unwrap();
    /// db.execute_cql("CREATE TABLE ks.t (id int, v text, PRIMARY KEY (id))").unwrap();
    /// let rows = (0..3).map(|i| [CqlValue::Int(i), CqlValue::Text(format!("v{i}"))]);
    /// db.insert_rows("ks", "t", &["id", "v"], rows).unwrap();
    /// let keys = [2, 9, 0].map(CqlValue::Int);
    /// let r = db.get_rows("ks", "t", &["v"], keys).unwrap();
    /// assert_eq!(r.rows(), [["v2"], ["v0"]].map(|[v]| vec![CqlValue::Text(v.into())]));
    /// ```
    pub fn get_rows<C: AsRef<str>>(
        &self,
        keyspace: &str,
        table: &str,
        columns: &[C],
        keys: impl IntoIterator<Item = CqlValue>,
    ) -> Result<QueryResult> {
        self.core.get_rows(keyspace, table, columns, keys)
    }

    /// Flushes every memtable to disk and truncates the commit log (its
    /// contents are now redundant). Takes the state write lock, so no
    /// statement is in flight: the watermark covers every write and the
    /// truncated WAL loses nothing. Call before measuring sizes.
    pub fn flush_all(&self) -> Result<()> {
        let state = self.core.write_state();
        self.core.checkpoint_all_locked(&state)
    }

    /// Compacts every table fully.
    pub fn compact_all(&self) -> Result<()> {
        let state = self.core.read_state();
        for table in state.cores() {
            table.compact(&self.core.registry)?;
        }
        Ok(())
    }

    /// Blocks until every queued background compaction has finished (a
    /// no-op with [`OpenOptions::compaction_threads`] 0). Call before
    /// asserting on SSTable counts or measuring steady-state disk size.
    pub fn drain_compactions(&self) {
        if let Some(pool) = &self.core.pool {
            pool.drain();
        }
    }

    /// On-disk size of one table's SSTables (hidden index tables *not*
    /// included; see [`Db::keyspace_size`]).
    pub fn table_size(&self, keyspace: &str, table: &str) -> Result<ByteSize> {
        let state = self.core.read_state();
        Ok(ByteSize::bytes(
            state.get(keyspace, table)?.core.disk_size(),
        ))
    }

    /// What `keyspace.table`'s writes have cost so far: memtable puts,
    /// commit-log bytes and flushes ([`TableWrites`]).
    pub fn table_writes(&self, keyspace: &str, table: &str) -> Result<TableWrites> {
        let state = self.core.read_state();
        Ok(state.get(keyspace, table)?.core.writes())
    }

    /// Total on-disk size of a keyspace: all tables including hidden index
    /// column families. This is the paper's `size_as_mb` measurement.
    ///
    /// Waits out any queued background merges first: a size probed while a
    /// merge is mid-flight would count inputs and output both (or neither
    /// merged), making the number racy.
    pub fn keyspace_size(&self, keyspace: &str) -> Result<ByteSize> {
        self.drain_compactions();
        let state = self.core.read_state();
        let tables = state.keyspace(keyspace)?;
        Ok(ByteSize::bytes(
            tables.values().map(|h| h.core.disk_size()).sum(),
        ))
    }

    /// Whether every allocated sequence has completed: nothing is in
    /// flight, so the visible watermark covers every write. The crash
    /// harness asserts it after a commit failed part-way.
    pub(crate) fn sequences_settled(&self) -> bool {
        self.core.tracker.settled()
    }

    /// Commit-log bytes currently on disk.
    pub fn commitlog_size(&self) -> ByteSize {
        ByteSize::bytes(self.core.wal.plain().size())
    }

    /// Point-in-time counters of the engine's shared block cache.
    pub fn block_cache_stats(&self) -> CacheStats {
        self.core.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Db {
        let db = Db::open(OpenOptions::default()).unwrap();
        db.execute_cql("CREATE KEYSPACE ks").unwrap();
        db.execute_cql(
            "CREATE TABLE ks.cells (id int, key text, parent int, leaf boolean, \
             kids set<int>, PRIMARY KEY (id))",
        )
        .unwrap();
        db
    }

    #[test]
    fn insert_select_by_pk() {
        let db = setup();
        db.execute_cql(
            "INSERT INTO ks.cells (id, key, parent, leaf, kids) \
             VALUES (3, 'Fenian St', 1, true, {4, 5})",
        )
        .unwrap();
        let r = db
            .execute_cql("SELECT key, kids FROM ks.cells WHERE id = 3")
            .unwrap();
        assert_eq!(r.columns(), vec!["key", "kids"]);
        assert_eq!(
            r.rows(),
            vec![vec![
                CqlValue::Text("Fenian St".into()),
                CqlValue::int_set([4, 5])
            ]]
        );
    }

    #[test]
    fn insert_is_upsert() {
        let db = setup();
        db.execute_cql("INSERT INTO ks.cells (id, key) VALUES (1, 'old')")
            .unwrap();
        db.execute_cql("INSERT INTO ks.cells (id, key) VALUES (1, 'new')")
            .unwrap();
        let r = db
            .execute_cql("SELECT key FROM ks.cells WHERE id = 1")
            .unwrap();
        assert_eq!(r.rows(), vec![vec![CqlValue::Text("new".into())]]);
    }

    #[test]
    fn unbound_columns_are_null() {
        let db = setup();
        db.execute_cql("INSERT INTO ks.cells (id) VALUES (9)")
            .unwrap();
        let r = db
            .execute_cql("SELECT key, leaf FROM ks.cells WHERE id = 9")
            .unwrap();
        assert_eq!(r.rows(), vec![vec![CqlValue::Null, CqlValue::Null]]);
    }

    #[test]
    fn unknown_select_column_is_typed_everywhere() {
        // Every position a column can appear in a SELECT reports the same
        // typed error, regardless of access path.
        let db = setup();
        db.execute_cql("INSERT INTO ks.cells (id, key) VALUES (1, 'a')")
            .unwrap();
        for cql in [
            "SELECT nope FROM ks.cells",
            "SELECT nope FROM ks.cells WHERE id = 1",
            "SELECT id, nope FROM ks.cells WHERE id IN (1, 2)",
            "SELECT * FROM ks.cells WHERE nope = 1",
            "SELECT * FROM ks.cells WHERE id = 1 AND nope > 2",
            "SELECT * FROM ks.cells ORDER BY nope",
            "SELECT nope, COUNT(*) FROM ks.cells GROUP BY nope",
            "SELECT SUM(nope) FROM ks.cells",
            "EXPLAIN SELECT nope FROM ks.cells",
        ] {
            match db.execute_cql(cql) {
                Err(NosqlError::UnknownColumn { table, column }) => {
                    assert_eq!(
                        (table.as_str(), column.as_str()),
                        ("cells", "nope"),
                        "{cql}"
                    );
                }
                other => panic!("{cql}: expected UnknownColumn, got {other:?}"),
            }
        }
    }

    #[test]
    fn type_checking() {
        let db = setup();
        assert!(matches!(
            db.execute_cql("INSERT INTO ks.cells (id, key) VALUES (1, 2)"),
            Err(NosqlError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.execute_cql("INSERT INTO ks.cells (key) VALUES ('x')"),
            Err(NosqlError::MissingPrimaryKey(_))
        ));
        assert!(matches!(
            db.execute_cql("INSERT INTO ks.cells (id, nope) VALUES (1, 2)"),
            Err(NosqlError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn in_list_on_primary_key_is_multi_point() {
        let db = setup();
        for i in 0..10 {
            db.execute_cql(&format!(
                "INSERT INTO ks.cells (id, key) VALUES ({i}, 'k{i}')"
            ))
            .unwrap();
        }
        // Survives a flush (keys come back from SSTables too).
        db.flush_all().unwrap();
        let r = db
            .execute_cql("SELECT id, key FROM ks.cells WHERE id IN (7, 2, 2, 99)")
            .unwrap();
        // Statement order, duplicates collapsed, missing keys skipped.
        let ids: Vec<i64> = r.iter().map(|row| row.get_int("id").unwrap()).collect();
        assert_eq!(ids, vec![7, 2]);
        // The empty list matches nothing.
        let r = db
            .execute_cql("SELECT id FROM ks.cells WHERE id IN ()")
            .unwrap();
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn in_list_on_indexed_and_plain_columns() {
        let db = setup();
        db.execute_cql("CREATE INDEX ON ks.cells (parent)").unwrap();
        for i in 0..9 {
            db.execute_cql(&format!(
                "INSERT INTO ks.cells (id, key, parent) VALUES ({i}, 'k{}', {})",
                i % 2,
                i % 3
            ))
            .unwrap();
        }
        // Indexed column: union of postings.
        let r = db
            .execute_cql("SELECT id FROM ks.cells WHERE parent IN (0, 2)")
            .unwrap();
        let mut ids: Vec<i64> = r.iter().map(|row| row.get_int("id").unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2, 3, 5, 6, 8]);
        // Unindexed column: scan + membership filter.
        let r = db
            .execute_cql("SELECT id FROM ks.cells WHERE key IN ('k1')")
            .unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn update_and_delete_reject_in_lists() {
        let db = setup();
        assert!(matches!(
            db.execute_cql("UPDATE ks.cells SET key = 'x' WHERE id IN (1, 2)"),
            Err(NosqlError::Unsupported(_))
        ));
        assert!(matches!(
            db.execute_cql("DELETE FROM ks.cells WHERE id IN (1, 2)"),
            Err(NosqlError::Unsupported(_))
        ));
    }

    #[test]
    fn secondary_index_lookup() {
        let db = setup();
        db.execute_cql("CREATE INDEX ON ks.cells (parent)").unwrap();
        for i in 0..10 {
            db.execute_cql(&format!(
                "INSERT INTO ks.cells (id, key, parent) VALUES ({i}, 'k{i}', {})",
                i % 3
            ))
            .unwrap();
        }
        let r = db
            .execute_cql("SELECT id FROM ks.cells WHERE parent = 1")
            .unwrap();
        let mut ids: Vec<i64> = r.iter().map(|row| row.get_int("id").unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 4, 7]);
    }

    #[test]
    fn index_backfills_existing_rows() {
        let db = setup();
        db.execute_cql("INSERT INTO ks.cells (id, parent) VALUES (1, 42)")
            .unwrap();
        db.execute_cql("CREATE INDEX ON ks.cells (parent)").unwrap();
        let r = db
            .execute_cql("SELECT id FROM ks.cells WHERE parent = 42")
            .unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn index_tracks_overwrites_and_deletes() {
        let db = setup();
        db.execute_cql("CREATE INDEX ON ks.cells (parent)").unwrap();
        db.execute_cql("INSERT INTO ks.cells (id, parent) VALUES (1, 10)")
            .unwrap();
        db.execute_cql("INSERT INTO ks.cells (id, parent) VALUES (1, 20)")
            .unwrap();
        assert!(db
            .execute_cql("SELECT id FROM ks.cells WHERE parent = 10")
            .unwrap()
            .is_empty());
        assert_eq!(
            db.execute_cql("SELECT id FROM ks.cells WHERE parent = 20")
                .unwrap()
                .len(),
            1
        );
        db.execute_cql("DELETE FROM ks.cells WHERE id = 1").unwrap();
        assert!(db
            .execute_cql("SELECT id FROM ks.cells WHERE parent = 20")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn an_index_whose_hidden_name_is_taken_leaves_that_table_alone() {
        let db = setup();
        db.execute_cql("CREATE TABLE ks.cells__idx_parent (k text, PRIMARY KEY (k))")
            .unwrap();
        db.execute_cql("INSERT INTO ks.cells__idx_parent (k) VALUES ('mine')")
            .unwrap();
        assert!(matches!(
            db.execute_cql("CREATE INDEX ON ks.cells (parent)"),
            Err(NosqlError::AlreadyExists(_))
        ));
        let r = db
            .execute_cql("SELECT * FROM ks.cells__idx_parent")
            .unwrap();
        assert_eq!(r.len(), 1, "the refused index replaced the table's runtime");
        // No index was registered: the column still scans.
        let plan = db
            .execute_cql("EXPLAIN SELECT * FROM ks.cells WHERE parent = 1")
            .unwrap();
        let line = plan.first().unwrap().get_text("plan").unwrap().to_string();
        assert!(line.starts_with("FullScan"), "{line}");
    }

    #[test]
    fn an_index_plan_over_a_table_without_the_index_runs_as_a_filtered_scan() {
        let db = setup();
        for i in 0..6 {
            db.execute_cql(&format!(
                "INSERT INTO ks.cells (id, parent) VALUES ({i}, {})",
                i % 2
            ))
            .unwrap();
        }
        let state = db.core.read_state();
        let handle = state.get("ks", "cells").unwrap();
        // The planner plans for whatever definition it is handed, here
        // one claiming an index the table does not have.
        let mut def = handle.def.clone();
        def.indexed_columns.push("parent".into());
        let Statement::Select {
            columns,
            where_clause,
            ..
        } = parse_statement("SELECT id FROM ks.cells WHERE parent = 1").unwrap()
        else {
            panic!("a SELECT")
        };
        let plan = plan::plan(&def, &columns, &where_clause, &[], None, None).unwrap();
        assert_eq!(plan.root.scan().kind.operator(), "IndexScan");
        let mut op = exec::build(plan.root, &handle.core, &handle.indexes, u64::MAX);
        let ids = exec::drain(op.as_mut()).unwrap();
        assert_eq!(ids, [1, 3, 5].map(|id| vec![CqlValue::Int(id)]));
    }

    #[test]
    fn nulls_are_not_indexed() {
        let db = setup();
        db.execute_cql("CREATE INDEX ON ks.cells (parent)").unwrap();
        db.execute_cql("INSERT INTO ks.cells (id, key) VALUES (1, 'x')")
            .unwrap();
        db.flush_all().unwrap();
        // The row reached disk; the posting table stayed empty.
        assert_eq!(
            db.table_size("ks", "cells__idx_parent").unwrap().as_bytes(),
            0
        );
        assert!(db.table_size("ks", "cells").unwrap().as_bytes() > 0);
        assert!(db
            .execute_cql("SELECT id FROM ks.cells WHERE parent = 0")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unindexed_filter_falls_back_to_scan() {
        let db = setup();
        db.execute_cql("INSERT INTO ks.cells (id, key) VALUES (1, 'hit')")
            .unwrap();
        db.execute_cql("INSERT INTO ks.cells (id, key) VALUES (2, 'miss')")
            .unwrap();
        let r = db
            .execute_cql("SELECT id FROM ks.cells WHERE key = 'hit'")
            .unwrap();
        assert_eq!(r.rows(), vec![vec![CqlValue::Int(1)]]);
    }

    #[test]
    fn select_all_and_limit() {
        let db = setup();
        for i in 0..5 {
            db.execute_cql(&format!("INSERT INTO ks.cells (id) VALUES ({i})"))
                .unwrap();
        }
        let r = db.execute_cql("SELECT * FROM ks.cells").unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.columns().len(), 5);
        let r = db.execute_cql("SELECT id FROM ks.cells LIMIT 2").unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn truncate_clears_table_and_indexes() {
        let db = setup();
        db.execute_cql("CREATE INDEX ON ks.cells (parent)").unwrap();
        db.execute_cql("INSERT INTO ks.cells (id, parent) VALUES (1, 2)")
            .unwrap();
        db.execute_cql("TRUNCATE ks.cells").unwrap();
        assert!(db.execute_cql("SELECT * FROM ks.cells").unwrap().is_empty());
        assert!(db
            .execute_cql("SELECT id FROM ks.cells WHERE parent = 2")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn truncate_refuses_a_hidden_posting_table() {
        // Only the base table's index writes the posting table: a user
        // write would make the index disagree with the base rows, and a
        // TRUNCATE would strand every later posting in a runtime no flush,
        // checkpoint or recovery reaches. Every writing verb is refused.
        let vfs = Vfs::memory();
        let index_answer = |db: &Db| {
            let r = db.execute_cql("SELECT id FROM ks.t WHERE g = 'a'").unwrap();
            let mut ids: Vec<i64> = r.iter().map(|row| row.get_int("id").unwrap()).collect();
            ids.sort_unstable();
            ids
        };
        let both = vec![i64::MIN + 5, 7];
        {
            let db = Db::open(OpenOptions::default().vfs(vfs.clone())).unwrap();
            db.execute_cql("CREATE KEYSPACE ks").unwrap();
            db.execute_cql("CREATE TABLE ks.t (id int, g text, PRIMARY KEY (id))")
                .unwrap();
            db.execute_cql("CREATE INDEX ON ks.t (g)").unwrap();
            for id in [i64::MIN + 5, 7] {
                db.execute_cql(&format!("INSERT INTO ks.t (id, g) VALUES ({id}, 'a')"))
                    .unwrap();
            }
            for write in [
                "TRUNCATE ks.t__idx_g",
                "INSERT INTO ks.t__idx_g (k, id) VALUES ('x', 1)",
                "UPDATE ks.t__idx_g SET id = 1 WHERE k = 'x'",
                // The exact key of the first row's posting.
                "DELETE FROM ks.t__idx_g WHERE k = '\u{1}a\0\0\0\0\0\0\0\u{5}'",
            ] {
                assert!(
                    matches!(db.execute_cql(write), Err(NosqlError::Unsupported(_))),
                    "{write}"
                );
            }
            assert_eq!(index_answer(&db), both);
            // Reading a posting table stays allowed.
            assert_eq!(
                db.execute_cql("SELECT * FROM ks.t__idx_g").unwrap().len(),
                2
            );
            db.flush_all().unwrap();
        }
        let db = Db::open(OpenOptions::default().vfs(vfs).recover(true)).unwrap();
        assert_eq!(index_answer(&db), both);
        assert!(matches!(
            db.execute_cql("INSERT INTO ks.t__idx_g (k, id) VALUES ('x', 1)"),
            Err(NosqlError::Unsupported(_))
        ));
        // A table that merely has such a name is an ordinary table.
        db.execute_cql("CREATE TABLE ks.u__idx_g (k text, PRIMARY KEY (k))")
            .unwrap();
        db.execute_cql("INSERT INTO ks.u__idx_g (k) VALUES ('x')")
            .unwrap();
        db.execute_cql("TRUNCATE ks.u__idx_g").unwrap();
    }

    #[test]
    fn sizes_after_flush() {
        let db = setup();
        for i in 0..100 {
            db.execute_cql(&format!(
                "INSERT INTO ks.cells (id, key) VALUES ({i}, 'station name {i}')"
            ))
            .unwrap();
        }
        assert!(db.commitlog_size().as_bytes() > 0);
        db.flush_all().unwrap();
        assert_eq!(db.commitlog_size().as_bytes(), 0);
        let size = db.table_size("ks", "cells").unwrap();
        assert!(size.as_bytes() > 2000, "got {size}");
        assert!(db.keyspace_size("ks").unwrap().as_bytes() > 0);
    }

    #[test]
    fn index_inflates_keyspace_size() {
        let plain = setup();
        let indexed = setup();
        indexed
            .execute_cql("CREATE INDEX ON ks.cells (parent)")
            .unwrap();
        for db in [&plain, &indexed] {
            for i in 0..200 {
                db.execute_cql(&format!(
                    "INSERT INTO ks.cells (id, parent) VALUES ({i}, {})",
                    i % 10
                ))
                .unwrap();
            }
            db.flush_all().unwrap();
        }
        let p = plain.keyspace_size("ks").unwrap();
        let x = indexed.keyspace_size("ks").unwrap();
        assert!(x > p, "indexed {x} must exceed plain {p}");
    }

    #[test]
    fn recovery_from_manifest_ddl_and_commitlog() {
        let vfs = Vfs::memory();
        {
            let db = Db::open(OpenOptions::default().vfs(vfs.clone())).unwrap();
            db.execute_cql("CREATE KEYSPACE ks").unwrap();
            db.execute_cql("CREATE TABLE ks.t (id int, v text, PRIMARY KEY (id))")
                .unwrap();
            db.execute_cql("INSERT INTO ks.t (id, v) VALUES (1, 'logged')")
                .unwrap();
            // No flush: the row lives only in the commit log.
        }
        let db = Db::open(OpenOptions::default().vfs(vfs).recover(true)).unwrap();
        let r = db.execute_cql("SELECT v FROM ks.t WHERE id = 1").unwrap();
        assert_eq!(r.rows(), vec![vec![CqlValue::Text("logged".into())]]);
    }

    #[test]
    fn recovery_reattaches_sstables() {
        let vfs = Vfs::memory();
        {
            let db = Db::open(OpenOptions::default().vfs(vfs.clone())).unwrap();
            db.execute_cql("CREATE KEYSPACE ks").unwrap();
            db.execute_cql("CREATE TABLE ks.t (id int, v text, PRIMARY KEY (id))")
                .unwrap();
            db.execute_cql("INSERT INTO ks.t (id, v) VALUES (1, 'flushed')")
                .unwrap();
            db.flush_all().unwrap();
        }
        let db = Db::open(OpenOptions::default().vfs(vfs).recover(true)).unwrap();
        let r = db.execute_cql("SELECT v FROM ks.t WHERE id = 1").unwrap();
        assert_eq!(r.rows(), vec![vec![CqlValue::Text("flushed".into())]]);
    }

    #[test]
    fn recovery_keeps_sequences_above_flushed_writes() {
        // Regression: after flush_all the WAL is empty, so the sequence
        // floor must come from the SSTables. A fresh write allocated below
        // the flushed sequences would be invisibly shadowed by old data.
        let vfs = Vfs::memory();
        {
            let db = Db::open(OpenOptions::default().vfs(vfs.clone())).unwrap();
            db.execute_cql("CREATE KEYSPACE ks").unwrap();
            db.execute_cql("CREATE TABLE ks.t (id int, v text, PRIMARY KEY (id))")
                .unwrap();
            db.execute_cql("INSERT INTO ks.t (id, v) VALUES (1, 'old')")
                .unwrap();
            db.flush_all().unwrap();
        }
        let db = Db::open(OpenOptions::default().vfs(vfs).recover(true)).unwrap();
        db.execute_cql("INSERT INTO ks.t (id, v) VALUES (1, 'new')")
            .unwrap();
        let r = db.execute_cql("SELECT v FROM ks.t WHERE id = 1").unwrap();
        assert_eq!(r.rows(), vec![vec![CqlValue::Text("new".into())]]);
    }

    #[test]
    fn compaction_does_not_resurrect_deletes_kept_for_snapshots() {
        // End-to-end run of the review scenario: a snapshot keeps the
        // pre-delete version buffered across the flush (the memtable "hole"
        // case); after the snapshot drops, a full compaction drops the
        // tombstone from disk and must purge that stale buffered version
        // too, or the deleted row comes back.
        let shared = Db::open(OpenOptions::default()).unwrap();
        let mut s = shared.session();
        s.execute_cql("CREATE KEYSPACE ks").unwrap();
        s.execute_cql("CREATE TABLE ks.t (id int, v text, PRIMARY KEY (id))")
            .unwrap();
        s.execute_cql("INSERT INTO ks.t (id, v) VALUES (1, 'doomed')")
            .unwrap();
        let snap = shared.snapshot();
        s.execute_cql("DELETE FROM ks.t WHERE id = 1").unwrap();
        shared.flush_all().unwrap();
        s.execute_cql("INSERT INTO ks.t (id, v) VALUES (2, 'other')")
            .unwrap();
        shared.flush_all().unwrap();
        drop(snap);
        shared.compact_all().unwrap();
        assert!(
            s.execute_cql("SELECT v FROM ks.t WHERE id = 1")
                .unwrap()
                .is_empty(),
            "compaction resurrected a deleted row"
        );
        assert_eq!(s.execute_cql("SELECT * FROM ks.t").unwrap().len(), 1);
    }

    #[test]
    fn truncate_survives_crash_recovery() {
        // An acknowledged TRUNCATE must stay effective after a crash: the
        // WAL records written before it must not be replayed into the
        // rebuilt table. The sibling table keeps its unflushed row, proving
        // recovery still replays what it should.
        let vfs = Vfs::memory();
        {
            let db = Db::open(OpenOptions::default().vfs(vfs.clone())).unwrap();
            db.execute_cql("CREATE KEYSPACE ks").unwrap();
            db.execute_cql("CREATE TABLE ks.a (id int, v text, PRIMARY KEY (id))")
                .unwrap();
            db.execute_cql("CREATE TABLE ks.b (id int, v text, PRIMARY KEY (id))")
                .unwrap();
            db.execute_cql("INSERT INTO ks.a (id, v) VALUES (1, 'pre')")
                .unwrap();
            db.execute_cql("INSERT INTO ks.a (id, v) VALUES (2, 'pre')")
                .unwrap();
            db.execute_cql("INSERT INTO ks.b (id, v) VALUES (7, 'keep')")
                .unwrap();
            db.execute_cql("TRUNCATE ks.a").unwrap();
            db.execute_cql("INSERT INTO ks.a (id, v) VALUES (3, 'post')")
                .unwrap();
            // Crash: drop without flushing.
        }
        let db = Db::open(OpenOptions::default().vfs(vfs).recover(true)).unwrap();
        let r = db.execute_cql("SELECT id FROM ks.a").unwrap();
        let ids: Vec<i64> = r.iter().map(|row| row.get_int("id").unwrap()).collect();
        assert_eq!(ids, vec![3], "pre-truncate rows resurrected by replay");
        let r = db.execute_cql("SELECT v FROM ks.b WHERE id = 7").unwrap();
        assert_eq!(r.rows(), vec![vec![CqlValue::Text("keep".into())]]);
    }

    #[test]
    fn threshold_flushes_checkpoint_the_commit_log() {
        // Under sustained writes with no explicit flush_all, post-flush
        // checkpoints must keep deleting flushed-past WAL segments: the log
        // stays bounded and recovery replays a suffix, not the whole
        // history.
        let vfs = Vfs::memory();
        {
            let db = Db::open(
                OpenOptions::default()
                    .vfs(vfs.clone())
                    .memtable_flush_bytes(512)
                    .wal_segment_bytes(1024),
            )
            .unwrap();
            db.execute_cql("CREATE KEYSPACE ks").unwrap();
            db.execute_cql("CREATE TABLE ks.t (id int, v text, PRIMARY KEY (id))")
                .unwrap();
            for i in 0..400 {
                db.execute_cql(&format!(
                    "INSERT INTO ks.t (id, v) VALUES ({i}, 'payload number {i}')"
                ))
                .unwrap();
            }
            let wal = db.commitlog_size().as_bytes();
            assert!(
                wal < 16 * 1024,
                "WAL grew unbounded despite threshold flushes: {wal} bytes"
            );
            // Crash without flush_all.
        }
        let db = Db::open(OpenOptions::default().vfs(vfs).recover(true)).unwrap();
        let r = db.execute_cql("SELECT * FROM ks.t").unwrap();
        assert_eq!(r.len(), 400, "checkpointing lost acknowledged writes");
    }

    #[test]
    fn shared_handle_runs_sessions_concurrently() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Db>();
        assert_sync::<Db>();
        assert_send::<Session>();

        let shared = Db::open(OpenOptions::default()).unwrap();
        let mut admin = shared.session();
        admin.execute_cql("CREATE KEYSPACE ks").unwrap();
        admin
            .execute_cql("CREATE TABLE ks.t (id int, v int, PRIMARY KEY (id))")
            .unwrap();
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                let shared = shared.clone();
                scope.spawn(move || {
                    let mut session = shared.session();
                    session.execute_cql("USE ks").unwrap();
                    for i in 0..16i64 {
                        session
                            .execute_cql(&format!(
                                "INSERT INTO t (id, v) VALUES ({}, {t})",
                                t * 100 + i
                            ))
                            .unwrap();
                    }
                });
            }
        });
        let n = admin.execute_cql("SELECT COUNT(*) FROM ks.t").unwrap();
        assert_eq!(n.first().unwrap().get_int("count").unwrap(), 64);
    }

    #[test]
    fn session_use_resolves_unqualified_tables() {
        let shared = Db::open(OpenOptions::default()).unwrap();
        let mut s = shared.session();
        s.execute_cql("CREATE KEYSPACE ks").unwrap();
        s.execute_cql("CREATE TABLE ks.t (id int, PRIMARY KEY (id))")
            .unwrap();
        // Unqualified without USE fails...
        assert!(s.execute_cql("INSERT INTO t (id) VALUES (1)").is_err());
        // ...USE of a missing keyspace fails...
        assert!(matches!(
            s.execute_cql("USE nope"),
            Err(NosqlError::UnknownKeyspace(_))
        ));
        assert_eq!(s.keyspace(), None);
        // ...and after USE the same statement lands in ks.t.
        s.execute_cql("USE ks").unwrap();
        assert_eq!(s.keyspace(), Some("ks"));
        s.execute_cql("INSERT INTO t (id) VALUES (1)").unwrap();
        assert_eq!(s.execute_cql("SELECT * FROM t").unwrap().len(), 1);
        // Qualified statements ignore the session keyspace.
        assert_eq!(s.execute_cql("SELECT * FROM ks.t").unwrap().len(), 1);
        s.execute_cql("CREATE KEYSPACE ks2").unwrap();
        s.execute_cql("CREATE TABLE ks2.t (id int, PRIMARY KEY (id))")
            .unwrap();
        // EXPLAIN resolves the inner statement's reference...
        let plan = s
            .execute_cql("EXPLAIN SELECT * FROM t WHERE id = 1")
            .unwrap();
        let line = plan.first().unwrap().get_text("plan").unwrap().to_string();
        assert!(line.starts_with("PointScan ks.t key=1"), "{line}");
        // ...and a batch resolves each statement's own.
        s.execute_cql(
            "BEGIN BATCH INSERT INTO t (id) VALUES (2); \
             INSERT INTO ks2.t (id) VALUES (3); APPLY BATCH",
        )
        .unwrap();
        assert_eq!(s.execute_cql("SELECT * FROM t").unwrap().len(), 2);
        assert_eq!(s.execute_cql("SELECT * FROM ks2.t").unwrap().len(), 1);
        // Every other statement kind resolves the same way.
        assert!(matches!(
            s.execute_cql("UPDATE t SET nope = 5 WHERE id = 1"),
            Err(NosqlError::UnknownColumn { .. })
        ));
        s.execute_cql("DELETE FROM t WHERE id = 2").unwrap();
        s.execute_cql("TRUNCATE t").unwrap();
        assert!(s.execute_cql("SELECT * FROM ks.t").unwrap().is_empty());
        assert_eq!(s.execute_cql("SELECT * FROM ks2.t").unwrap().len(), 1);
        // A second session has its own (empty) state, typed the same in
        // every statement kind, EXPLAIN and BATCH included.
        let mut other = shared.session();
        for cql in [
            "SELECT * FROM t",
            "EXPLAIN SELECT * FROM t",
            "BEGIN BATCH INSERT INTO t (id) VALUES (9); APPLY BATCH",
            "CREATE TABLE u (id int, PRIMARY KEY (id))",
            "CREATE INDEX ON t (id)",
            "TRUNCATE t",
        ] {
            match other.execute_cql(cql) {
                Err(NosqlError::Parse(m)) => {
                    assert!(
                        m.contains("requires a session keyspace (USE)"),
                        "{cql}: {m}"
                    )
                }
                other => panic!("{cql}: expected a parse error, got {other:?}"),
            }
        }
        // The bare engine core rejects USE outright.
        let db = Db::open(OpenOptions::default()).unwrap();
        assert!(matches!(
            db.execute_cql("USE ks"),
            Err(NosqlError::Unsupported(_))
        ));
    }

    #[test]
    fn unqualified_ddl_is_journaled_fully_qualified() {
        let vfs = Vfs::memory();
        {
            let db = Db::open(OpenOptions::default().vfs(vfs.clone())).unwrap();
            let mut s = db.session();
            s.execute_cql("CREATE KEYSPACE ks").unwrap();
            s.execute_cql("USE ks").unwrap();
            s.execute_cql("CREATE TABLE t (id int, v int, PRIMARY KEY (id))")
                .unwrap();
            s.execute_cql("CREATE INDEX ON t (v)").unwrap();
            s.execute_cql("INSERT INTO t (id, v) VALUES (1, 7)")
                .unwrap();
        }
        assert_eq!(
            Manifest::open(vfs.clone()).repair().unwrap().ddl,
            [
                "CREATE KEYSPACE ks",
                "CREATE TABLE ks.t (id int, v int, PRIMARY KEY (id))",
                "CREATE INDEX ON ks.t (v)",
            ]
        );
        // Recovery has no session: the records alone rebuild table and index.
        let db = Db::open(OpenOptions::default().vfs(vfs).recover(true)).unwrap();
        let r = db.execute_cql("SELECT id FROM ks.t WHERE v = 7").unwrap();
        assert_eq!(r.rows(), vec![vec![CqlValue::Int(1)]]);
    }

    #[test]
    fn the_manifest_and_the_commit_log_are_the_only_logs() {
        let vfs = Vfs::memory();
        let db = Db::open(OpenOptions::default().vfs(vfs.clone())).unwrap();
        db.execute_cql("CREATE KEYSPACE ks").unwrap();
        db.execute_cql("CREATE TABLE ks.t (id int, v int, PRIMARY KEY (id))")
            .unwrap();
        db.execute_cql("CREATE INDEX ON ks.t (v)").unwrap();
        db.execute_cql("INSERT INTO ks.t (id, v) VALUES (1, 7)")
            .unwrap();
        db.flush_all().unwrap();
        db.execute_cql("INSERT INTO ks.t (id, v) VALUES (2, 8)")
            .unwrap();
        let files = vfs.list("").unwrap();
        assert!(files.iter().any(|f| f == crate::manifest::MANIFEST_FILE));
        assert!(files.iter().any(|f| f.starts_with(COMMIT_LOG)));
        assert!(files.iter().any(|f| f.starts_with("ks/t/sst-")));
        for file in &files {
            assert!(
                file == crate::manifest::MANIFEST_FILE
                    || file.starts_with(COMMIT_LOG)
                    || file.contains("/sst-"),
                "{file}"
            );
        }
    }

    #[test]
    fn indexed_table_recovers_across_a_mid_stream_flush() {
        // INSERT / UPDATE / DELETE on an indexed table, a flush in the
        // middle (so recovery merges SSTables with WAL replay for base and
        // posting tables alike), then a crash: exactly the acknowledged
        // rows come back through the primary key and through the index.
        let vfs = Vfs::memory();
        {
            let db = Db::open(OpenOptions::default().vfs(vfs.clone())).unwrap();
            db.execute_cql("CREATE KEYSPACE ks").unwrap();
            db.execute_cql("CREATE TABLE ks.t (id int, v int, w text, PRIMARY KEY (id))")
                .unwrap();
            db.execute_cql("CREATE INDEX ON ks.t (v)").unwrap();
            for i in 0..6 {
                db.execute_cql(&format!(
                    "INSERT INTO ks.t (id, v, w) VALUES ({i}, {}, 'r{i}')",
                    i % 2
                ))
                .unwrap();
            }
            db.execute_cql("UPDATE ks.t SET v = 9 WHERE id = 0")
                .unwrap();
            db.execute_cql("DELETE FROM ks.t WHERE id = 1").unwrap();
            db.flush_all().unwrap();
            db.execute_cql("UPDATE ks.t SET v = 1 WHERE id = 2")
                .unwrap();
            db.execute_cql("DELETE FROM ks.t WHERE id = 3").unwrap();
            db.execute_cql("INSERT INTO ks.t (id, v, w) VALUES (1, 9, 'back')")
                .unwrap();
            db.execute_cql("UPDATE ks.t SET w = 'same v' WHERE id = 4")
                .unwrap();
            // Crash: drop without flushing.
        }
        let db = Db::open(OpenOptions::default().vfs(vfs).recover(true)).unwrap();
        let expected: [(i64, i64, &str); 5] = [
            (0, 9, "r0"),
            (1, 9, "back"),
            (2, 1, "r2"),
            (4, 0, "same v"),
            (5, 1, "r5"),
        ];
        let row = |(id, v, w): (i64, i64, &str)| {
            vec![
                CqlValue::Int(id),
                CqlValue::Int(v),
                CqlValue::Text(w.into()),
            ]
        };
        let all = db.execute_cql("SELECT * FROM ks.t").unwrap();
        assert_eq!(all.rows(), expected.map(row).to_vec());
        for id in 0..6 {
            let by_pk = db
                .execute_cql(&format!("SELECT * FROM ks.t WHERE id = {id}"))
                .unwrap();
            let want: Vec<_> = expected
                .iter()
                .filter(|r| r.0 == id)
                .map(|r| row(*r))
                .collect();
            assert_eq!(by_pk.rows(), want, "id {id}");
        }
        for v in [0, 1, 2, 9] {
            let by_index = db
                .execute_cql(&format!("SELECT * FROM ks.t WHERE v = {v}"))
                .unwrap();
            let plan = db
                .execute_cql(&format!("EXPLAIN SELECT * FROM ks.t WHERE v = {v}"))
                .unwrap();
            assert!(plan
                .first()
                .unwrap()
                .get_text("plan")
                .unwrap()
                .starts_with("IndexScan"));
            let mut got: Vec<Vec<CqlValue>> =
                by_index.iter().map(|r| r.values().to_vec()).collect();
            got.sort_by_key(|r| r[0].as_int());
            let want: Vec<_> = expected
                .iter()
                .filter(|r| r.1 == v)
                .map(|r| row(*r))
                .collect();
            assert_eq!(got, want, "v {v}");
        }
    }

    #[test]
    fn snapshots_are_stable_and_read_only() {
        let shared = Db::open(OpenOptions::default()).unwrap();
        let mut s = shared.session();
        s.execute_cql("CREATE KEYSPACE ks").unwrap();
        s.execute_cql("CREATE TABLE ks.t (id int, v text, PRIMARY KEY (id))")
            .unwrap();
        s.execute_cql("INSERT INTO ks.t (id, v) VALUES (1, 'before')")
            .unwrap();
        let snap = shared.snapshot();
        s.execute_cql("INSERT INTO ks.t (id, v) VALUES (1, 'after')")
            .unwrap();
        s.execute_cql("INSERT INTO ks.t (id, v) VALUES (2, 'new-row')")
            .unwrap();
        // The snapshot's view is frozen at its creation point...
        let r = snap.execute_cql("SELECT v FROM ks.t WHERE id = 1").unwrap();
        assert_eq!(r.rows(), vec![vec![CqlValue::Text("before".into())]]);
        assert_eq!(snap.execute_cql("SELECT * FROM ks.t").unwrap().len(), 1);
        // ...even across a flush of the newer data.
        shared.flush_all().unwrap();
        let r = snap.execute_cql("SELECT v FROM ks.t WHERE id = 1").unwrap();
        assert_eq!(r.rows(), vec![vec![CqlValue::Text("before".into())]]);
        // Live reads see everything.
        assert_eq!(s.execute_cql("SELECT * FROM ks.t").unwrap().len(), 2);
        // Writes through a snapshot are rejected.
        assert!(matches!(
            snap.execute_cql("INSERT INTO ks.t (id) VALUES (9)"),
            Err(NosqlError::Unsupported(_))
        ));
        drop(snap);
    }

    #[test]
    fn concurrent_updates_do_not_lose_columns() {
        // UPDATE is a read-modify-write; the per-table RMW lock must keep
        // two concurrent single-column UPDATEs from erasing each other.
        let shared = Db::open(OpenOptions::default()).unwrap();
        let mut s = shared.session();
        s.execute_cql("CREATE KEYSPACE ks").unwrap();
        s.execute_cql("CREATE TABLE ks.t (id int, a int, b int, PRIMARY KEY (id))")
            .unwrap();
        s.execute_cql("INSERT INTO ks.t (id, a, b) VALUES (1, 0, 0)")
            .unwrap();
        std::thread::scope(|scope| {
            for col in ["a", "b"] {
                let shared = shared.clone();
                scope.spawn(move || {
                    let mut session = shared.session();
                    for i in 1..=50i64 {
                        session
                            .execute_cql(&format!("UPDATE ks.t SET {col} = {i} WHERE id = 1"))
                            .unwrap();
                    }
                });
            }
        });
        let r = s.execute_cql("SELECT a, b FROM ks.t WHERE id = 1").unwrap();
        assert_eq!(
            r.rows(),
            vec![vec![CqlValue::Int(50), CqlValue::Int(50)]],
            "a concurrent UPDATE erased the other column's writes"
        );
    }

    #[test]
    fn group_commit_delay_coalesces_writers() {
        let shared =
            Db::open(OpenOptions::default().group_commit_delay(Duration::from_micros(200)))
                .unwrap();
        let mut s = shared.session();
        s.execute_cql("CREATE KEYSPACE ks").unwrap();
        s.execute_cql("CREATE TABLE ks.t (id int, PRIMARY KEY (id))")
            .unwrap();
        std::thread::scope(|scope| {
            for t in 0..8i64 {
                let shared = shared.clone();
                scope.spawn(move || {
                    let mut session = shared.session();
                    for i in 0..8i64 {
                        session
                            .execute_cql(&format!(
                                "INSERT INTO ks.t (id) VALUES ({})",
                                t * 1000 + i
                            ))
                            .unwrap();
                    }
                });
            }
        });
        let n = s.execute_cql("SELECT COUNT(*) FROM ks.t").unwrap();
        assert_eq!(n.first().unwrap().get_int("count").unwrap(), 64);
    }

    #[test]
    fn batch_executes_all() {
        let db = setup();
        db.execute_cql(
            "BEGIN BATCH \
             INSERT INTO ks.cells (id) VALUES (1); \
             INSERT INTO ks.cells (id) VALUES (2); \
             APPLY BATCH",
        )
        .unwrap();
        assert_eq!(db.execute_cql("SELECT * FROM ks.cells").unwrap().len(), 2);
    }
}
