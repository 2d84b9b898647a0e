//! The database engine: catalog + table runtimes + write/read paths.
//!
//! # Concurrency model (see DESIGN.md §5g)
//!
//! The engine core ([`DbCore`]) is `Send + Sync` and shared by every
//! session through an `Arc` — there is no global statement mutex.
//!
//! - **Reads** never block writers. A `SELECT` pins the MVCC watermark
//!   ([`crate::mvcc::ReadPin`]) and resolves each key to the newest
//!   version at or below that bound, across memtable shards, the frozen
//!   flush run, and immutable SSTables (a merged-away SSTable's file lives
//!   until its last reader lets go). Concurrent writers can never tear a
//!   read: versions above the pin are invisible.
//! - **Writes** append to the group-commit WAL
//!   ([`crate::commitlog::GroupCommitLog`]) — concurrent sessions share
//!   one fsync via a leader/follower protocol — then insert into the
//!   FNV-sharded memtable under per-shard mutexes.
//! - **Read-modify-write statements** (UPDATE, and any write to a table
//!   with secondary indexes) serialize on a per-table RMW mutex so the
//!   read half always observes the previous RMW's write.
//! - **DDL and TRUNCATE** take the engine state's write lock, which also
//!   guarantees `flush_all` sees no in-flight statements.
//!
//! Lock order (outermost first): engine state → per-table RMW → WAL
//! group → per-table maintenance → memtable shard / SSTable list.

use crate::cache::{BlockCache, CacheStats, DEFAULT_BLOCK_CACHE_BYTES};
use crate::commitlog::{CommitLog, GroupCommitLog, LogRecord, WalError};
use crate::compactor::CompactionPool;
use crate::cql::ast::{Statement, TableRef, WhereClause};
use crate::cql::parse_statement;
use crate::error::{NosqlError, Result};
use crate::exec;
use crate::manifest::{Manifest, ManifestEdit};
use crate::mvcc::{ReadPin, SeqGuard, SeqTracker, SnapshotRegistry};
use crate::plan;
use crate::result::QueryResult;
use crate::row::Row;
use crate::schema::{Catalog, ColumnDef, TableDef};
use crate::session::Session;
use crate::snapshot::Snapshot;
use crate::table::{TableCore, TableOptions};
use crate::types::{CqlType, CqlValue};
use sc_encoding::ByteSize;
use sc_storage::Vfs;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

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
    /// Starts from the defaults: fresh in-memory VFS, no recovery, default
    /// flush/compaction tuning, zero group-commit delay.
    pub fn new() -> OpenOptions {
        OpenOptions::default()
    }

    /// Opens over an explicit VFS (defaults to a fresh in-memory one).
    pub fn vfs(mut self, vfs: Vfs) -> OpenOptions {
        self.vfs = Some(vfs);
        self
    }

    /// Runs crash recovery on open: schema-journal replay (with torn-tail
    /// repair), manifest-ordered SSTable attach, orphan-file sweep, and
    /// commit-log replay (with torn-tail repair).
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

    /// Sets the whole per-table tuning block at once.
    pub fn table_options(mut self, table: TableOptions) -> OpenOptions {
        self.table = table;
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

    /// Builds the engine; sugar for [`Db::open`].
    pub fn open(self) -> Result<Db> {
        Db::open(self)
    }
}

const SCHEMA_LOG: &str = "schema.log";
const COMMIT_LOG: &str = "commitlog";

/// Estimated memtable overhead per version beyond key and body bytes.
const VERSION_COST: usize = 48;

/// Catalog + table runtimes, swapped atomically under one lock. DML and
/// SELECT hold the read side; DDL, TRUNCATE and `flush_all` the write
/// side.
#[derive(Debug)]
struct EngineState {
    catalog: Catalog,
    tables: HashMap<String, Arc<TableCore>>,
}

impl EngineState {
    fn core(&self, qualified: &str) -> &Arc<TableCore> {
        self.tables
            .get(qualified)
            .expect("runtime exists for cataloged table")
    }
}

/// One pending row mutation, bound for the WAL and a memtable.
struct PendingWrite {
    table: Arc<TableCore>,
    qualified: String,
    key: Vec<u8>,
    /// `None` writes a tombstone.
    row: Option<Row>,
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
    fn open(options: OpenOptions) -> Result<DbCore> {
        let vfs = options.vfs.unwrap_or_else(Vfs::memory);
        let manifest = Manifest::open(vfs.clone());
        let mut log = CommitLog::open(vfs.clone(), COMMIT_LOG);
        if let Some(bytes) = options.wal_segment_bytes {
            log = log.with_segment_bytes(bytes);
        }
        let core = DbCore {
            vfs,
            manifest,
            state: RwLock::new(EngineState {
                catalog: Catalog::new(),
                tables: HashMap::new(),
            }),
            wal: GroupCommitLog::new(log, options.group_commit_delay),
            tracker: SeqTracker::new(),
            registry: Arc::new(SnapshotRegistry::new()),
            table_options: options.table,
            cache: BlockCache::new(
                options
                    .block_cache_bytes
                    .unwrap_or(DEFAULT_BLOCK_CACHE_BYTES),
            ),
            pool: {
                let threads = options.compaction_threads.unwrap_or(2);
                (threads > 0).then(|| CompactionPool::new(threads))
            },
        };
        if options.recover {
            core.recover_state()?;
        }
        Ok(core)
    }

    fn read_state(&self) -> RwLockReadGuard<'_, EngineState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_state(&self) -> RwLockWriteGuard<'_, EngineState> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Crash recovery: rebuild catalog and runtimes from the journals,
    /// repairing every torn tail and sweeping unpublished files, so that the
    /// reopened engine contains exactly the acknowledged writes (plus,
    /// possibly, the one in-flight write the crash interrupted after its
    /// WAL frame became durable).
    fn recover_state(&self) -> Result<()> {
        let _span = crate::obs::nosql().recovery.start();
        let mut state = self.write_state();
        self.replay_schema_journal(&mut state)?;
        // A missing manifest is an empty one: every `sst-*` file it does
        // not list is an orphan.
        let live = self.manifest.repair()?;
        for (qualified, files) in &live {
            if let Some(table) = state.tables.get(qualified) {
                // Manifest order is age order — not name order, because a
                // tiered merge's output sits mid-sequence in age.
                for file in files {
                    table.attach_sstable(file)?;
                }
            }
        }
        self.sweep_orphans(&state, &live)?;
        // Replay surviving commit-log records; `repair` truncates a torn
        // final record so later appends stay reachable.
        let records = self.wal.plain().repair()?;
        if sc_obs::enabled() {
            crate::obs::nosql()
                .replayed_records
                .add(records.len() as u64);
        }
        let mut max_seq = 0;
        for record in records {
            max_seq = max_seq.max(record.timestamp);
            if let Some(table) = state.tables.get(&record.table) {
                // Segment checkpointing deletes a segment only when *all*
                // of it is flushed, so a surviving segment may hold records
                // older than a flushed version of the same key (group
                // commit interleaves sequence allocation with append
                // order). Re-applying such a record would sit at the head
                // of its memtable chain and shadow the newer on-disk
                // version for definitive reads — skip anything a flushed
                // sequence already covers.
                if table
                    .newest_disk_seq(&record.key)?
                    .is_some_and(|d| d >= record.timestamp)
                {
                    continue;
                }
                let row = if record.body.is_empty() {
                    None
                } else {
                    let mut dec = sc_encoding::Decoder::new(&record.body);
                    Some(Row::decode(&mut dec)?.0)
                };
                let cost = record.key.len() + record.body.len() + VERSION_COST;
                table.apply(record.key, row, record.timestamp, cost, 0);
            }
        }
        // The sequence floor must clear everything durable — WAL *and*
        // SSTables (the WAL may have been truncated after a flush). Reads
        // compare sequences, so a fresh write allocated below an on-disk
        // sequence would be invisibly shadowed.
        for table in state.tables.values() {
            max_seq = max_seq.max(table.max_disk_seq()?);
        }
        self.tracker.set_floor(max_seq);
        Ok(())
    }

    /// Replays DDL from the schema journal. The journal is line-framed; a
    /// crash mid-append leaves a trailing segment without a terminating
    /// newline, which is truncated away. A *complete* line that fails to
    /// parse is genuine corruption and still errors.
    fn replay_schema_journal(&self, state: &mut EngineState) -> Result<()> {
        let data = match self.vfs.read_all(SCHEMA_LOG) {
            Ok(d) => d,
            Err(sc_storage::StorageError::NotFound(_)) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let good_len = data.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        if good_len < data.len() {
            self.vfs.truncate(SCHEMA_LOG, good_len as u64)?;
        }
        let text = std::str::from_utf8(&data[..good_len])
            .map_err(|_| NosqlError::Corrupt("schema journal is not UTF-8".into()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let stmt = parse_statement(line)?;
            self.apply_ddl(state, &stmt, false)?;
        }
        Ok(())
    }

    /// Deletes SSTable files the manifest does not consider live: leftovers
    /// of flushes/compactions that crashed between writing data and
    /// publishing it, or after publishing a swap but before deleting inputs.
    ///
    /// Every orphan's id is reserved on its owning table *before* the file
    /// goes away. A crashed flush or merge can leave `sst-N` on disk with
    /// `N` above everything the manifest lists; seeding `next_sst_id` from
    /// manifest files alone would hand the very next flush that same name —
    /// and if the sweep's delete is itself interrupted, the reused name
    /// would collide with the stale bytes on the following recovery.
    fn sweep_orphans(
        &self,
        state: &EngineState,
        live: &BTreeMap<String, Vec<String>>,
    ) -> Result<()> {
        let live_files: HashSet<&str> = live.values().flatten().map(String::as_str).collect();
        for file in self.vfs.list("")? {
            if file.contains("/sst-") && !live_files.contains(file.as_str()) {
                for table in state.tables.values() {
                    table.reserve_sst_id(&file);
                }
                self.vfs.delete(&file)?;
            }
        }
        Ok(())
    }

    pub(crate) fn has_keyspace(&self, name: &str) -> bool {
        self.read_state().catalog.has_keyspace(name)
    }

    fn catalog_snapshot(&self) -> Catalog {
        self.read_state().catalog.clone()
    }

    /// Rejects statements whose table references never got a keyspace —
    /// only a [`Session`] with a `USE` keyspace can resolve those.
    fn check_qualified(stmt: &Statement) -> Result<()> {
        for r in stmt.table_refs() {
            if !r.is_qualified() {
                return Err(NosqlError::Parse(format!(
                    "unqualified table {:?} requires a session keyspace (USE)",
                    r.table
                )));
            }
        }
        Ok(())
    }

    pub(crate) fn execute(&self, stmt: &Statement) -> Result<QueryResult> {
        Self::check_qualified(stmt)?;
        match stmt {
            Statement::Use { .. } => Err(NosqlError::Unsupported(
                "USE needs session state; execute it on a `Session`".into(),
            )),
            Statement::CreateKeyspace { .. }
            | Statement::CreateTable { .. }
            | Statement::CreateIndex { .. } => {
                let mut state = self.write_state();
                self.apply_ddl(&mut state, stmt, true)?;
                Ok(QueryResult::empty())
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                let state = self.read_state();
                self.insert(&state, table, columns, values)?;
                Ok(QueryResult::empty())
            }
            Statement::Select { .. } => {
                let state = self.read_state();
                let pin = ReadPin::new(&self.registry, &self.tracker);
                self.run_select(&state, stmt, pin.seq())
            }
            Statement::Explain { statement } => {
                let state = self.read_state();
                self.explain(&state, statement)
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                let state = self.read_state();
                self.update(&state, table, assignments, where_clause)?;
                Ok(QueryResult::empty())
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let state = self.read_state();
                self.delete(&state, table, where_clause)?;
                Ok(QueryResult::empty())
            }
            Statement::Truncate { table } => {
                let mut state = self.write_state();
                self.truncate(&mut state, table)?;
                Ok(QueryResult::empty())
            }
            Statement::Batch { statements } => {
                // Statements commit individually; under concurrency their
                // WAL frames still coalesce through the group commit.
                for s in statements {
                    self.execute(s)?;
                }
                Ok(QueryResult::empty())
            }
        }
    }

    /// SELECT at a fixed MVCC bound (a [`Snapshot`]'s view).
    pub(crate) fn execute_read(&self, stmt: &Statement, bound: u64) -> Result<QueryResult> {
        Self::check_qualified(stmt)?;
        match stmt {
            Statement::Select { .. } => {
                let state = self.read_state();
                self.run_select(&state, stmt, bound)
            }
            Statement::Explain { statement } => {
                let state = self.read_state();
                self.explain(&state, statement)
            }
            _ => Err(NosqlError::Unsupported(
                "snapshots are read-only: only SELECT is allowed".into(),
            )),
        }
    }

    fn journal_ddl(&self, stmt: &Statement) -> Result<()> {
        let mut line = stmt.to_cql();
        line.push('\n');
        self.vfs.append(SCHEMA_LOG, line.as_bytes())?;
        Ok(())
    }

    fn new_table_core(&self, def: TableDef) -> Arc<TableCore> {
        Arc::new(TableCore::new(
            def,
            self.vfs.clone(),
            self.manifest.clone(),
            self.table_options,
            self.cache.clone(),
        ))
    }

    fn apply_ddl(&self, state: &mut EngineState, stmt: &Statement, journal: bool) -> Result<()> {
        match stmt {
            Statement::CreateKeyspace { name } => {
                state.catalog.create_keyspace(name)?;
            }
            Statement::CreateTable {
                table,
                columns,
                primary_key,
            } => {
                let defs: Vec<ColumnDef> = columns
                    .iter()
                    .map(|(name, ty)| ColumnDef {
                        name: name.clone(),
                        ty: *ty,
                    })
                    .collect();
                let def = TableDef::new(&table.keyspace, &table.table, defs, primary_key)?;
                state.catalog.create_table(def.clone())?;
                state
                    .tables
                    .insert(def.qualified_name(), self.new_table_core(def));
            }
            Statement::CreateIndex { table, column } => {
                self.create_index(state, table, column)?;
            }
            _ => unreachable!("apply_ddl called on non-DDL"),
        }
        if journal {
            self.journal_ddl(stmt)?;
        }
        Ok(())
    }

    fn create_index(&self, state: &mut EngineState, table: &TableRef, column: &str) -> Result<()> {
        let def = Arc::clone(state.catalog.table(&table.keyspace, &table.table)?);
        let col_idx = def
            .column_index(column)
            .ok_or_else(|| NosqlError::UnknownColumn {
                table: def.name.clone(),
                column: column.to_string(),
            })?;
        if def.is_indexed(column) {
            return Err(NosqlError::AlreadyExists(format!("index on {column:?}")));
        }
        if def.columns[col_idx].ty == CqlType::IntSet {
            return Err(NosqlError::Unsupported(
                "secondary indexes on set<int> columns".into(),
            ));
        }
        if def.pk_column().ty != CqlType::Int {
            return Err(NosqlError::Unsupported(
                "secondary indexes require an int primary key (posting sets hold ints)".into(),
            ));
        }
        // The hidden index column family: one row per posting, keyed by
        // `hex(indexed value) ':' row id` — Cassandra's one-cell-per-posting
        // physical layout expressed as rows.
        let idx_name = def.index_table_name(column);
        let idx_def = TableDef::new(
            &def.keyspace,
            &idx_name,
            vec![
                ColumnDef {
                    name: "k".into(),
                    ty: CqlType::Text,
                },
                ColumnDef {
                    name: "id".into(),
                    ty: CqlType::Int,
                },
            ],
            "k",
        )?;
        state.tables.insert(
            idx_def.qualified_name(),
            self.new_table_core(idx_def.clone()),
        );
        state.catalog.create_table(idx_def)?;
        state
            .catalog
            .table_mut(&table.keyspace, &table.table)?
            .indexed_columns
            .push(column.to_string());
        state
            .core(&format!("{}.{}", table.keyspace, table.table))
            .add_index(column);
        // Backfill for rows already present. The state write lock excludes
        // every concurrent statement, so reading at the top bound is exact.
        let base_def = Arc::clone(state.catalog.table(&table.keyspace, &table.table)?);
        let existing = state
            .core(&base_def.qualified_name())
            .cursor(u64::MAX, None, None);
        let mut writes = Vec::new();
        for row in existing.map(crate::table::live_row) {
            let row = row?;
            let value = row.values[col_idx].clone();
            if value.is_null() {
                continue;
            }
            let pk = row.pk(&base_def).clone();
            writes.push(self.posting_write(state, &base_def, column, &value, &pk, true));
        }
        self.commit_writes(state, writes)
    }

    /// Commits a set of row mutations: one sequence per record, one WAL
    /// group append (durable before anything becomes visible), then the
    /// memtable inserts. On a WAL error nothing was applied and every
    /// allocated sequence completes unused, so the watermark never stalls.
    fn commit_writes(&self, state: &EngineState, writes: Vec<PendingWrite>) -> Result<()> {
        if writes.is_empty() {
            return Ok(());
        }
        let guards: Vec<SeqGuard> = writes
            .iter()
            .map(|_| SeqGuard::new(&self.tracker))
            .collect();
        let mut records = Vec::with_capacity(writes.len());
        for (w, g) in writes.iter().zip(&guards) {
            let body = match &w.row {
                Some(row) => {
                    let mut enc = sc_encoding::Encoder::new();
                    row.encode(&mut enc, g.seq());
                    enc.into_bytes()
                }
                None => Vec::new(),
            };
            records.push(LogRecord {
                table: w.qualified.clone(),
                key: w.key.clone(),
                body,
                timestamp: g.seq(),
            });
        }
        let body_lens: Vec<usize> = records.iter().map(|r| r.body.len()).collect();
        self.wal
            .append_group(records)
            .map_err(WalError::into_nosql)?;
        let gc_floor = self.registry.gc_floor(&self.tracker);
        let mut touched: Vec<Arc<TableCore>> = Vec::new();
        for ((w, g), body_len) in writes.into_iter().zip(&guards).zip(body_lens) {
            let cost = w.key.len() + body_len + VERSION_COST;
            w.table.apply(w.key, w.row, g.seq(), cost, gc_floor);
            if !touched.iter().any(|t| Arc::ptr_eq(t, &w.table)) {
                touched.push(w.table);
            }
        }
        // Completing the sequences publishes the writes to the watermark.
        drop(guards);
        let mut flushed = false;
        for table in &touched {
            if table.maybe_flush(&self.tracker, &self.registry)? {
                flushed = true;
                // The flush may have crossed the compaction threshold.
                // Hand the merge to the background pool (or run it here
                // when the pool is disabled) — never inside the flush
                // itself, which would stall this commit and, through the
                // WAL group, every commit behind it.
                if table.needs_compaction() {
                    self.schedule_compaction(table)?;
                }
            }
        }
        if flushed {
            // A flush just made a WAL prefix redundant; drop any commit-log
            // segment every table has flushed past. This is what bounds the
            // log (and recovery replay) under sustained writes — without it
            // only an explicit `flush_all` ever reclaims WAL space.
            let floor = state
                .tables
                .values()
                .map(|t| t.wal_floor(&self.tracker))
                .min()
                .unwrap_or(0);
            self.wal.checkpoint(floor)?;
        }
        Ok(())
    }

    fn insert(
        &self,
        state: &EngineState,
        table: &TableRef,
        columns: &[String],
        values: &[CqlValue],
    ) -> Result<()> {
        let def = Arc::clone(state.catalog.table(&table.keyspace, &table.table)?);
        if columns.len() != values.len() {
            return Err(NosqlError::Parse(format!(
                "INSERT binds {} columns but {} values",
                columns.len(),
                values.len()
            )));
        }
        // Assemble the full row (unbound columns become null).
        let mut row_values = vec![CqlValue::Null; def.columns.len()];
        for (name, value) in columns.iter().zip(values) {
            let idx = def
                .column_index(name)
                .ok_or_else(|| NosqlError::UnknownColumn {
                    table: def.name.clone(),
                    column: name.clone(),
                })?;
            if !value.matches(def.columns[idx].ty) {
                return Err(NosqlError::TypeMismatch {
                    column: name.clone(),
                    expected: def.columns[idx].ty.name().to_string(),
                    found: value.type_name().to_string(),
                });
            }
            row_values[idx] = value.clone();
        }
        if row_values[def.primary_key].is_null() {
            return Err(NosqlError::MissingPrimaryKey(def.pk_column().name.clone()));
        }
        self.put_row(state, &def, Row::new(row_values))
    }

    /// Full write path for one row. Index-free tables take the blind,
    /// lock-free path; indexed tables serialize on the table's RMW mutex
    /// for the read-before-write that keeps postings consistent (a real
    /// cost of Cassandra-style secondary indexes).
    fn put_row(&self, state: &EngineState, def: &TableDef, row: Row) -> Result<()> {
        let qualified = def.qualified_name();
        let table = Arc::clone(state.core(&qualified));
        if def.indexed_columns.is_empty() {
            let key = row.pk_bytes(def);
            return self.commit_writes(
                state,
                vec![PendingWrite {
                    table,
                    qualified,
                    key,
                    row: Some(row),
                }],
            );
        }
        let _rmw = table.rmw_lock();
        self.put_row_rmw_locked(state, def, &table, row)
    }

    /// The indexed-table write path; the caller holds the table's RMW lock.
    fn put_row_rmw_locked(
        &self,
        state: &EngineState,
        def: &TableDef,
        table: &Arc<TableCore>,
        row: Row,
    ) -> Result<()> {
        let qualified = def.qualified_name();
        let key = row.pk_bytes(def);
        let mut writes = Vec::new();
        if !def.indexed_columns.is_empty() {
            // Read-before-write at the top bound: the RMW lock guarantees
            // every previous write to this table is already applied.
            let old_row = table.get(&key, u64::MAX)?;
            let pk = row.pk(def).clone();
            for column in &def.indexed_columns {
                let idx = def.column_index(column).expect("index on known column");
                let new_value = row.values[idx].clone();
                let old_value = old_row.as_ref().map(|r| r.values[idx].clone());
                if old_value.as_ref() == Some(&new_value) {
                    continue;
                }
                if let Some(old) = old_value {
                    if !old.is_null() {
                        writes.push(self.posting_write(state, def, column, &old, &pk, false));
                    }
                }
                if !new_value.is_null() {
                    writes.push(self.posting_write(state, def, column, &new_value, &pk, true));
                }
            }
        }
        writes.push(PendingWrite {
            table: Arc::clone(table),
            qualified,
            key,
            row: Some(row),
        });
        self.commit_writes(state, writes)
    }

    /// Posting-row key: `len-prefixed(value key) ++ order-preserving id`.
    /// The value-key prefix groups a per-value partition; the id suffix
    /// makes each posting its own row. Like Cassandra's index entries, the
    /// indexed value is stored once (in the key), not repeated in the body.
    fn posting_key(value: &CqlValue, id: i64) -> Vec<u8> {
        let mut enc = sc_encoding::Encoder::new();
        enc.put_bytes(&value.encode_key());
        enc.put_raw(&((id as u64) ^ (1u64 << 63)).to_be_bytes());
        enc.into_bytes()
    }

    /// Prefix covering every posting of `value` (the read side lives in
    /// [`crate::exec::scan::IndexScan`]).
    pub(crate) fn posting_prefix(value: &CqlValue) -> Vec<u8> {
        let mut enc = sc_encoding::Encoder::new();
        enc.put_bytes(&value.encode_key());
        enc.into_bytes()
    }

    fn posting_write(
        &self,
        state: &EngineState,
        def: &TableDef,
        column: &str,
        value: &CqlValue,
        pk: &CqlValue,
        add: bool,
    ) -> PendingWrite {
        let idx_qualified = format!("{}.{}", def.keyspace, def.index_table_name(column));
        let id = pk
            .as_int()
            .expect("index creation enforced int primary keys");
        let key = Self::posting_key(value, id);
        // Minimal body: the indexed value lives in the key only.
        let row = add.then(|| Row::new(vec![CqlValue::Null, CqlValue::Int(id)]));
        PendingWrite {
            table: Arc::clone(state.core(&idx_qualified)),
            qualified: idx_qualified,
            key,
            row,
        }
    }

    /// Cassandra UPDATE semantics: an upsert — unassigned columns keep
    /// their existing values (or null for a fresh row). Serializes on the
    /// table's RMW mutex: concurrent UPDATEs to the same table never lose
    /// each other's column writes.
    fn update(
        &self,
        state: &EngineState,
        table: &TableRef,
        assignments: &[(String, CqlValue)],
        where_clause: &WhereClause,
    ) -> Result<()> {
        let def = Arc::clone(state.catalog.table(&table.keyspace, &table.table)?);
        let WhereClause::Eq {
            column: w_column,
            value: w_value,
        } = where_clause
        else {
            return Err(NosqlError::Unsupported(
                "UPDATE requires an equality WHERE on the primary key".into(),
            ));
        };
        if w_column != &def.pk_column().name {
            return Err(NosqlError::Unsupported(format!(
                "UPDATE is by primary key ({})",
                def.pk_column().name
            )));
        }
        if !w_value.matches(def.pk_column().ty) {
            return Err(NosqlError::TypeMismatch {
                column: w_column.clone(),
                expected: def.pk_column().ty.name().to_string(),
                found: w_value.type_name().to_string(),
            });
        }
        let key = w_value.encode_key();
        let core = Arc::clone(state.core(&def.qualified_name()));
        let _rmw = core.rmw_lock();
        let existing = core.get(&key, u64::MAX)?;
        let mut values = existing
            .map(|r| r.values)
            .unwrap_or_else(|| vec![CqlValue::Null; def.columns.len()]);
        values[def.primary_key] = w_value.clone();
        for (column, value) in assignments {
            let idx = def
                .column_index(column)
                .ok_or_else(|| NosqlError::UnknownColumn {
                    table: def.name.clone(),
                    column: column.clone(),
                })?;
            if idx == def.primary_key {
                return Err(NosqlError::Unsupported(
                    "the primary key cannot be SET".into(),
                ));
            }
            if !value.matches(def.columns[idx].ty) {
                return Err(NosqlError::TypeMismatch {
                    column: column.clone(),
                    expected: def.columns[idx].ty.name().to_string(),
                    found: value.type_name().to_string(),
                });
            }
            values[idx] = value.clone();
        }
        self.put_row_rmw_locked(state, &def, &core, Row::new(values))
    }

    fn delete(
        &self,
        state: &EngineState,
        table: &TableRef,
        where_clause: &WhereClause,
    ) -> Result<()> {
        let def = Arc::clone(state.catalog.table(&table.keyspace, &table.table)?);
        let WhereClause::Eq {
            column: w_column,
            value: w_value,
        } = where_clause
        else {
            return Err(NosqlError::Unsupported(
                "DELETE requires an equality WHERE on the primary key".into(),
            ));
        };
        if w_column != &def.pk_column().name {
            return Err(NosqlError::Unsupported(format!(
                "DELETE is by primary key ({})",
                def.pk_column().name
            )));
        }
        let key = w_value.encode_key();
        let qualified = def.qualified_name();
        let core = Arc::clone(state.core(&qualified));
        if def.indexed_columns.is_empty() {
            // Blind tombstone: no read, no RMW lock.
            return self.commit_writes(
                state,
                vec![PendingWrite {
                    table: core,
                    qualified,
                    key,
                    row: None,
                }],
            );
        }
        let _rmw = core.rmw_lock();
        let old_row = core.get(&key, u64::MAX)?;
        let mut writes = vec![PendingWrite {
            table: Arc::clone(&core),
            qualified,
            key,
            row: None,
        }];
        if let Some(old) = old_row {
            for column in &def.indexed_columns {
                let idx = def.column_index(column).expect("index on known column");
                let value = old.values[idx].clone();
                if !value.is_null() {
                    writes.push(self.posting_write(
                        state,
                        &def,
                        column,
                        &value,
                        old.pk(&def),
                        false,
                    ));
                }
            }
        }
        self.commit_writes(state, writes)
    }

    fn truncate(&self, state: &mut EngineState, table: &TableRef) -> Result<()> {
        let def = Arc::clone(state.catalog.table(&table.keyspace, &table.table)?);
        // Checkpoint before touching the manifest: the WAL still holds this
        // table's pre-truncate mutations, and recovery would replay them
        // into the rebuilt (empty) runtime, resurrecting truncated data.
        // Flushing everything and truncating the log removes them; the
        // caller holds the state write lock, so no statement is in flight
        // and the truncated WAL loses nothing. A crash anywhere inside the
        // truncate is safe — the TRUNCATE was not yet acknowledged, so both
        // "applied" and "not applied" are legal recovery outcomes.
        self.checkpoint_all_locked(state)?;
        let rebuild = |state: &mut EngineState, name: &str| -> Result<()> {
            let qualified = format!("{}.{}", def.keyspace, name);
            let fresh_def = (**state.catalog.table(&def.keyspace, name)?).clone();
            // A background compaction job may still hold the old runtime:
            // retire it first, which waits out any in-flight merge and
            // turns later jobs into no-ops, so nothing re-publishes the
            // files this TRUNCATE is about to delete.
            if let Some(old) = state.tables.get(&qualified) {
                old.retire();
            }
            // Retire the files from the manifest first (one atomic record):
            // a crash mid-delete then leaves orphans for recovery to sweep,
            // never a manifest pointing at half-deleted tables.
            let files = state
                .tables
                .get(&qualified)
                .map(|t| t.sstable_files())
                .unwrap_or_default();
            self.manifest.commit(&ManifestEdit {
                adds: Vec::new(),
                removes: files
                    .iter()
                    .map(|f| (qualified.clone(), f.clone()))
                    .collect(),
            })?;
            for f in &files {
                self.cache.evict_file(f);
                self.vfs.delete(f)?;
            }
            state
                .tables
                .insert(qualified, self.new_table_core(fresh_def));
            Ok(())
        };
        rebuild(state, &def.name)?;
        for column in &def.indexed_columns {
            rebuild(state, &def.index_table_name(column))?;
        }
        Ok(())
    }

    /// Statistics for the planner's cost model, gathered from structures
    /// the engine already maintains (no extra bookkeeping on any hot
    /// path).
    fn table_stats(&self, core: &TableCore) -> plan::TableStats {
        let cache = self.cache.stats();
        let lookups = cache.hits + cache.misses;
        let cache_hit_rate = if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        };
        plan::TableStats {
            rows: core.estimate_rows(),
            sstables: core.sstable_count(),
            cache_hit_rate,
        }
    }

    /// Plans a `SELECT` and resolves the table runtimes its pipeline
    /// reads. The only SELECT entry point — `execute`, snapshots, and
    /// `EXPLAIN` all come through here, so semantics and plans can never
    /// diverge.
    fn plan_parts(
        &self,
        state: &EngineState,
        stmt: &Statement,
    ) -> Result<(plan::SelectPlan, exec::Cores)> {
        let Statement::Select {
            table,
            columns,
            where_clause,
            group_by,
            order_by,
            limit,
        } = stmt
        else {
            return Err(NosqlError::Unsupported(
                "EXPLAIN covers SELECT statements only".into(),
            ));
        };
        let def = Arc::clone(state.catalog.table(&table.keyspace, &table.table)?);
        let base = Arc::clone(state.core(&def.qualified_name()));
        let stats = self.table_stats(&base);
        let plan = plan::plan_select(
            &def,
            columns,
            where_clause,
            group_by,
            order_by.as_ref(),
            *limit,
            &stats,
        )?;
        let index = plan
            .root
            .scan()
            .index_table
            .as_ref()
            .map(|qualified| Arc::clone(state.core(qualified)));
        Ok((plan, exec::Cores { base, index }))
    }

    /// Executes a `SELECT` at MVCC bound `bound` through the operator
    /// pipeline: plan, build operators, drain.
    fn run_select(&self, state: &EngineState, stmt: &Statement, bound: u64) -> Result<QueryResult> {
        let (plan, cores) = self.plan_parts(state, stmt)?;
        let mut op = exec::build(&plan.root, &cores, bound);
        let rows = exec::drain(op.as_mut())?;
        Ok(QueryResult::new(plan.columns, rows))
    }

    /// `EXPLAIN <select>`: plans the inner statement and returns the plan
    /// tree as one `plan` text column, cost estimates included.
    fn explain(&self, state: &EngineState, stmt: &Statement) -> Result<QueryResult> {
        let (plan, _cores) = self.plan_parts(state, stmt)?;
        Ok(QueryResult::new(
            vec!["plan".to_string()],
            plan::explain::result_rows(&plan),
        ))
    }

    /// Flushes every memtable to disk and truncates the commit log (its
    /// contents are now redundant). Takes the state write lock, so no
    /// statement is in flight: the watermark covers every write and the
    /// truncated WAL loses nothing.
    pub(crate) fn flush_all(&self) -> Result<()> {
        let state = self.write_state();
        self.checkpoint_all_locked(&state)
    }

    /// Flush every table, then truncate the (now fully redundant) commit
    /// log. The caller holds the state write lock.
    fn checkpoint_all_locked(&self, state: &EngineState) -> Result<()> {
        for table in state.tables.values() {
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

    /// Blocks until every queued background compaction has finished (a
    /// no-op with `compaction_threads = 0`).
    pub(crate) fn drain_compactions(&self) {
        if let Some(pool) = &self.pool {
            pool.drain();
        }
    }

    /// Compacts every table fully.
    pub(crate) fn compact_all(&self) -> Result<()> {
        let state = self.read_state();
        for table in state.tables.values() {
            table.compact(&self.registry)?;
        }
        Ok(())
    }

    /// On-disk size of one table's SSTables (hidden index tables *not*
    /// included; see [`DbCore::keyspace_size`]).
    pub(crate) fn table_size(&self, keyspace: &str, table: &str) -> Result<ByteSize> {
        let state = self.read_state();
        state.catalog.table(keyspace, table)?;
        Ok(ByteSize::bytes(
            state.core(&format!("{keyspace}.{table}")).disk_size(),
        ))
    }

    /// Total on-disk size of a keyspace: all tables including hidden index
    /// column families. This is the paper's `size_as_mb` measurement.
    ///
    /// Waits out any queued background merges first: a size probed while a
    /// merge is mid-flight would count inputs and output both (or neither
    /// merged), making the number racy.
    pub(crate) fn keyspace_size(&self, keyspace: &str) -> Result<ByteSize> {
        self.drain_compactions();
        let state = self.read_state();
        state.catalog.tables_in(keyspace)?; // validates the keyspace
        let mut total = 0;
        for (qualified, table) in &state.tables {
            if qualified.starts_with(&format!("{keyspace}.")) {
                total += table.disk_size();
            }
        }
        Ok(ByteSize::bytes(total))
    }

    pub(crate) fn commitlog_size(&self) -> ByteSize {
        ByteSize::bytes(self.wal.plain().size())
    }

    pub(crate) fn block_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// An embedded Cassandra-like database handle: cloneable and
/// thread-shared.
///
/// The engine core is internally synchronized, so clones execute
/// statements **concurrently** — snapshot-isolated reads never block
/// behind writers, and concurrent writers share WAL fsyncs through the
/// group commit. Per-connection state (the `USE` keyspace, slow-query
/// attribution) lives on [`Session`]; point-in-time reads on [`Snapshot`].
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

    /// A point-in-time copy of the schema catalog.
    pub fn catalog(&self) -> Catalog {
        self.core.catalog_snapshot()
    }

    /// Parses and executes one statement without session state (no `USE`
    /// resolution).
    pub fn execute_cql(&self, cql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(cql)?;
        self.execute(&stmt)
    }

    /// Executes a pre-parsed statement (the "prepared" fast path the bulk
    /// loader uses).
    pub fn execute(&self, stmt: &Statement) -> Result<QueryResult> {
        self.core.execute(stmt)
    }

    /// Flushes every memtable and truncates the commit log. Waits for all
    /// in-flight statements (state write lock). Call before measuring
    /// sizes.
    pub fn flush_all(&self) -> Result<()> {
        self.core.flush_all()
    }

    /// Compacts every table fully.
    pub fn compact_all(&self) -> Result<()> {
        self.core.compact_all()
    }

    /// Blocks until every queued background compaction has finished (a
    /// no-op with [`OpenOptions::compaction_threads`] 0). Call before
    /// asserting on SSTable counts or measuring steady-state disk size.
    pub fn drain_compactions(&self) {
        self.core.drain_compactions()
    }

    /// On-disk size of one table's SSTables (hidden index tables *not*
    /// included; see [`Db::keyspace_size`]).
    pub fn table_size(&self, keyspace: &str, table: &str) -> Result<ByteSize> {
        self.core.table_size(keyspace, table)
    }

    /// Total on-disk size of a keyspace: all tables including hidden index
    /// column families. This is the paper's `size_as_mb` measurement.
    pub fn keyspace_size(&self, keyspace: &str) -> Result<ByteSize> {
        self.core.keyspace_size(keyspace)
    }

    /// Commit-log bytes currently on disk.
    pub fn commitlog_size(&self) -> ByteSize {
        self.core.commitlog_size()
    }

    /// Point-in-time counters of the engine's shared block cache.
    pub fn block_cache_stats(&self) -> CacheStats {
        self.core.block_cache_stats()
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
    fn nulls_are_not_indexed() {
        let db = setup();
        db.execute_cql("CREATE INDEX ON ks.cells (parent)").unwrap();
        db.execute_cql("INSERT INTO ks.cells (id, key) VALUES (1, 'x')")
            .unwrap();
        // Index table stays empty.
        let idx_size = db.table_size("ks", "cells__idx_parent").unwrap();
        db.flush_all().unwrap();
        let _ = idx_size;
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
    fn recovery_from_schema_journal_and_commitlog() {
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
        let shared = SharedDb::open(OpenOptions::default()).unwrap();
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
        assert_send::<SharedDb>();
        assert_sync::<SharedDb>();
        assert_send::<Session>();

        let shared = SharedDb::open(OpenOptions::default()).unwrap();
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
        let shared = SharedDb::open(OpenOptions::default()).unwrap();
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
        // A second session has its own (empty) state.
        let mut other = shared.session();
        assert!(other.execute_cql("SELECT * FROM t").is_err());
        // The bare engine core rejects USE outright.
        let db = Db::open(OpenOptions::default()).unwrap();
        assert!(matches!(
            db.execute_cql("USE ks"),
            Err(NosqlError::Unsupported(_))
        ));
    }

    #[test]
    fn snapshots_are_stable_and_read_only() {
        let shared = SharedDb::open(OpenOptions::default()).unwrap();
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
        let shared = SharedDb::open(OpenOptions::default()).unwrap();
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
            SharedDb::open(OpenOptions::default().group_commit_delay(Duration::from_micros(200)))
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
