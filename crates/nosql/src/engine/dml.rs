//! DML and SELECT: the one write routine behind INSERT, UPDATE and DELETE,
//! the chunk a multi-row INSERT commits in, the commit, the sorted-run
//! ingest that bypasses all three (rows or columns in, one SSTable out),
//! and the one SELECT entry point.

use super::*;
use crate::colblock::ColumnBatch;
use crate::commitlog::WalBatch;
use crate::types::ValueRef;

/// Row writes bound for one [`DbCore::commit`], staged a statement (one
/// row's writes: its postings and the row) at a time.
///
/// A chunk is full after the statement at which committing one statement
/// at a time would have flushed a memtable or rotated the commit-log
/// segment: the statement whose writes take a touched table's memtable to
/// its flush threshold ([`TableCore::flush_headroom`]), or the active
/// segment to its size ([`CommitLog::room`]). A multi-row INSERT
/// commits there and only there, so every flush, merge, SSTable and WAL
/// segment lands where one INSERT per row would have put it.
struct Chunk {
    writes: Vec<PendingWrite>,
    /// Where the last staged statement's writes start in `writes`.
    last: usize,
    /// Every touched table, first touch first, with the memtable bytes it
    /// may still take.
    headroom: Vec<(Arc<TableCore>, usize)>,
    /// Frame bytes of `writes`.
    wal_bytes: usize,
    /// Commit-log bytes the active segment could still take when the chunk
    /// started ([`CommitLog::room`]).
    wal_room: usize,
    full: bool,
    /// Present when statements read the old row (the caller holds the RMW
    /// lock): each base key staged so far → its write in `writes`, since a
    /// key repeated inside the chunk must see its own earlier row, which no
    /// memtable holds yet.
    staged: Option<HashMap<Vec<u8>, usize>>,
}

impl Chunk {
    fn new(wal_room: u64, reads_old: bool) -> Chunk {
        Chunk {
            writes: Vec::new(),
            last: 0,
            headroom: Vec::new(),
            wal_bytes: 0,
            wal_room: usize::try_from(wal_room).unwrap_or(usize::MAX),
            full: false,
            staged: reads_old.then(HashMap::new),
        }
    }

    /// The row the base table holds for `key` once this chunk commits, if
    /// a statement in it wrote `key` (`Some(None)`: a tombstone).
    fn staged_row(&self, key: &[u8]) -> Option<Option<&Row>> {
        let at = *self.staged.as_ref()?.get(key)?;
        Some(self.writes[at].row.as_ref())
    }

    /// Stages the base-table write of a statement whose postings are
    /// already in `writes` from `start` on: the WAL has always carried a row
    /// after its postings and a tombstone before them. Then charges the
    /// statement against the headrooms (a table met for the first time
    /// brings its own) and marks the chunk full if one ran out.
    fn stage(&mut self, start: usize, base: PendingWrite) {
        let at = if base.row.is_some() {
            self.writes.len()
        } else {
            start
        };
        // Only this statement's postings sit at or after `start`, and the
        // map holds base writes only: no recorded position moves.
        if let Some(staged) = &mut self.staged {
            staged.insert(base.key.clone(), at);
        }
        self.writes.insert(at, base);
        self.last = start;
        for w in &self.writes[start..] {
            let left = match self
                .headroom
                .iter()
                .position(|(t, _)| Arc::ptr_eq(t, &w.table))
            {
                Some(i) => &mut self.headroom[i].1,
                None => {
                    let room = w.table.flush_headroom();
                    self.headroom.push((Arc::clone(&w.table), room));
                    &mut self.headroom.last_mut().expect("just pushed").1
                }
            };
            let cost = w.key.len() + w.body_len + VERSION_COST;
            self.full |= cost >= *left;
            *left = left.saturating_sub(cost);
            self.wal_bytes += WalBatch::frame_len(w.table.qualified(), w.key.len(), w.body_len);
        }
        self.full |= self.wal_bytes >= self.wal_room;
    }

    /// The order statement-at-a-time commits would have run the flush
    /// checks in: the last statement's tables in its write order, then the
    /// rest (whose thresholds the chunk did not reach).
    fn flush_order(&self) -> Vec<Arc<TableCore>> {
        let mut order: Vec<Arc<TableCore>> = Vec::new();
        let last = self.writes[self.last..].iter().map(|w| &w.table);
        for table in last.chain(self.headroom.iter().map(|(t, _)| t)) {
            if !order.iter().any(|t| Arc::ptr_eq(t, table)) {
                order.push(Arc::clone(table));
            }
        }
        order
    }
}

impl DbCore {
    /// Commits a chunk of row mutations: one block of sequences, one WAL
    /// group append (durable before anything becomes visible), one GC
    /// floor, the memtable inserts, then the flush checks and WAL
    /// checkpoint. On a WAL error nothing was applied and the block
    /// completes unused, so the watermark never stalls.
    fn commit(&self, state: &EngineState, chunk: Chunk) -> Result<()> {
        if chunk.writes.is_empty() {
            return Ok(());
        }
        let flush_order = chunk.flush_order();
        let seqs = SeqGuard::new(&self.tracker, chunk.writes.len());
        let mut frames = WalBatch::with_capacity(chunk.wal_bytes);
        for (w, seq) in chunk.writes.iter().zip(seqs.seqs()) {
            frames.push(w.table.qualified(), &w.key, w.body_len, seq, |p| {
                if let Some(row) = &w.row {
                    row.encode(p, seq);
                }
            });
        }
        self.wal
            .append_group(frames)
            .map_err(WalError::into_nosql)?;
        let gc_floor = self.registry.gc_floor(&self.tracker);
        let stats = sc_obs::enabled();
        for (w, seq) in chunk.writes.into_iter().zip(seqs.seqs()) {
            if stats {
                let frame = WalBatch::frame_len(w.table.qualified(), w.key.len(), w.body_len);
                w.table.count_commitlog(frame);
            }
            let cost = w.key.len() + w.body_len + VERSION_COST;
            w.table.apply(w.key, w.row, seq, cost, gc_floor);
        }
        // Completing the sequences publishes the writes to the watermark.
        drop(seqs);
        let mut flushed = false;
        for table in &flush_order {
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
                .cores()
                .map(|t| t.wal_floor(&self.tracker))
                .min()
                .unwrap_or(0);
            self.wal.checkpoint(floor)?;
        }
        Ok(())
    }

    /// Commits `writes` as one chunk, whatever their number (an index
    /// backfill: the state write lock excludes every other statement).
    pub(super) fn commit_writes(
        &self,
        state: &EngineState,
        writes: Vec<PendingWrite>,
    ) -> Result<()> {
        let mut chunk = Chunk::new(u64::MAX, false);
        chunk.writes = writes;
        self.commit(state, chunk)
    }

    /// Runs `stage` on a fresh chunk of `handle`'s table and commits what
    /// it staged — also when it fails part-way, so the statements before
    /// the failure stay done, as one commit per statement leaves them —
    /// then reports the failure.
    ///
    /// The old row is read only when something depends on it — the table
    /// is indexed (the read-before-write that keeps postings consistent, a
    /// real cost of Cassandra-style secondary indexes) or the statement is
    /// an UPDATE (`reads_old`) — and then under the table's RMW lock, held
    /// through the commit, so the read observes every previous RMW's write.
    /// Everything else is a blind, lock-free write. A posting table refuses
    /// every statement (`verb`) before anything is staged.
    fn in_chunk(
        &self,
        state: &EngineState,
        handle: &TableHandle,
        verb: &str,
        reads_old: bool,
        stage: impl FnOnce(&mut Chunk) -> Result<()>,
    ) -> Result<()> {
        handle.writable(verb)?;
        let reads_old = reads_old || !handle.indexes.is_empty();
        let _rmw = reads_old.then(|| handle.core.rmw_lock());
        let mut chunk = Chunk::new(self.wal.plain().room(), reads_old);
        let staged = stage(&mut chunk);
        self.commit(state, chunk)?;
        staged
    }

    /// The one write routine. Every INSERT row, UPDATE and DELETE is: key →
    /// old row → new row or tombstone (`new_row`, `None` deletes) → posting
    /// diff → staged in `chunk` as one statement.
    fn write(
        &self,
        chunk: &mut Chunk,
        handle: &TableHandle,
        key: Vec<u8>,
        new_row: impl FnOnce(Option<&Row>) -> Option<Row>,
    ) -> Result<()> {
        let table = &handle.core;
        let old = match chunk.staged_row(&key) {
            Some(row) => row.cloned(),
            None if chunk.staged.is_some() => {
                let mut old = None;
                table.get([&key[..]], u64::MAX, None, &mut |_, row| old = Some(row))?;
                old
            }
            None => None,
        };
        let row = new_row(old.as_ref());
        let start = chunk.writes.len();
        for index in &handle.indexes {
            index.diff(&key, old.as_ref(), row.as_ref(), &mut chunk.writes);
        }
        chunk.stage(start, PendingWrite::new(Arc::clone(table), key, row));
        Ok(())
    }

    /// INSERT of `rows` into `keyspace.name`, each row's values bound to
    /// `columns` in order: the statement and [`Db::insert_rows`] alike (a
    /// statement is a batch of one). Rows commit in chunks (see [`Chunk`]);
    /// the engine-state lock and the table handle are taken per chunk, so
    /// DDL, TRUNCATE and `flush_all` interleave at chunk boundaries. A row
    /// that fails to bind is a typed error after every row before it has
    /// committed; no row after it is written. Returns the rows inserted.
    pub(super) fn insert_rows<C, R>(
        &self,
        keyspace: &str,
        name: &str,
        columns: &[C],
        rows: impl IntoIterator<Item = R>,
    ) -> Result<usize>
    where
        C: AsRef<str>,
        R: IntoIterator<Item = CqlValue>,
        R::IntoIter: ExactSizeIterator,
    {
        let mut rows = rows.into_iter().peekable();
        // Column positions, resolved once per batch, each on first use so
        // that a statement's errors come in its own left-to-right order.
        let mut positions: Vec<Option<usize>> = vec![None; columns.len()];
        let mut inserted = 0;
        loop {
            let state = self.read_state();
            let handle = state.get(keyspace, name)?;
            self.in_chunk(&state, handle, "INSERT", false, |chunk| {
                while !chunk.full {
                    let Some(values) = rows.next() else {
                        break;
                    };
                    let (key, row) = bind_row(&handle.def, columns, &mut positions, values)?;
                    self.write(chunk, handle, key, |_| Some(row))?;
                    inserted += 1;
                }
                Ok(())
            })?;
            if rows.peek().is_none() {
                return Ok(inserted);
            }
        }
    }

    /// [`Db::ingest_columns`]. The engine-state write lock is held from the
    /// checks to the attach, as DDL and `flush_all` hold it: no statement
    /// is in flight, so every write the live-key check could miss would
    /// commit after the ingest, above its block.
    pub(super) fn ingest_columns(
        &self,
        keyspace: &str,
        name: &str,
        columns: &[&str],
        cells: Vec<Vec<ValueRef<'_>>>,
    ) -> Result<usize> {
        let state = self.write_state();
        let handle = state.get(keyspace, name)?;
        let def = &handle.def;
        handle.writable("ingest")?;
        if !handle.indexes.is_empty() {
            return Err(NosqlError::Unsupported(format!(
                "ingest into {}, a table with secondary indexes; insert its rows",
                def.qualified_name()
            )));
        }
        let rows = cells.first().map_or(0, Vec::len);
        if cells.len() != columns.len() || cells.iter().any(|c| c.len() != rows) {
            return Err(NosqlError::Parse(format!(
                "ingest of {} columns needs as many columns of {rows} cells",
                columns.len()
            )));
        }
        let positions = (columns.iter().map(|c| def.column(c))).collect::<Result<Vec<_>>>()?;
        let mut table = vec![Vec::new(); def.columns.len()];
        for (&column, cells) in positions.iter().zip(cells) {
            table[column] = cells;
        }
        table
            .iter_mut()
            .for_each(|c| c.resize(rows, ValueRef::Null));
        // Column by column; of several refusals, the first in an INSERT's
        // order (row by row) is the one reported.
        let refused = |&c: &usize| table[c].iter().any(|&cell| def.check(c, cell).is_err());
        if positions.iter().any(refused) {
            let check_row = |row| {
                positions
                    .iter()
                    .try_for_each(|&c| def.check(c, table[c][row]))
            };
            (0..rows).try_for_each(check_row)?;
        }
        let (mut key_bytes, mut ends) = (Vec::with_capacity(rows * 8), Vec::with_capacity(rows));
        for &pk in &table[def.primary_key] {
            if pk.is_null() {
                return Err(NosqlError::MissingPrimaryKey(def.pk_column().name.clone()));
            }
            pk.put_key(&mut key_bytes);
            ends.push(key_bytes.len());
        }
        let starts = std::iter::once(0).chain(ends.iter().copied());
        let mut keys: Vec<&[u8]> = starts.zip(&ends).map(|(s, &e)| &key_bytes[s..e]).collect();
        let held = |table: &[Vec<ValueRef<'_>>], row: usize, what: &str| {
            NosqlError::AlreadyExists(format!(
                "row {} = {} of {}{what}",
                def.pk_column().name,
                table[def.primary_key][row].to_value(),
                def.qualified_name()
            ))
        };
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            let mut order: Vec<usize> = (0..rows).collect();
            order.sort_by_key(|&row| keys[row]);
            if let Some(w) = order.windows(2).find(|w| keys[w[0]] == keys[w[1]]) {
                return Err(held(&table, w[1], ", earlier in the ingested rows,"));
            }
            keys = order.iter().map(|&row| keys[row]).collect();
            for column in &mut table {
                *column = order.iter().map(|&row| column[row]).collect();
            }
        }
        if let Some(row) = handle.core.first_held(&keys)? {
            return Err(held(&table, row, ""));
        }
        if rows == 0 {
            return Ok(0);
        }
        let mut batch = ColumnBatch {
            keys,
            seqs: Vec::new(),
            live: vec![true; rows],
            columns: table,
        };
        handle.core.ingest(&mut batch, &self.tracker)?;
        if handle.core.needs_compaction() {
            self.schedule_compaction(&handle.core)?;
        }
        Ok(rows)
    }

    /// UPDATE and DELETE address one row, `WHERE <primary key> = <literal>`:
    /// the literal and the key it encodes to.
    fn key_filter<'a>(
        def: &TableDef,
        where_clause: &'a WhereClause,
        verb: &str,
    ) -> Result<(&'a CqlValue, Vec<u8>)> {
        let WhereClause::Eq { column, value } = where_clause else {
            return Err(NosqlError::Unsupported(format!(
                "{verb} requires an equality WHERE on the primary key"
            )));
        };
        if column != &def.pk_column().name {
            return Err(NosqlError::Unsupported(format!(
                "{verb} is by primary key ({})",
                def.pk_column().name
            )));
        }
        Ok((value, def.write_key(value)?))
    }

    /// Cassandra UPDATE semantics: an upsert — unassigned columns keep
    /// their existing values (or null for a fresh row). Reading them
    /// serializes on the table's RMW lock: concurrent UPDATEs to the same
    /// table never lose each other's column writes.
    pub(super) fn update(
        &self,
        state: &EngineState,
        handle: &TableHandle,
        assignments: &[(String, CqlValue)],
        where_clause: &WhereClause,
    ) -> Result<()> {
        let def = &handle.def;
        let (pk, key) = Self::key_filter(def, where_clause, "UPDATE")?;
        let mut sets = Vec::with_capacity(assignments.len());
        for (name, value) in assignments {
            let column = def.column(name)?;
            if column == def.primary_key {
                return Err(NosqlError::Unsupported(
                    "the primary key cannot be SET".into(),
                ));
            }
            def.check(column, value)?;
            sets.push((column, value));
        }
        self.in_chunk(state, handle, "UPDATE", true, |chunk| {
            self.write(chunk, handle, key, |old| {
                let mut values = match old {
                    Some(row) => row.values.clone(),
                    None => vec![CqlValue::Null; def.columns.len()],
                };
                values[def.primary_key] = pk.clone();
                for (column, value) in sets {
                    values[column] = value.clone();
                }
                Some(Row::new(values))
            })
        })
    }

    pub(super) fn delete(
        &self,
        state: &EngineState,
        handle: &TableHandle,
        where_clause: &WhereClause,
    ) -> Result<()> {
        let (_, key) = Self::key_filter(&handle.def, where_clause, "DELETE")?;
        self.in_chunk(state, handle, "DELETE", false, |chunk| {
            self.write(chunk, handle, key, |_| None)
        })
    }

    /// The SELECT statement entry point — `execute`, snapshots and
    /// `EXPLAIN` all come through here, and [`Db::get_rows`] hands the
    /// same planner and `run` the clauses its keys make, so semantics and
    /// plans can never diverge. Plans `stmt` against the table it names,
    /// then runs the operator pipeline at MVCC bound `bound` (build,
    /// drain); with no bound it is `EXPLAIN`, and the plan tree comes back
    /// as one `plan` text column with cost estimates, from statistics
    /// gathered for that statement alone.
    pub(super) fn select(
        &self,
        state: &EngineState,
        stmt: &Statement,
        session_keyspace: Option<&str>,
        bound: Option<u64>,
    ) -> Result<QueryResult> {
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
        let handle = state.table(table, session_keyspace)?;
        let plan = plan::plan(
            &handle.def,
            columns,
            where_clause,
            group_by,
            order_by.as_ref(),
            *limit,
        )?;
        let Some(bound) = bound else {
            let cache = self.cache.stats();
            let stats = plan::TableStats {
                rows: handle.core.estimate_rows(),
                sstables: handle.core.sstable_count(),
                cache_hit_rate: cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
            };
            let lines = plan::explain::result_rows(&plan, &handle.def, &stats);
            return Ok(QueryResult::new(vec!["plan".to_string()], lines));
        };
        run(handle, plan, bound)
    }

    /// [`Db::get_rows`]: `SELECT columns WHERE <primary key> IN (keys)`
    /// (`=` for one key), its clauses built from the values and planned
    /// and run as [`DbCore::select`] plans and runs a statement's.
    pub(super) fn get_rows<C: AsRef<str>>(
        &self,
        keyspace: &str,
        name: &str,
        columns: &[C],
        keys: impl IntoIterator<Item = CqlValue>,
    ) -> Result<QueryResult> {
        let state = self.read_state();
        let handle = state.get(keyspace, name)?;
        let pk = &handle.def.pk_column().name;
        let mut keys = keys.into_iter();
        let filter = match (keys.next(), keys.next()) {
            (Some(key), None) => WhereClause::eq(pk, key),
            (first, second) => {
                WhereClause::any_of(pk, first.into_iter().chain(second).chain(keys).collect())
            }
        };
        let columns = SelectColumns::named(columns.iter().map(AsRef::as_ref));
        let pin = ReadPin::new(&self.registry, &self.tracker);
        let plan = plan::plan(&handle.def, &columns, &[filter], &[], None, None)?;
        run(handle, plan, pin.seq())
    }
}

/// Executes `plan` over `handle`'s table at MVCC bound `bound`.
fn run(handle: &TableHandle, plan: plan::SelectPlan, bound: u64) -> Result<QueryResult> {
    let mut op = exec::build(plan.root, &handle.core, &handle.indexes, bound);
    let rows = exec::drain(op.as_mut())?;
    Ok(QueryResult::new(plan.columns, rows))
}

/// Binds one INSERT row: the values checked against their columns in
/// order, unbound columns null, the primary key encoded. `positions`
/// caches `columns` resolved through [`TableDef::column`].
fn bind_row<C, R>(
    def: &TableDef,
    columns: &[C],
    positions: &mut [Option<usize>],
    values: R,
) -> Result<(Vec<u8>, Row)>
where
    C: AsRef<str>,
    R: IntoIterator<Item = CqlValue>,
    R::IntoIter: ExactSizeIterator,
{
    let values = values.into_iter();
    if values.len() != columns.len() {
        return Err(NosqlError::Parse(format!(
            "INSERT binds {} columns but {} values",
            columns.len(),
            values.len()
        )));
    }
    let mut row = vec![CqlValue::Null; def.columns.len()];
    for ((name, position), value) in columns.iter().zip(positions.iter_mut()).zip(values) {
        let column = match *position {
            Some(column) => column,
            None => *position.insert(def.column(name.as_ref())?),
        };
        def.check(column, &value)?;
        row[column] = value;
    }
    let key = def.write_key(&row[def.primary_key])?;
    Ok((key, Row::new(row)))
}
