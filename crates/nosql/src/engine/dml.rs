//! DML and SELECT: the commit of pending writes, the one write routine behind
//! INSERT, UPDATE and DELETE, and the one SELECT entry point.

use super::*;

impl DbCore {
    /// Commits a set of row mutations: one sequence per record, one WAL
    /// group append (durable before anything becomes visible), then the
    /// memtable inserts. On a WAL error nothing was applied and every
    /// allocated sequence completes unused, so the watermark never stalls.
    pub(super) fn commit_writes(
        &self,
        state: &EngineState,
        writes: Vec<PendingWrite>,
    ) -> Result<()> {
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
                table: w.table.qualified().to_string(),
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
                .cores()
                .map(|t| t.wal_floor(&self.tracker))
                .min()
                .unwrap_or(0);
            self.wal.checkpoint(floor)?;
        }
        Ok(())
    }

    /// The one write routine. Every INSERT, UPDATE and DELETE is: key →
    /// old row → new row or tombstone (`new_row`, `None` deletes) → posting
    /// diff → one [`DbCore::commit_writes`].
    ///
    /// The old row is read only when something depends on it — the table is
    /// indexed (the read-before-write that keeps postings consistent, a
    /// real cost of Cassandra-style secondary indexes) or the statement is
    /// an UPDATE (`reads_old`) — and then under the table's RMW lock, held
    /// through the commit, so the read observes every previous RMW's write.
    /// Everything else is a blind, lock-free write.
    fn write(
        &self,
        state: &EngineState,
        handle: &TableHandle,
        key: Vec<u8>,
        reads_old: bool,
        new_row: impl FnOnce(Option<&Row>) -> Option<Row>,
    ) -> Result<()> {
        let table = &handle.core;
        let rmw = (reads_old || !handle.indexes.is_empty()).then(|| table.rmw_lock());
        let old = match &rmw {
            Some(_) => table.get(&key, u64::MAX)?,
            None => None,
        };
        let row = new_row(old.as_ref());
        let mut writes = Vec::with_capacity(1);
        for index in &handle.indexes {
            index.diff(&key, old.as_ref(), row.as_ref(), &mut writes);
        }
        // The WAL has always carried a row after its postings and a
        // tombstone before them.
        let at = if row.is_some() { writes.len() } else { 0 };
        let table = Arc::clone(table);
        writes.insert(at, PendingWrite { table, key, row });
        self.commit_writes(state, writes)
    }

    pub(super) fn insert(
        &self,
        state: &EngineState,
        handle: &TableHandle,
        columns: &[String],
        values: &[CqlValue],
    ) -> Result<()> {
        let def = &handle.def;
        if columns.len() != values.len() {
            return Err(NosqlError::Parse(format!(
                "INSERT binds {} columns but {} values",
                columns.len(),
                values.len()
            )));
        }
        // Assemble the full row (unbound columns become null).
        let mut row = vec![CqlValue::Null; def.columns.len()];
        for (name, value) in columns.iter().zip(values) {
            let column = def.column(name)?;
            def.check(column, value)?;
            row[column] = value.clone();
        }
        let key = def.write_key(&row[def.primary_key])?;
        self.write(state, handle, key, false, |_| Some(Row::new(row)))
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
        self.write(state, handle, key, true, |old| {
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
    }

    pub(super) fn delete(
        &self,
        state: &EngineState,
        handle: &TableHandle,
        where_clause: &WhereClause,
    ) -> Result<()> {
        let (_, key) = Self::key_filter(&handle.def, where_clause, "DELETE")?;
        self.write(state, handle, key, false, |_| None)
    }

    /// The only SELECT entry point — `execute`, snapshots and `EXPLAIN` all
    /// come through here, so semantics and plans can never diverge. Plans
    /// `stmt` against the table it names, then runs the operator pipeline
    /// at MVCC bound `bound` (build, drain); with no bound it is `EXPLAIN`,
    /// and the plan tree comes back as one `plan` text column, cost
    /// estimates included.
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
        // The cost model's statistics come from structures the engine
        // already maintains: no extra bookkeeping on any hot path.
        let cache = self.cache.stats();
        let lookups = (cache.hits + cache.misses).max(1);
        let stats = plan::TableStats {
            rows: handle.core.estimate_rows(),
            sstables: handle.core.sstable_count(),
            cache_hit_rate: cache.hits as f64 / lookups as f64,
        };
        let plan = plan::plan_select(
            &handle.def,
            columns,
            where_clause,
            group_by,
            order_by.as_ref(),
            *limit,
            &stats,
        )?;
        let Some(bound) = bound else {
            let lines = plan::explain::result_rows(&plan);
            return Ok(QueryResult::new(vec!["plan".to_string()], lines));
        };
        let mut op = exec::build(plan.root, &handle.core, &handle.indexes, bound);
        let rows = exec::drain(op.as_mut())?;
        Ok(QueryResult::new(plan.columns, rows))
    }
}
