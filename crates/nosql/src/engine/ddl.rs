//! DDL and TRUNCATE: everything that changes the table registry, under the
//! state write lock. DDL is recorded in the manifest, beside the SSTable
//! edits; recovery registers every table and index from those records.

use super::*;

impl DbCore {
    /// Applies one DDL statement to the registry and, when `journal` is
    /// set, records it in the manifest — fully qualified, since recovery
    /// has no session: an unqualified target is resolved into a copy of the
    /// statement first.
    pub(super) fn apply_ddl(
        &self,
        state: &mut EngineState,
        stmt: &Statement,
        session_keyspace: Option<&str>,
        journal: bool,
    ) -> Result<()> {
        let mut resolved = stmt.clone();
        if let Statement::CreateTable { table, .. } | Statement::CreateIndex { table, .. } =
            &mut resolved
        {
            table.keyspace = resolve_keyspace(table, session_keyspace)?.to_string();
        }
        match &resolved {
            Statement::CreateKeyspace { name } => {
                if state.keyspaces.contains_key(name) {
                    return Err(NosqlError::AlreadyExists(format!("keyspace {name:?}")));
                }
                state.keyspaces.insert(name.clone(), Keyspace::new());
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
                self.add_table(state, def, false)?;
            }
            Statement::CreateIndex { table, column } => {
                self.create_index(state, table, column)?;
            }
            _ => return Err(NosqlError::Corrupt("not a DDL statement".into())),
        }
        if journal {
            self.manifest.commit_ddl(&resolved.to_cql())?;
        }
        Ok(())
    }

    /// Registers `def` with a fresh runtime, which it returns; `posting`
    /// marks an index's hidden posting table.
    fn add_table(
        &self,
        state: &mut EngineState,
        def: TableDef,
        posting: bool,
    ) -> Result<Arc<TableCore>> {
        let tables = state.keyspace_mut(&def.keyspace)?;
        if tables.contains_key(&def.name) {
            return Err(NosqlError::AlreadyExists(format!(
                "table {}",
                def.qualified_name()
            )));
        }
        let core = Arc::new(TableCore::new(
            &def,
            self.vfs.clone(),
            self.manifest.clone(),
            self.table_options,
            self.cache.clone(),
        ));
        let handle = TableHandle {
            core: Arc::clone(&core),
            indexes: Vec::new(),
            def,
            posting,
        };
        tables.insert(handle.def.name.clone(), handle);
        Ok(core)
    }

    /// Registers the hidden posting table of an index on `column` of
    /// `keyspace.table` and attaches the index to the base table.
    fn add_index(
        &self,
        state: &mut EngineState,
        keyspace: &str,
        table: &str,
        column: &str,
    ) -> Result<Index> {
        let base = &state.get(keyspace, table)?.def;
        let (position, hidden) = index::hidden_def(base, column)?;
        let pk = base.primary_key;
        let index = Index::new(position, pk, self.add_table(state, hidden, true)?);
        state
            .keyspace_mut(keyspace)?
            .get_mut(table)
            .ok_or_else(|| unknown_table(keyspace, table))?
            .attach(index.clone());
        Ok(index)
    }

    fn create_index(&self, state: &mut EngineState, table: &TableRef, column: &str) -> Result<()> {
        let index = self.add_index(state, &table.keyspace, &table.table, column)?;
        // Backfill: the posting diff from "no row" for every row already
        // present. The state write lock excludes every concurrent
        // statement, so reading at the top bound is exact.
        let mut rows = state.table(table, None)?.core.cursor(u64::MAX, None, None);
        let (mut writes, mut run) = (Vec::new(), Vec::new());
        while let Some((_, block)) = rows.next_run(&mut run, usize::MAX)? {
            for &at in &run {
                let (key, _, cells) = block.record(at as usize);
                let row = cells.map(|cells| Row::new(cells.map(ValueRef::to_value).collect()));
                index.diff(key, None, row.as_ref(), &mut writes);
            }
        }
        self.commit_writes(state, writes)
    }

    pub(super) fn truncate(
        &self,
        state: &mut EngineState,
        table: &TableRef,
        session_keyspace: Option<&str>,
    ) -> Result<()> {
        let handle = state.table(table, session_keyspace)?;
        handle.writable("TRUNCATE")?;
        let mut def = handle.def.clone();
        let indexed = std::mem::take(&mut def.indexed_columns);
        let names: Vec<String> = std::iter::once(def.name.clone())
            .chain(indexed.iter().map(|c| index::hidden_name(&def.name, c)))
            .collect();
        // Checkpoint before touching the manifest: the WAL still holds this
        // table's pre-truncate mutations, and recovery would replay them
        // into the rebuilt (empty) runtime, resurrecting truncated data.
        // Flushing everything and truncating the log removes them; the
        // caller holds the state write lock, so no statement is in flight
        // and the truncated WAL loses nothing. A crash anywhere inside the
        // truncate is safe — the TRUNCATE was not yet acknowledged, so both
        // "applied" and "not applied" are legal recovery outcomes.
        self.checkpoint_all_locked(state)?;
        for name in &names {
            let old = state.get(&def.keyspace, name)?;
            // A background compaction job may still hold the old runtime:
            // retire it first, which waits out any in-flight merge and
            // turns later jobs into no-ops, so nothing re-publishes the
            // files this TRUNCATE is about to delete.
            old.core.retire();
            // Retire the files from the manifest first (one atomic record):
            // a crash mid-delete then leaves orphans for recovery to sweep,
            // never a manifest pointing at half-deleted tables.
            let files = old.core.sstable_files();
            self.manifest.commit(&ManifestEdit {
                adds: Vec::new(),
                removes: files
                    .iter()
                    .map(|f| (old.core.qualified().to_string(), f.clone()))
                    .collect(),
            })?;
            for f in &files {
                self.cache.evict_file(f);
                self.vfs.delete(f)?;
            }
        }
        // Rebuild through the constructors DDL uses: same definitions,
        // fresh runtimes.
        let tables = state.keyspace_mut(&def.keyspace)?;
        for name in &names {
            tables.remove(name);
        }
        let (keyspace, table) = (def.keyspace.clone(), def.name.clone());
        self.add_table(state, def, false)?;
        for column in &indexed {
            self.add_index(state, &keyspace, &table, column)?;
        }
        Ok(())
    }
}
