//! Opening an engine and crash recovery: the manifest and the commit log
//! read back, then every table and index registered, SSTables attached,
//! orphans swept and the commit log replayed.

use super::*;

impl DbCore {
    pub(super) fn open(options: OpenOptions) -> Result<DbCore> {
        let vfs = options.vfs.unwrap_or_else(Vfs::memory);
        let manifest = Manifest::open(vfs.clone());
        let mut log = CommitLog::open(vfs.clone(), COMMIT_LOG);
        if let Some(bytes) = options.wal_segment_bytes {
            log = log.with_segment_bytes(bytes);
        }
        let core = DbCore {
            vfs,
            manifest,
            state: RwLock::new(EngineState::default()),
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
        core.recover_state()?;
        Ok(core)
    }

    /// Crash recovery: rebuild registry and runtimes from the two logs,
    /// repairing every torn tail and sweeping unpublished files, so that the
    /// reopened engine contains exactly the acknowledged writes (plus,
    /// possibly, the one in-flight write the crash interrupted after its
    /// WAL frame became durable).
    ///
    /// Both logs are read back before anything is attached or deleted, so a
    /// corrupt frame in either fails the open with every file left as it
    /// was. Every table and index is registered before any SSTable is
    /// attached, so a `CREATE INDEX` backfill runs over empty tables.
    fn recover_state(&self) -> Result<()> {
        let _span = crate::obs::nosql().recovery.start();
        let mut state = self.write_state();
        let catalog = self.manifest.repair()?;
        let records = self.wal.plain().repair()?;
        for cql in &catalog.ddl {
            self.apply_ddl(&mut state, &parse_statement(cql)?, None, false)?;
        }
        // The manifest and the WAL name tables by their qualified name.
        let tables: HashMap<&str, &Arc<TableCore>> =
            state.cores().map(|t| (t.qualified(), t)).collect();
        for (qualified, files) in &catalog.tables {
            if let Some(table) = tables.get(qualified.as_str()) {
                // Manifest order is age order — not name order, because a
                // tiered merge's output sits mid-sequence in age.
                for file in files {
                    table.attach_sstable(file)?;
                }
            }
        }
        self.sweep_orphans(&state, &catalog.tables)?;
        if sc_obs::enabled() {
            crate::obs::nosql()
                .replayed_records
                .add(records.len() as u64);
        }
        let mut max_seq = 0;
        for record in records {
            max_seq = max_seq.max(record.timestamp);
            if let Some(table) = tables.get(record.table.as_str()) {
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
        for table in state.cores() {
            max_seq = max_seq.max(table.max_disk_seq()?);
        }
        self.tracker.set_floor(max_seq);
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
                for table in state.cores() {
                    table.reserve_sst_id(&file);
                }
                self.vfs.delete(&file)?;
            }
        }
        Ok(())
    }
}
