//! Per-column-family runtime: one ordered memtable + SSTables, flush and
//! compaction, all behind `&self`.
//!
//! `TableCore` is the concurrent successor of the old `TableRuntime`.
//! Writers insert into the memtable under its write lock; readers share
//! its read lock, walk it in key order, and take only a read guard on the
//! SSTable list. Point reads hold it across their batch's probes; a
//! `Cursor` clones the `Arc`s out of it and reads on, and a merged-away
//! SSTable deletes its file when the last clone drops.
//! Flush and compaction serialize on a per-table maintenance mutex and
//! never block reads except for the instant they swap the SSTable list.
//!
//! There are two kinds of read layer, the memtable and the SSTable list,
//! and every read takes them in that order — the direction data moves — so
//! a version a concurrent flush carries from one to the other is met at
//! least once.
//!
//! A flush copies before it removes: it peeks the committed versions out of
//! the memtable as one block, writes its records as a merge writes its
//! winners', attaches the SSTable, and only then drains the same versions
//! from the memtable. Readers therefore see every committed write at all
//! times, and a flush that fails has removed nothing; a version both
//! buffered and on disk is harmless because reads resolve by max sequence.
//!
//! An ingest is a flush without the memtable: once the engine has checked
//! that the table holds none of their keys, its sorted column batch takes
//! one block of sequences and goes through the same `publish` (write,
//! open, manifest, attach) as one new SSTable. A merge publishes through
//! it too, its output in place of the run it replaces.

use crate::cache::BlockCache;
use crate::colblock::{ColumnBatch, KeyRef, ScanBlock};
use crate::error::Result;
use crate::manifest::{Manifest, ManifestEdit};
use crate::memtable::Memtable;
use crate::mvcc::{SeqGuard, SeqTracker, SnapshotRegistry};
use crate::row::Row;
use crate::schema::TableDef;
use crate::sstable::{write_columns, Found, Probe, SsTable, SstIter};
use sc_storage::Vfs;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Flush/compaction tuning.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableOptions {
    /// Memtable bytes that trigger a flush.
    pub memtable_flush_bytes: usize,
    /// SSTable count that triggers a full compaction.
    pub compaction_threshold: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        Self {
            memtable_flush_bytes: 4 * 1024 * 1024,
            compaction_threshold: 8,
        }
    }
}

/// One key's read in [`TableCore::get`]: the winning version so far and
/// what finding it cost.
#[derive(Default)]
struct KeyRead {
    /// The row (`None` = tombstone) and its sequence.
    best: Option<(Option<Row>, u64)>,
    /// No older layer can hold a newer visible version.
    settled: bool,
    /// SSTables probed.
    sstables: u64,
    /// Data blocks read across those probes.
    blocks: u64,
}

impl KeyRead {
    /// Takes one SSTable's answer, newest table first.
    fn disk(&mut self, probe: Probe<Found>, bound: u64) {
        self.sstables += 1;
        self.blocks += probe.blocks_read;
        if let Some(found) = probe.entry.filter(|found| found.seq <= bound) {
            if self.best.as_ref().is_none_or(|(_, seq)| found.seq > *seq) {
                self.best = Some((found.row, found.seq));
            }
            self.settled = true;
        }
    }
}

/// One sorted input of a [`Cursor`]: its decoded blocks, in key order.
pub(crate) type Layer<'a> = Box<dyn Iterator<Item = Result<Rc<ScanBlock>>> + 'a>;

/// A layer being merged: the block being read and its next row.
struct Head<'a> {
    /// The layer's place in the list the cursor was made from.
    layer: usize,
    blocks: Layer<'a>,
    /// `None` before the first block and once the layer is exhausted.
    block: Option<Rc<ScanBlock>>,
    row: usize,
}

impl Head<'_> {
    /// Moves to the layer's next row that is visible at `bound` and under
    /// `prefix`, pulling blocks as needed. `false` once the layer is
    /// exhausted.
    fn settle(&mut self, bound: u64, prefix: Option<&[u8]>) -> Result<bool> {
        loop {
            if let Some(block) = &self.block {
                while self.row < block.len() {
                    if visible(block, self.row, bound, prefix) {
                        return Ok(true);
                    }
                    self.row += 1;
                }
            }
            self.block = None;
            self.row = 0;
            match self.blocks.next() {
                Some(block) => self.block = Some(block?),
                None => return Ok(false),
            }
        }
    }

    fn block(&self) -> &ScanBlock {
        self.block.as_ref().expect("a settled head has a block")
    }

    /// The settled row's key.
    fn key(&self) -> KeyRef<'_> {
        self.block().key_ref(self.row)
    }

    /// The settled row's key, then its sequence newest first: the merge
    /// order of versions.
    fn rank(&self) -> (KeyRef<'_>, std::cmp::Reverse<u64>) {
        (self.key(), std::cmp::Reverse(self.block().seq(self.row)))
    }
}

fn visible(block: &ScanBlock, row: usize, bound: u64, prefix: Option<&[u8]>) -> bool {
    block.seq(row) <= bound && prefix.is_none_or(|p| block.key(row).starts_with(p))
}

/// The one merge loop: a k-way merge over sorted layers under a single
/// rule — per key, the highest sequence at or below `bound` wins. It hands
/// out the winners in key order as runs of rows of one block
/// ([`Cursor::next_run`]); every read that is not a point probe, the
/// `CREATE INDEX` backfill and every compaction consume them.
pub(crate) struct Cursor<'a> {
    /// Settled heads in merge order: smallest key first, a key's newest
    /// version first. After a run the first is `stale`.
    heads: Vec<Head<'a>>,
    /// Layers not yet read: no block is read before the first run.
    unread: Vec<Layer<'a>>,
    /// The first head's rows up to its row were handed out; it settles
    /// and takes its place again on the next call.
    stale: bool,
    bound: u64,
    prefix: Option<Vec<u8>>,
    keep_tombstones: bool,
}

impl<'a> Cursor<'a> {
    /// Merges `layers` at `bound`, keeping only keys under `prefix`
    /// (`None` = all), and tombstones only when `keep_tombstones` is set.
    pub fn new(
        layers: Vec<Layer<'a>>,
        bound: u64,
        prefix: Option<&[u8]>,
        keep_tombstones: bool,
    ) -> Cursor<'a> {
        Cursor {
            heads: Vec::with_capacity(layers.len()),
            unread: layers,
            stale: false,
            bound,
            prefix: prefix.map(<[u8]>::to_vec),
            keep_tombstones,
        }
    }

    /// Settles head `i`, whose rank only grew, and moves it back to its
    /// place; an exhausted layer is dropped.
    fn resettle(&mut self, mut i: usize) -> Result<()> {
        if !self.heads[i].settle(self.bound, self.prefix.as_deref())? {
            drop(self.heads.remove(i));
            return Ok(());
        }
        while i + 1 < self.heads.len() && self.heads[i + 1].rank() <= self.heads[i].rank() {
            self.heads.swap(i, i + 1);
            i += 1;
        }
        Ok(())
    }

    /// Replaces `rows` with the next run of winners — at most `max`
    /// (>= 1), all rows of the returned block, which comes with its
    /// layer's place in the list the cursor was made from; `None` once the
    /// merge is done. A layer's blocks come in order, so a block
    /// interleaved with other layers' runs is its layer's latest. Blocks
    /// are read no further ahead than one row per layer. An error ends the
    /// merge.
    pub fn next_run(
        &mut self,
        rows: &mut Vec<u32>,
        max: usize,
    ) -> Result<Option<(usize, Rc<ScanBlock>)>> {
        let run = self.run(rows, max);
        if run.is_err() {
            self.heads.clear();
            self.unread.clear();
        }
        run
    }

    fn run(&mut self, rows: &mut Vec<u32>, max: usize) -> Result<Option<(usize, Rc<ScanBlock>)>> {
        rows.clear();
        if !self.unread.is_empty() {
            for (layer, blocks) in std::mem::take(&mut self.unread).into_iter().enumerate() {
                let mut head = Head {
                    layer,
                    blocks,
                    block: None,
                    row: 0,
                };
                if head.settle(self.bound, self.prefix.as_deref())? {
                    self.heads.push(head);
                }
            }
            self.heads.sort_by(|a, b| a.rank().cmp(&b.rank()));
        }
        loop {
            if std::mem::take(&mut self.stale) {
                self.resettle(0)?;
            }
            if self.heads.is_empty() {
                return Ok(None);
            }
            // The other layers' versions of the winner's key are shadowed.
            while self
                .heads
                .get(1)
                .is_some_and(|h| h.key() == self.heads[0].key())
            {
                self.heads[1].row += 1;
                self.resettle(1)?;
            }
            // The winner's rows run until the next layer's key.
            let (bound, prefix) = (self.bound, self.prefix.as_deref());
            let limit = self.heads.get(1).map(Head::key);
            let winner = &self.heads[0];
            let block = Rc::clone(winner.block.as_ref().expect("heads are settled"));
            let mut row = winner.row;
            loop {
                if self.keep_tombstones || block.is_live(row) {
                    rows.push(row as u32);
                }
                row += 1;
                while row < block.len() && !visible(&block, row, bound, prefix) {
                    row += 1;
                }
                let at_limit = || limit.is_some_and(|limit| block.key_ref(row) >= limit);
                if row == block.len() || rows.len() >= max || at_limit() {
                    break;
                }
            }
            self.heads[0].row = row;
            self.stale = true;
            if !rows.is_empty() {
                return Ok(Some((self.heads[0].layer, block)));
            }
        }
    }
}

/// One pending row mutation, bound for the WAL and its table's memtable.
pub(crate) struct PendingWrite {
    pub table: Arc<TableCore>,
    pub key: Vec<u8>,
    /// `None` writes a tombstone.
    pub row: Option<Row>,
    /// [`Row::encoded_len`] of `row`; 0 for a tombstone, whose body is
    /// empty.
    pub body_len: usize,
}

impl PendingWrite {
    pub fn new(table: Arc<TableCore>, key: Vec<u8>, row: Option<Row>) -> PendingWrite {
        let body_len = row.as_ref().map_or(0, Row::encoded_len);
        PendingWrite {
            table,
            key,
            row,
            body_len,
        }
    }
}

/// What one table's writes have cost since the engine opened it (or a
/// TRUNCATE replaced it): [`crate::Db::table_writes`]. Counted while
/// `sc-obs` recording is on, as it is by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableWrites {
    /// Versions applied to the memtable, commit-log replay included.
    pub memtable_puts: u64,
    /// Commit-log frame bytes those writes appended.
    pub commitlog_bytes: u64,
    /// Memtable flushes that wrote an SSTable.
    pub flushes: u64,
}

/// [`TableWrites`]' live counters.
#[derive(Debug, Default)]
struct WriteCounters {
    memtable_puts: AtomicU64,
    commitlog_bytes: AtomicU64,
    flushes: AtomicU64,
}

/// Runtime state of one column family. All methods take `&self`; the type
/// is `Send + Sync` and shared via `Arc` between sessions.
#[derive(Debug)]
pub(crate) struct TableCore {
    /// `keyspace.table`: this table's key in the manifest and the WAL.
    qualified: String,
    /// `keyspace/table/sst-`: what every SSTable file name starts with.
    sst_prefix: String,
    vfs: Vfs,
    manifest: Manifest,
    mem: Memtable,
    /// Open SSTables, oldest first.
    ssts: RwLock<Vec<Arc<SsTable>>>,
    next_sst_id: AtomicU64,
    /// Serializes flush and compaction for this table.
    maint: Mutex<()>,
    /// Boundary of the last successful flush: every WAL record of this
    /// table at or below it is covered by SSTables. Feeds the engine's
    /// commit-log checkpoint floor (see [`TableCore::wal_floor`]).
    wal_floor: AtomicU64,
    /// Serializes read-modify-write statements (UPDATE, and any write to an
    /// indexed table): the read half must observe every prior RMW's write.
    rmw: Mutex<()>,
    /// Set while a background compaction job for this table sits in the
    /// pool's queue; deduplicates scheduling (at most one queued job per
    /// table). Cleared by the worker *before* it runs, so a flush landing
    /// mid-compaction can re-queue.
    compact_queued: AtomicBool,
    /// Set when the engine drops the table (TRUNCATE, close): background
    /// maintenance landing afterwards becomes a no-op instead of writing
    /// files for a dead table.
    retired: AtomicBool,
    options: TableOptions,
    /// The engine-wide shared block cache every SSTable reads through.
    cache: BlockCache,
    writes: WriteCounters,
}

impl TableCore {
    /// Creates runtime state for a (new) table. `manifest` is the
    /// engine-wide SSTable manifest through which every flush and
    /// compaction publishes; `cache` is the engine-wide shared block cache.
    pub fn new(
        def: &TableDef,
        vfs: Vfs,
        manifest: Manifest,
        options: TableOptions,
        cache: BlockCache,
    ) -> TableCore {
        TableCore {
            qualified: def.qualified_name().to_string(),
            sst_prefix: format!("{}/{}/sst-", def.keyspace, def.name),
            vfs,
            manifest,
            mem: Memtable::new(),
            ssts: RwLock::new(Vec::new()),
            next_sst_id: AtomicU64::new(0),
            maint: Mutex::new(()),
            wal_floor: AtomicU64::new(0),
            rmw: Mutex::new(()),
            compact_queued: AtomicBool::new(false),
            retired: AtomicBool::new(false),
            options,
            cache,
            writes: WriteCounters::default(),
        }
    }

    /// `keyspace.table`, as the manifest and the WAL spell this table.
    pub fn qualified(&self) -> &str {
        &self.qualified
    }

    /// Takes this table's read-modify-write lock. Statements that read the
    /// current row before writing (UPDATE, index maintenance) hold it across
    /// the read *and* the commit so concurrent RMWs serialize.
    pub fn rmw_lock(&self) -> std::sync::MutexGuard<'_, ()> {
        self.rmw.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Applies a write to the memtable. The caller has already made the
    /// mutation durable (group-commit WAL) or is replaying the log.
    /// `gc_floor` gates version-chain pruning (see
    /// [`SnapshotRegistry::gc_floor`]).
    pub fn apply(&self, key: Vec<u8>, row: Option<Row>, seq: u64, cost: usize, gc_floor: u64) {
        if sc_obs::enabled() {
            crate::obs::nosql().memtable_puts.inc();
            self.writes.memtable_puts.fetch_add(1, Ordering::Relaxed);
        }
        crate::mvcc::perturb(31);
        self.mem.put(key, row, seq, cost, gc_floor);
    }

    /// Point reads of `keys`, strictly ascending, at MVCC bound `bound`:
    /// per key, the newest version with `seq <= bound` wins, wherever it
    /// lives. `found(i, row)` gets each key's live row in key order, `i`
    /// its index in `keys`; an absent or deleted key gets no call. A row
    /// from an SSTable holds only the columns in `proj` (`None` = all),
    /// the rest null; a memtable row is whole, so callers read only
    /// projected positions.
    ///
    /// A definitive memtable hit settles its key. The other keys go to the
    /// SSTables newest first, each table probed once for the keys still
    /// open ([`SsTable::probe_keys`]). Per-key sequences are monotone across
    /// the age order, so a key's first visible hit is its newest on disk
    /// and settles it, beating a memtable hit only with a higher sequence;
    /// a hit above `bound` is not yet visible, and an older table may still
    /// hold the visible version.
    pub fn get<'k, I>(
        &self,
        keys: I,
        bound: u64,
        proj: Option<&[usize]>,
        found: &mut dyn FnMut(usize, Row),
    ) -> Result<()>
    where
        I: IntoIterator<Item = &'k [u8]>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let keys = keys.into_iter();
        let stats = sc_obs::enabled();
        if stats {
            crate::obs::nosql().point_queries.add(keys.len() as u64);
        }
        crate::mvcc::perturb(32);
        // A point read keeps its one key's state on the stack.
        let mut one = [KeyRead::default()];
        let mut many = Vec::new();
        let reads: &mut [KeyRead] = match keys.len() {
            1 => &mut one,
            n => {
                many.resize_with(n, KeyRead::default);
                &mut many
            }
        };
        let mut settled = 0;
        self.mem.get_each(keys.clone(), bound, |i, hit| {
            // Definitive: the chain is complete above the hit, so nothing
            // newer can exist in an SSTable. Warm reads stay disk-free.
            reads[i].settled = hit.definitive;
            settled += usize::from(hit.definitive);
            reads[i].best = Some((hit.row, hit.seq));
        });
        if settled > 0 {
            sc_obs::trace::add(sc_obs::trace::Attr::MemtableHits, settled as u64);
        }
        if settled < keys.len() {
            self.probe_sstables(keys, reads, bound, proj)?;
        }
        let (mut sstables, mut blocks) = (0, 0);
        for (i, read) in reads.iter_mut().enumerate() {
            if stats {
                crate::obs::nosql().sstables_per_get.record(read.sstables);
                crate::obs::nosql().blocks_per_get.record(read.blocks);
            }
            sstables += read.sstables;
            blocks += read.blocks;
            if let Some((Some(row), _)) = read.best.take() {
                found(i, row);
            }
        }
        if sstables > 0 {
            sc_obs::trace::add(sc_obs::trace::Attr::SstableProbes, sstables);
            sc_obs::trace::add(sc_obs::trace::Attr::BlocksRead, blocks);
        }
        Ok(())
    }

    /// [`TableCore::get`]'s disk half: the SSTables newest first, each
    /// probed once for the keys `reads` still has open.
    fn probe_sstables<'k>(
        &self,
        mut keys: impl ExactSizeIterator<Item = &'k [u8]>,
        reads: &mut [KeyRead],
        bound: u64,
        proj: Option<&[usize]>,
    ) -> Result<()> {
        // Hold the read guard across every probe so compaction cannot
        // delete a file mid-lookup.
        let ssts = self.ssts.read().unwrap_or_else(|e| e.into_inner());
        // One stage for the whole disk-probe loop: its duration is the
        // statement's block-read time in the request trace.
        let _read_stage = (!ssts.is_empty()).then(|| sc_obs::trace::stage("nosql.block_read"));
        // The open keys, `(index, key)` in key order, are the first `len`;
        // a point read's one key stays on the stack.
        let mut one = [(0, &[][..])];
        let mut many = Vec::new();
        let open: &mut [(usize, &[u8])] = match keys.len() {
            1 => {
                one[0].1 = keys.next().expect("one key");
                &mut one
            }
            _ => {
                many.extend(keys.enumerate().filter(|&(i, _)| !reads[i].settled));
                &mut many
            }
        };
        let mut len = open.len();
        for sst in ssts.iter().rev() {
            if len == 0 {
                break;
            }
            sst.lookup(&open[..len], proj, &mut |j, probe| {
                reads[open[j].0].disk(probe, bound)
            })?;
            let mut kept = 0;
            for j in 0..len {
                if !reads[open[j].0].settled {
                    open[kept] = open[j];
                    kept += 1;
                }
            }
            len = kept;
        }
        Ok(())
    }

    /// Opens the table's merging cursor at `bound`: the newest visible
    /// version of every key starting with `prefix` (`None` = all), in key
    /// order, tombstones elided. SSTables decode only the columns in
    /// `proj` (`None` = all) and leave the rest null; the memtable's block
    /// is always complete, so callers must only look at projected
    /// positions.
    ///
    /// The layers are taken in [`TableCore::get`]'s order — see the module
    /// docs — and the cursor owns what it took, so it stays valid while
    /// flushes and compactions move on.
    pub fn cursor(
        &self,
        bound: u64,
        prefix: Option<&[u8]>,
        proj: Option<&[usize]>,
    ) -> Cursor<'static> {
        let mut layers: Vec<Layer> = Vec::new();
        if let Some(block) = self.mem.snapshot(bound, prefix) {
            layers.push(Box::new(std::iter::once(Ok(Rc::new(block)))));
        }
        crate::mvcc::perturb(37);
        let ssts = self.ssts.read().unwrap_or_else(|e| e.into_inner());
        for sst in ssts.iter() {
            layers.push(Box::new(SstIter::new(Arc::clone(sst), prefix, proj)));
        }
        Cursor::new(layers, bound, prefix, false)
    }

    /// Flushes committed memtable versions to a new SSTable. Blocks on the
    /// maintenance mutex (explicit flush).
    pub fn flush(&self, tracker: &SeqTracker, registry: &SnapshotRegistry) -> Result<()> {
        let guard = self.maint.lock().unwrap_or_else(|e| e.into_inner());
        self.flush_locked(&guard, tracker, registry)
    }

    /// Memtable bytes this table takes before [`TableCore::maybe_flush`]
    /// flushes it: a write whose cost reaches this is the one after which
    /// the flush runs.
    pub fn flush_headroom(&self) -> usize {
        self.options
            .memtable_flush_bytes
            .saturating_sub(self.mem.approx_bytes())
    }

    /// Threshold-triggered flush: skips silently when another flush or
    /// compaction is already running (that one will cover the data, or the
    /// next put re-triggers). Returns whether a flush ran, so the engine
    /// knows a WAL checkpoint may now pay off.
    pub fn maybe_flush(&self, tracker: &SeqTracker, registry: &SnapshotRegistry) -> Result<bool> {
        if self.mem.approx_bytes() < self.options.memtable_flush_bytes {
            return Ok(false);
        }
        let Ok(guard) = self.maint.try_lock() else {
            return Ok(false);
        };
        if self.mem.approx_bytes() < self.options.memtable_flush_bytes {
            return Ok(false);
        }
        self.flush_locked(&guard, tracker, registry)?;
        Ok(true)
    }

    /// The sequence at or below which every commit-log record of this
    /// table is redundant. With buffered writes that is the last flush
    /// boundary; an idle table (no memtable versions) reports the visible
    /// watermark instead so it never pins the engine-wide checkpoint floor
    /// at its last — possibly ancient — flush.
    ///
    /// Ordering matters for the idle fast path: the watermark is read
    /// *before* the emptiness check. Any record with a sequence at or
    /// below that watermark completed earlier, and the commit path applies
    /// to the memtable before completing — so at check time the version is
    /// either still buffered (non-empty, take the flushed floor) or was
    /// drained, and a flush drains only what its attached, manifest-listed
    /// SSTable already holds. Sequences still outstanding at the read are
    /// above the watermark and stay retained either way.
    pub fn wal_floor(&self, tracker: &SeqTracker) -> u64 {
        let flushed = self.wal_floor.load(Ordering::Acquire);
        let visible = tracker.visible();
        if self.mem.approx_bytes() == 0 {
            flushed.max(visible)
        } else {
            flushed
        }
    }

    fn flush_locked(
        &self,
        maint: &std::sync::MutexGuard<'_, ()>,
        tracker: &SeqTracker,
        registry: &SnapshotRegistry,
    ) -> Result<()> {
        let boundary = tracker.visible();
        let gc_floor = registry.gc_floor(tracker);
        crate::mvcc::perturb(33);
        let Some(block) = self.mem.peek_up_to(boundary) else {
            // Nothing at or below the boundary needs disk: every such
            // record is already flushed or shadowed, so the WAL prefix is
            // redundant and the floor may advance. Still sweep shadowed
            // versions so retained garbage cannot pin the byte counter
            // above the flush threshold forever.
            self.mem.gc(gc_floor);
            self.wal_floor.fetch_max(boundary, Ordering::AcqRel);
            return Ok(());
        };
        let mut span = crate::obs::nosql().flush.start();
        // Until the drain below, every peeked version is still in the
        // memtable: a failure on the way returns with nothing to restore.
        let write = |vfs: &Vfs, file: &str| {
            let records = (0..block.len()).map(|row| block.record(row));
            write_columns(vfs, file, &ColumnBatch::from_records(file, records)?)
        };
        span.add_bytes(self.publish(maint, self.sstable_count(), &[], write)?);
        if sc_obs::enabled() {
            self.writes.flushes.fetch_add(1, Ordering::Relaxed);
        }
        crate::mvcc::perturb(34);
        // Attached before drained: readers take the memtable first and the
        // SSTable list second, so they meet every version at least once.
        self.mem.drain_up_to(boundary, gc_floor);
        // Only now — SSTable durable and attached — are the WAL records at
        // or below the boundary redundant.
        self.wal_floor.fetch_max(boundary, Ordering::AcqRel);
        // Deliberately NO compaction here: running a multi-SSTable merge on
        // the committing session's thread stalled every put behind it. The
        // engine checks [`TableCore::needs_compaction`] after the flush and
        // either hands the table to the background pool or (with
        // `compaction_threads = 0`) compacts inline.
        Ok(())
    }

    /// Has `write` write this table's next SSTable and publishes it in
    /// place of `run`, the age-contiguous SSTables at `at..at + run.len()`,
    /// returning its size: the one way a flush, an ingest or a merge adds
    /// a file. A flush or an ingest replaces the empty run after the
    /// newest SSTable. One order for every file: write, open, manifest,
    /// attach. The manifest edit names the new file and retires the run's
    /// in one append, and the attach splices it where the run sat in age
    /// order. A crash before the commit leaves an orphan file that
    /// recovery deletes, never a published name without readable bytes;
    /// a failed open or commit deletes the file that was never published.
    /// The caller holds the maintenance lock.
    fn publish(
        &self,
        _maint: &std::sync::MutexGuard<'_, ()>,
        at: usize,
        run: &[Arc<SsTable>],
        write: impl FnOnce(&Vfs, &str) -> Result<()>,
    ) -> Result<u64> {
        let file = format!(
            "{}{:06}",
            self.sst_prefix,
            self.next_sst_id.fetch_add(1, Ordering::Relaxed)
        );
        write(&self.vfs, &file)?;
        let published = SsTable::open_with_cache(self.vfs.clone(), &file, self.cache.clone())
            .and_then(|sst| {
                let removes = run
                    .iter()
                    .map(|old| (self.qualified.clone(), old.file().to_string()))
                    .collect();
                self.manifest.commit(&ManifestEdit {
                    removes,
                    ..ManifestEdit::add(&self.qualified, &file)
                })?;
                Ok(sst)
            });
        let sst = match published {
            Ok(sst) => Arc::new(sst),
            Err(e) => {
                let _ = self.vfs.delete(&file);
                return Err(e);
            }
        };
        let size = sst.size();
        self.ssts
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .splice(at..at + run.len(), std::iter::once(sst));
        Ok(size)
    }

    /// Publishes `batch` — live rows, key-sorted, no key the table holds
    /// ([`TableCore::first_held`]) — as one SSTable, under the maintenance
    /// lock: one block of sequences from `tracker`, then a flush's order,
    /// write, open, manifest, attach. No row passes through the commit log or the
    /// memtable. The block completes only once the SSTable is attached, so
    /// a read pinned earlier sees none of the rows.
    pub fn ingest(&self, batch: &mut ColumnBatch<'_>, tracker: &SeqTracker) -> Result<()> {
        let maint = self.maint.lock().unwrap_or_else(|e| e.into_inner());
        let seqs = SeqGuard::new(tracker, batch.keys.len());
        batch.seqs = seqs.seqs().collect();
        let write = |vfs: &Vfs, file: &str| write_columns(vfs, file, batch);
        self.publish(&maint, self.sstable_count(), &[], write)
            .map(drop)
    }

    /// The first of `keys` (strictly ascending) this table holds: any
    /// version in the memtable — a tombstone too, since a memtable hit can
    /// end a point read before the SSTables are asked — or a live row in
    /// an SSTable. Only the keys inside the span of the SSTables' fences
    /// are read from disk, in one batched [`TableCore::get`]; a key inside
    /// the fences but absent is not held.
    pub fn first_held(&self, keys: &[&[u8]]) -> Result<Option<usize>> {
        let in_memtable = self.mem.first_held(keys);
        let (start, end) = {
            let ssts = self.ssts.read().unwrap_or_else(|e| e.into_inner());
            let fences = || ssts.iter().filter_map(|sst| sst.fences());
            match (
                fences().map(|(lo, _)| lo).min(),
                fences().map(|(_, hi)| hi).max(),
            ) {
                (Some(lo), Some(hi)) => (
                    keys.partition_point(|k| *k < lo),
                    keys.partition_point(|k| *k <= hi),
                ),
                _ => (0, 0),
            }
        };
        let mut on_disk = None;
        if start < end {
            let keys = keys[start..end].iter().copied();
            self.get(keys, u64::MAX, Some(&[]), &mut |i, _| {
                on_disk.get_or_insert(start + i);
            })?;
        }
        Ok(in_memtable.into_iter().chain(on_disk).min())
    }

    /// Counts `bytes` of commit-log frames against this table.
    pub fn count_commitlog(&self, bytes: usize) {
        self.writes
            .commitlog_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// [`TableWrites`] so far.
    pub fn writes(&self) -> TableWrites {
        let w = &self.writes;
        TableWrites {
            memtable_puts: w.memtable_puts.load(Ordering::Relaxed),
            commitlog_bytes: w.commitlog_bytes.load(Ordering::Relaxed),
            flushes: w.flushes.load(Ordering::Relaxed),
        }
    }

    /// Whether the SSTable count has reached the compaction threshold.
    pub fn needs_compaction(&self) -> bool {
        self.sstable_count() >= self.options.compaction_threshold
    }

    /// Claims this table's single background-queue slot. Returns `false`
    /// when a job is already queued (the scheduled run will see the new
    /// SSTable too).
    pub fn try_queue_compaction(&self) -> bool {
        !self.compact_queued.swap(true, Ordering::AcqRel)
    }

    /// Releases the queue slot (worker, just before running the job, so a
    /// flush landing mid-merge can re-queue).
    pub fn clear_compaction_queued(&self) {
        self.compact_queued.store(false, Ordering::Release);
    }

    /// Size-tiered compaction behind the maintenance lock — the background
    /// pool's entry point, also used inline when the pool is disabled. A
    /// no-op on a retired table.
    pub fn compact_tiered(&self, registry: &SnapshotRegistry) -> Result<()> {
        let maint = self.maint.lock().unwrap_or_else(|e| e.into_inner());
        if self.retired.load(Ordering::Acquire) {
            return Ok(());
        }
        self.compact_tiered_locked(&maint, registry)
    }

    /// Marks the table dead (TRUNCATE, close) and waits out any in-flight
    /// maintenance. Afterwards a queued background job finds the flag and
    /// returns without touching storage.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
        drop(self.maint.lock().unwrap_or_else(|e| e.into_inner()));
    }

    /// Size-tiered compaction (Cassandra's default strategy): merge an
    /// age-contiguous run of at least `compaction_threshold` SSTables whose
    /// sizes are within 4x of each other. Bounds write amplification to
    /// O(log n) rewrites per byte. Caller holds the maintenance lock.
    fn compact_tiered_locked(
        &self,
        maint: &std::sync::MutexGuard<'_, ()>,
        registry: &SnapshotRegistry,
    ) -> Result<()> {
        loop {
            let pick = {
                let ssts = self.ssts.read().unwrap_or_else(|e| e.into_inner());
                let n = ssts.len();
                let threshold = self.options.compaction_threshold.max(2);
                let mut pick: Option<(usize, usize)> = None;
                'outer: for start in 0..n {
                    let mut min = u64::MAX;
                    let mut max = 0u64;
                    for (end, sst) in ssts.iter().enumerate().skip(start) {
                        let size = sst.size().max(1);
                        min = min.min(size);
                        max = max.max(size);
                        if max > min.saturating_mul(4) {
                            break;
                        }
                        if end - start + 1 >= threshold {
                            pick = Some((start, end));
                            break 'outer;
                        }
                    }
                }
                pick
            };
            let Some((start, end)) = pick else {
                return Ok(());
            };
            if !self.merge_run(maint, start, end, registry)? {
                // Deferred for a pinned snapshot; retry on a later flush.
                return Ok(());
            }
        }
    }

    /// Merges the age-contiguous run `[start..=end]` of SSTables into one,
    /// preserving the run's position in the age order. Returns `false`
    /// (without merging) when a pinned snapshot still reads below the
    /// run's newest sequence: merging keeps only the newest version per
    /// key, which would destroy the older versions that snapshot needs.
    /// Pins taken *after* this check are safe — a new pin's bound is the
    /// current visible watermark, which no flushed sequence exceeds.
    fn merge_run(
        &self,
        maint: &std::sync::MutexGuard<'_, ()>,
        start: usize,
        end: usize,
        registry: &SnapshotRegistry,
    ) -> Result<bool> {
        let ssts = self.ssts.read().unwrap_or_else(|e| e.into_inner());
        let run: Vec<Arc<SsTable>> = ssts[start..=end].iter().map(Arc::clone).collect();
        drop(ssts);

        let mut span = crate::obs::nosql().compaction.start();
        if sc_obs::enabled() {
            let bytes_in: u64 = run.iter().map(|s| s.size()).sum();
            crate::obs::nosql().compaction_bytes_in.add(bytes_in);
        }
        // Tombstones can only be dropped when no older SSTable might hold a
        // shadowed live version.
        let drop_tombstones = start == 0;
        let layers = run
            .iter()
            .map(|sst| Box::new(SstIter::new(Arc::clone(sst), None, None)) as Layer)
            .collect();
        let mut merged = Cursor::new(layers, u64::MAX, None, true);
        // The winners in key order, each as its block's place in `blocks`
        // and its row there: the output's keys and cells borrow from
        // these blocks.
        let (mut blocks, mut rows, mut next) = (Vec::new(), Vec::new(), Vec::new());
        let mut max_ts = 0u64;
        while let Some((_, block)) = merged.next_run(&mut next, usize::MAX)? {
            for &row in &next {
                // Each key's winner carries its highest sequence, so this
                // is the run's newest sequence too.
                max_ts = max_ts.max(block.seq(row as usize));
                if !drop_tombstones || block.is_live(row as usize) {
                    rows.push((blocks.len() as u32, row));
                }
            }
            blocks.push(block);
        }
        if registry.min_pinned() < max_ts {
            return Ok(false);
        }
        if drop_tombstones {
            // A snapshot-retained version a past flush left behind in the
            // memtable (shadowed by a now-flushed newer sequence) is pruned
            // lazily; if its shadowing record here is a tombstone we are
            // about to drop, the stale version would become the newest for
            // its key and resurrect a deleted row. Purge those chains
            // eagerly before committing to the drop. `max_ts` is a valid
            // GC floor: `min_pinned() >= max_ts` was just checked, and the
            // visible watermark covers every flushed sequence.
            self.mem.gc(max_ts);
        }
        // One manifest append swaps the whole run atomically; only after
        // it is durable may the old files go — a crash in between leaves
        // them as orphans for recovery to sweep.
        let write = |vfs: &Vfs, file: &str| {
            let records = (rows.iter()).map(|&(at, row)| blocks[at as usize].record(row as usize));
            write_columns(vfs, file, &ColumnBatch::from_records(file, records)?)
        };
        let size = self.publish(maint, start, &run, write)?;
        span.add_bytes(size);
        if sc_obs::enabled() {
            crate::obs::nosql().compaction_bytes_out.add(size);
        }
        // A cursor opened before the swap may still be reading these: each
        // file goes when its last handle drops — here, in run order, unless
        // such a cursor outlives this call.
        for old in &run {
            old.mark_obsolete();
        }
        Ok(true)
    }

    /// Full compaction: merge every SSTable into one, newest version wins,
    /// tombstones dropped (full compaction may do so safely).
    pub fn compact(&self, registry: &SnapshotRegistry) -> Result<()> {
        let maint = self.maint.lock().unwrap_or_else(|e| e.into_inner());
        let n = self.sstable_count();
        if n <= 1 {
            return Ok(());
        }
        self.merge_run(&maint, 0, n - 1, registry)?;
        Ok(())
    }

    /// Reattaches an existing SSTable file (recovery). Files must be
    /// attached oldest-first — i.e. in the manifest's age order, which is
    /// *not* always name order: a tiered merge's output carries the largest
    /// id but sits mid-sequence in age.
    pub fn attach_sstable(&self, file: &str) -> Result<()> {
        let sst = Arc::new(SsTable::open_with_cache(
            self.vfs.clone(),
            file,
            self.cache.clone(),
        )?);
        let mut ssts = self.ssts.write().unwrap_or_else(|e| e.into_inner());
        ssts.push(sst);
        // Keep new flushes numbered after anything already on disk.
        self.reserve_sst_id(file);
        Ok(())
    }

    /// Keeps `next_sst_id` above `file`'s id when the file belongs to this
    /// table. Recovery calls this for manifest-listed *and* orphan files,
    /// so a crashed flush's or merge's id is never handed out again.
    pub fn reserve_sst_id(&self, file: &str) {
        if !file.starts_with(&self.sst_prefix) {
            return;
        }
        if let Some(num) = file.rsplit('-').next().and_then(|s| s.parse::<u64>().ok()) {
            self.next_sst_id.fetch_max(num + 1, Ordering::Relaxed);
        }
    }

    /// Largest sequence stored in this table's SSTables (recovery sets the
    /// tracker floor above it).
    pub fn max_disk_seq(&self) -> Result<u64> {
        let ssts = self.ssts.read().unwrap_or_else(|e| e.into_inner());
        let mut max = 0u64;
        for sst in ssts.iter() {
            // Keys and sequences only: no column is decoded.
            for block in SstIter::new(&**sst, None, Some(&[])) {
                let block = block?;
                max = (0..block.len()).fold(max, |max, row| max.max(block.seq(row)));
            }
        }
        Ok(max)
    }

    /// Newest on-disk sequence for `key`, if any SSTable holds it. Recovery
    /// uses this to skip WAL records that a flushed version already covers.
    pub fn newest_disk_seq(&self, key: &[u8]) -> Result<Option<u64>> {
        let ssts = self.ssts.read().unwrap_or_else(|e| e.into_inner());
        for sst in ssts.iter().rev() {
            // The sequence only: no column is decoded, no key copied.
            let mut seq = None;
            sst.lookup(&[(0, key)], Some(&[]), &mut |_, p| {
                seq = p.entry.map(|f| f.seq)
            })?;
            if seq.is_some() {
                return Ok(seq);
            }
        }
        Ok(None)
    }

    /// On-disk bytes of this table's SSTables (flush first for an accurate
    /// total — the engine's size API does).
    pub fn disk_size(&self) -> u64 {
        let ssts = self.ssts.read().unwrap_or_else(|e| e.into_inner());
        ssts.iter().map(|s| s.size()).sum()
    }

    /// Number of SSTables backing the table.
    pub fn sstable_count(&self) -> usize {
        self.ssts.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Estimated live row count: buffered memtable keys plus every
    /// SSTable's stored entry count. Overwrites and tombstones are counted
    /// once per layer they appear in, so this is an upper bound — enough
    /// for `EXPLAIN`'s cost estimates, the one reader.
    pub fn estimate_rows(&self) -> u64 {
        let buffered = self.mem.key_count() as u64;
        let ssts = self.ssts.read().unwrap_or_else(|e| e.into_inner());
        buffered + ssts.iter().map(|s| s.len() as u64).sum::<u64>()
    }

    /// The backing SSTable file names, oldest first.
    pub fn sstable_files(&self) -> Vec<String> {
        let ssts = self.ssts.read().unwrap_or_else(|e| e.into_inner());
        ssts.iter().map(|sst| sst.file().to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scan::MultiPointScan;
    use crate::schema::ColumnDef;
    use crate::sstable::{write_sstable, SstEntry};
    use crate::types::{CqlType, CqlValue};
    use sc_encoding::Rng;
    use std::collections::BTreeMap;

    fn def() -> TableDef {
        TableDef::new(
            "ks",
            "t",
            vec![
                ColumnDef {
                    name: "id".into(),
                    ty: CqlType::Int,
                },
                ColumnDef {
                    name: "v".into(),
                    ty: CqlType::Text,
                },
            ],
            "id",
        )
        .unwrap()
    }

    fn row(id: i64, v: &str) -> (Vec<u8>, Row) {
        let r = Row::new(vec![CqlValue::Int(id), CqlValue::Text(v.into())]);
        (CqlValue::Int(id).encode_key(), r)
    }

    fn small_options() -> TableOptions {
        TableOptions {
            memtable_flush_bytes: 256,
            compaction_threshold: 3,
        }
    }

    /// The winners `cursor` hands out in runs of at most `max` rows, as
    /// entries, one at a time: a run is read only once the last is used up.
    fn entries<'a>(
        mut cursor: Cursor<'a>,
        max: usize,
    ) -> impl Iterator<Item = Result<SstEntry>> + 'a {
        let mut block: Option<Rc<ScanBlock>> = None;
        let mut rows = Vec::new();
        let mut next = 0;
        std::iter::from_fn(move || loop {
            if let (Some(block), Some(&row)) = (&block, rows.get(next)) {
                next += 1;
                return Some(Ok(block.entry(row as usize)));
            }
            next = 0;
            match cursor.next_run(&mut rows, max) {
                Ok(run) => block = Some(run?.1),
                Err(e) => return Some(Err(e)),
            }
        })
    }

    /// One key's point read: the batch of one.
    fn get_at(table: &TableCore, key: &[u8], bound: u64) -> Option<Row> {
        let mut found = None;
        table
            .get([key], bound, None, &mut |_, row| found = Some(row))
            .unwrap();
        found
    }

    struct Harness {
        table: Arc<TableCore>,
        tracker: SeqTracker,
        registry: SnapshotRegistry,
    }

    impl Harness {
        fn new(vfs: Vfs, options: TableOptions) -> Harness {
            Harness {
                table: Arc::new(TableCore::new(
                    &def(),
                    vfs.clone(),
                    Manifest::open(vfs),
                    options,
                    BlockCache::new(crate::cache::DEFAULT_BLOCK_CACHE_BYTES),
                )),
                tracker: SeqTracker::new(),
                registry: SnapshotRegistry::new(),
            }
        }

        /// Write-path shape of the engine (inline-compaction mode): alloc,
        /// apply, complete, the flush threshold check, then the compaction
        /// threshold check the engine runs after a flush.
        fn put(&self, key: Vec<u8>, row: Option<Row>) {
            let seq = self.tracker.alloc(1);
            let cost = key.len() + 40;
            let gc_floor = self.registry.gc_floor(&self.tracker);
            self.table.apply(key, row, seq, cost, gc_floor);
            self.tracker.complete(seq);
            if self
                .table
                .maybe_flush(&self.tracker, &self.registry)
                .unwrap()
            {
                self.maybe_compact();
            }
        }

        fn get(&self, key: &[u8]) -> Option<Row> {
            get_at(&self.table, key, u64::MAX)
        }

        fn flush(&self) {
            self.table.flush(&self.tracker, &self.registry).unwrap();
            self.maybe_compact();
        }

        fn scan(&self) -> Vec<(Vec<u8>, Row)> {
            entries(self.table.cursor(u64::MAX, None, None), usize::MAX)
                .map(|e| e.map(|e| (e.key, e.row.expect("tombstones are elided"))))
                .collect::<Result<_>>()
                .unwrap()
        }

        /// The engine's post-flush hook with `compaction_threads = 0`.
        fn maybe_compact(&self) {
            if self.table.needs_compaction() {
                self.table.compact_tiered(&self.registry).unwrap();
            }
        }
    }

    /// A new SSTable is opened before the manifest names it: one that does
    /// not open is never published, and its file is deleted.
    #[test]
    fn an_unreadable_sstable_is_never_published() {
        let vfs = Vfs::memory();
        let h = Harness::new(vfs.clone(), small_options());
        let (key, r) = row(1, "a");
        h.put(key, Some(r));
        h.flush();
        let files = h.table.sstable_files();
        let maint = h.table.maint.lock().unwrap();
        let junk = |vfs: &Vfs, file: &str| Ok(vfs.append(file, b"not an sstable").map(drop)?);
        assert!(h.table.publish(&maint, 1, &[], junk).is_err());
        drop(maint);
        assert_eq!(h.table.sstable_files(), files);
        let catalog = Manifest::open(vfs.clone()).repair().unwrap();
        assert_eq!(catalog.tables["ks.t"], files);
        assert_eq!(vfs.list(&h.table.sst_prefix).unwrap(), files);
    }

    #[test]
    fn put_get_across_flushes() {
        let h = Harness::new(Vfs::memory(), small_options());
        for i in 0..50 {
            let (k, r) = row(i, &format!("v{i}"));
            h.put(k, Some(r));
        }
        assert!(
            h.table.sstable_count() >= 1,
            "small threshold must have flushed"
        );
        for i in 0..50 {
            let (k, r) = row(i, &format!("v{i}"));
            assert_eq!(h.get(&k), Some(r));
        }
        assert!(h.get(&CqlValue::Int(999).encode_key()).is_none());
    }

    #[test]
    fn newest_version_wins_after_flush() {
        let h = Harness::new(Vfs::memory(), small_options());
        let (k, r1) = row(1, "old");
        h.put(k.clone(), Some(r1));
        h.flush();
        let (_, r2) = row(1, "new");
        h.put(k.clone(), Some(r2.clone()));
        assert_eq!(h.get(&k), Some(r2.clone()));
        h.flush();
        assert_eq!(h.get(&k), Some(r2));
    }

    #[test]
    fn tombstone_hides_older_versions() {
        let h = Harness::new(Vfs::memory(), small_options());
        let (k, r) = row(1, "x");
        h.put(k.clone(), Some(r));
        h.flush();
        h.put(k.clone(), None);
        assert_eq!(h.get(&k), None);
        assert!(h.scan().is_empty());
    }

    #[test]
    fn compaction_reclaims_overwrites_and_tombstones() {
        let h = Harness::new(Vfs::memory(), small_options());
        for round in 0..3 {
            for i in 0..10 {
                let (k, r) = row(i, &format!("round{round}"));
                h.put(k, Some(r));
            }
            h.flush();
        }
        let (k_del, _) = row(0, "");
        h.put(k_del, None);
        h.flush();
        h.table.compact(&h.registry).unwrap();
        assert_eq!(h.table.sstable_count(), 1);
        let rows = h.scan();
        assert_eq!(rows.len(), 9, "id 0 deleted, 1..9 live");
        for (_, r) in rows {
            assert_eq!(r.values[1], CqlValue::Text("round2".into()));
        }
    }

    #[test]
    fn compaction_shrinks_disk() {
        let h = Harness::new(Vfs::memory(), small_options());
        for _round in 0..2 {
            for i in 0..20 {
                let (k, r) = row(i, "payload-payload-payload");
                h.put(k, Some(r));
            }
            h.flush();
        }
        let before = h.table.disk_size();
        h.table.compact(&h.registry).unwrap();
        let after = h.table.disk_size();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn tiered_compaction_bounds_sstable_count() {
        let h = Harness::new(Vfs::memory(), small_options());
        for i in 0..2000 {
            let (k, r) = row(i, &format!("value number {i}"));
            h.put(k, Some(r));
        }
        h.flush();
        // With ~50-byte rows and a 256-byte flush threshold this produced
        // hundreds of flushes; tiering must keep the live set logarithmic.
        assert!(
            h.table.sstable_count() <= 16,
            "tiering failed: {} sstables",
            h.table.sstable_count()
        );
        // And the data is intact.
        for i in (0..2000).step_by(97) {
            let (k, r) = row(i, &format!("value number {i}"));
            assert_eq!(h.get(&k), Some(r));
        }
    }

    #[test]
    fn tiered_compaction_preserves_newest_version_and_tombstones() {
        let h = Harness::new(Vfs::memory(), small_options());
        // Interleave overwrites and deletes across many flush cycles.
        for round in 0..20 {
            for i in 0..10 {
                let (k, r) = row(i, &format!("round {round}"));
                h.put(k, Some(r));
            }
            let (k_del, _) = row(round % 10, "");
            h.put(k_del, None);
            h.flush();
        }
        // Key (19 % 10)=9 was deleted in the final round, after its write.
        let (k9, _) = row(9, "");
        assert_eq!(h.get(&k9), None);
        // Other keys show the last round's value.
        let (k0, r0) = row(0, "round 19");
        assert_eq!(h.get(&k0), Some(r0));
    }

    #[test]
    fn tiered_merge_keeps_tombstones_full_compact_drops_them() {
        // Regression for the tombstone-drop rule in `merge_run`: a tiered
        // merge of a run that does NOT start at the oldest SSTable must keep
        // tombstones physically (an older table may still hold a shadowed
        // live version), while a full compaction may drop them.
        let vfs = Vfs::memory();
        let options = TableOptions {
            memtable_flush_bytes: 64 * 1024, // manual flushes only
            compaction_threshold: 3,
        };
        let h = Harness::new(vfs.clone(), options);
        // Oldest SSTable: key 1 live, plus bulk so it is >4x larger than
        // the later tables (keeps it out of their size tier).
        for i in 1..=30 {
            let (k, r) = row(i, "a long enough payload to fatten the oldest table");
            h.put(k, Some(r));
        }
        h.flush();
        // Three small young SSTables; the first deletes key 1.
        let (k1, _) = row(1, "");
        h.put(k1.clone(), None);
        h.flush();
        let (k41, r41) = row(41, "x");
        h.put(k41, Some(r41));
        h.flush();
        let (k42, r42) = row(42, "y");
        h.put(k42, Some(r42));
        h.flush();
        // The third young flush crossed the threshold, so flush() ran the
        // tiered compaction itself: the three young tables merged while the
        // oversized oldest stayed out of the run.
        assert_eq!(h.table.sstable_count(), 2);
        // The delete must still shadow the old live version...
        assert_eq!(h.get(&k1), None);
        // ...because the merged young table physically kept the tombstone.
        let files = {
            let mut f = vfs.list("ks/t/sst-").unwrap();
            f.sort();
            f
        };
        let young =
            crate::sstable::SsTable::open(vfs.clone(), files.last().unwrap().clone()).unwrap();
        let tombstone = young.get(&k1).unwrap().expect("tombstone entry present");
        assert_eq!(tombstone.row, None);
        // Full compaction covers the whole history, so the tombstone (and
        // the key) disappear from disk while the delete stays effective.
        h.table.compact(&h.registry).unwrap();
        assert_eq!(h.table.sstable_count(), 1);
        assert_eq!(h.get(&k1), None);
        let files = vfs.list("ks/t/sst-").unwrap();
        assert_eq!(files.len(), 1);
        let merged = crate::sstable::SsTable::open(vfs, files[0].clone()).unwrap();
        assert!(merged.get(&k1).unwrap().is_none(), "tombstone not dropped");
        assert!(merged.scan().unwrap().iter().all(|e| e.row.is_some()));
    }

    #[test]
    fn scan_merges_memtable_and_sstables_in_key_order() {
        let h = Harness::new(Vfs::memory(), small_options());
        let (k2, r2) = row(2, "b");
        h.put(k2, Some(r2));
        h.flush();
        let (k1, r1) = row(1, "a");
        h.put(k1, Some(r1));
        let rows = h.scan();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1.values[0], CqlValue::Int(1));
        assert_eq!(rows[1].1.values[0], CqlValue::Int(2));
    }

    #[test]
    fn snapshot_bound_reads_see_the_past_across_a_flush() {
        let h = Harness::new(
            Vfs::memory(),
            TableOptions {
                memtable_flush_bytes: 64 * 1024,
                compaction_threshold: 8,
            },
        );
        let (k, r1) = row(1, "v1");
        h.put(k.clone(), Some(r1.clone()));
        // Pin the current watermark like a Snapshot handle would.
        let pin = h.registry.pin_current(&h.tracker);
        let (_, r2) = row(1, "v2");
        h.put(k.clone(), Some(r2.clone()));
        h.flush();
        assert_eq!(h.get(&k), Some(r2), "unpinned reads see the new version");
        assert_eq!(
            get_at(&h.table, &k, pin),
            Some(r1),
            "the pinned bound still reads the old version after the flush"
        );
        h.registry.unpin(pin);
    }

    #[test]
    fn compaction_defers_while_a_snapshot_reads_below_it() {
        let vfs = Vfs::memory();
        let h = Harness::new(
            vfs,
            TableOptions {
                memtable_flush_bytes: 64 * 1024,
                compaction_threshold: 8,
            },
        );
        let (k, r1) = row(1, "old");
        h.put(k.clone(), Some(r1.clone()));
        h.flush();
        let pin = h.registry.pin_current(&h.tracker);
        let (_, r2) = row(1, "new");
        h.put(k.clone(), Some(r2.clone()));
        h.flush();
        assert_eq!(h.table.sstable_count(), 2);
        // The merge would keep only "new"; the pin still needs "old".
        h.table.compact(&h.registry).unwrap();
        assert_eq!(h.table.sstable_count(), 2, "merge deferred for the pin");
        assert_eq!(get_at(&h.table, &k, pin), Some(r1));
        h.registry.unpin(pin);
        h.table.compact(&h.registry).unwrap();
        assert_eq!(h.table.sstable_count(), 1, "merge proceeds once released");
        assert_eq!(h.get(&k), Some(r2));
    }

    #[test]
    fn compaction_tombstone_drop_purges_stale_memtable_versions() {
        // Resurrection hazard: a snapshot pins an old live version, a
        // delete shadows it, and the flush drains only the tombstone (the
        // "hole" case keeps the pinned version in the memtable). Once the
        // snapshot is gone, a tombstone-dropping compaction must purge that
        // stale memtable version too — otherwise it becomes the newest
        // version for the key and the deleted row comes back.
        let h = Harness::new(
            Vfs::memory(),
            TableOptions {
                memtable_flush_bytes: 64 * 1024,
                compaction_threshold: 8,
            },
        );
        let (k1, r1) = row(1, "live");
        h.put(k1.clone(), Some(r1));
        let pin = h.registry.pin_current(&h.tracker);
        h.put(k1.clone(), None);
        h.flush(); // SSTable 1: tombstone; pinned live version stays buffered
        let (k2, r2) = row(2, "other");
        h.put(k2.clone(), Some(r2.clone()));
        h.flush(); // SSTable 2, so compact() has a run to merge
        h.registry.unpin(pin);
        h.table.compact(&h.registry).unwrap();
        assert_eq!(h.get(&k1), None, "deleted row resurrected by compaction");
        let rows = h.scan();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, k2);
        assert_eq!(rows[0].1, r2);
    }

    #[test]
    fn a_point_read_never_serves_a_version_superseded_at_its_bound() {
        // The point-read twin of the test above, for the read that races
        // the merge: `get` looks at the memtable before the merge's purge
        // and at the SSTable list after its swap. The purged chain is put
        // back by hand to stand for what that read saw.
        let h = Harness::new(
            Vfs::memory(),
            TableOptions {
                memtable_flush_bytes: 64 * 1024,
                compaction_threshold: 8,
            },
        );
        let (k1, r1) = row(1, "live");
        h.put(k1.clone(), Some(r1.clone()));
        let pin = h.registry.pin_current(&h.tracker);
        h.put(k1.clone(), None);
        h.flush(); // SSTable 1: the tombstone; the pinned version stays buffered
        let (k2, r2) = row(2, "other");
        h.put(k2, Some(r2));
        h.flush();
        h.registry.unpin(pin);
        h.table.compact(&h.registry).unwrap(); // drops the tombstone, purges the chain
        h.table.mem.put(k1.clone(), Some(r1.clone()), pin, 48, 0);
        h.table.mem.put(k1.clone(), None, pin + 1, 48, 0);
        h.table.mem.drain_up_to(pin + 1, 0); // [live@pin, shadow pin + 1]

        assert_eq!(h.get(&k1), None, "deleted row resurrected by a point read");
        assert_eq!(h.scan().len(), 1, "the cursor agrees");
        assert_eq!(
            get_at(&h.table, &k1, pin),
            Some(r1),
            "below its shadow the retained version still answers"
        );
    }

    #[test]
    fn a_failed_flush_removes_nothing_and_the_next_one_succeeds() {
        let (vfs, handle) = Vfs::with_faults(Vfs::memory(), 0xF1A5);
        let h = Harness::new(
            vfs,
            TableOptions {
                memtable_flush_bytes: 64 * 1024,
                compaction_threshold: 8,
            },
        );
        let rows: Vec<(Vec<u8>, Row)> = (0..20).map(|i| row(i, &format!("v{i}"))).collect();
        for (k, r) in &rows {
            h.put(k.clone(), Some(r.clone()));
        }
        let check = |when: &str| {
            for (k, r) in &rows {
                assert_eq!(h.get(k).as_ref(), Some(r), "{when}: point read");
            }
            assert_eq!(h.scan(), rows, "{when}: cursor");
        };

        // The flush's first mutating operation is the SSTable append.
        handle.crash_at(handle.ops());
        let err = h.table.flush(&h.tracker, &h.registry).unwrap_err();
        assert!(
            matches!(
                err,
                crate::NosqlError::Storage(sc_storage::StorageError::Injected { .. })
            ),
            "{err:?}"
        );
        check("after the failed flush");
        assert_eq!(h.table.sstable_count(), 0);
        assert_eq!(h.table.wal_floor.load(Ordering::Acquire), 0);
        assert_eq!(h.table.wal_floor(&h.tracker), 0, "rows are still buffered");

        handle.disarm();
        h.flush();
        assert_eq!(h.table.sstable_count(), 1);
        assert_eq!(h.table.wal_floor(&h.tracker), h.tracker.visible());
        assert_eq!(h.table.mem.key_count(), 0);
        check("after the retry");
    }

    #[test]
    fn an_open_cursor_outlives_the_compaction_of_its_sstables() {
        let vfs = Vfs::memory();
        let options = TableOptions {
            memtable_flush_bytes: 1 << 20, // manual flushes only
            compaction_threshold: 8,
        };
        let h = Harness::new(vfs.clone(), options);
        // Three overlapping multi-block SSTables.
        for round in 0..3 {
            for i in 0..100 {
                let (k, r) = row(
                    i + round * 50,
                    &format!("round {round} {}", "x".repeat(100)),
                );
                h.put(k, Some(r));
            }
            h.flush();
        }
        let expected = h.scan();
        assert_eq!(expected.len(), 200);

        let mut cursor = entries(h.table.cursor(u64::MAX, None, None), usize::MAX);
        let mut got = vec![cursor.next().unwrap().unwrap()];
        h.table.compact(&h.registry).unwrap();
        assert_eq!(h.table.sstable_count(), 1);
        assert_eq!(
            vfs.list("ks/t/sst-").unwrap().len(),
            4,
            "the merged-away files live as long as the cursor reading them"
        );
        for e in cursor {
            got.push(e.unwrap());
        }
        let got: Vec<(Vec<u8>, Row)> = got.into_iter().map(|e| (e.key, e.row.unwrap())).collect();
        assert_eq!(got, expected);
        assert_eq!(
            vfs.list("ks/t/sst-").unwrap(),
            h.table.sstable_files(),
            "the last handle's drop deleted the inputs"
        );
    }

    /// One generated layer, sorted by key: about half of 120 keys in three
    /// prefix groups, a quarter of them tombstones, sequences drawn from
    /// the shared counter so later layers are newer. Some versions are
    /// also copied into `mem` (the flush overlap) and some land there
    /// *instead* (a snapshot-retained version whose successor flushed).
    fn layer(rng: &mut Rng, seq: &mut u64, mem: &mut Vec<SstEntry>) -> Vec<SstEntry> {
        let mut out = Vec::new();
        for id in 0..120u8 {
            if rng.gen_range(2) == 0 {
                continue;
            }
            *seq += 1;
            let e = SstEntry {
                key: vec![b'a' + id % 3, id],
                row: (rng.gen_range(4) != 0).then(|| {
                    Row::new(vec![
                        CqlValue::Int(id as i64),
                        CqlValue::Text(format!("{seq}-{}", "x".repeat(100))),
                    ])
                }),
                timestamp: *seq,
            };
            match rng.gen_range(8) {
                0 => mem.push(e),
                1 | 2 => {
                    mem.push(e.clone());
                    out.push(e);
                }
                _ => out.push(e),
            }
        }
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// The materialising scan the cursor replaced, kept as its reference:
    /// disk layers oldest to newest with plain overwrite, then the
    /// memtable's newest visible version per key by sequence comparison.
    fn scan_reference(
        disk: &[&Vec<SstEntry>],
        mem: &[SstEntry],
        bound: u64,
        prefix: Option<&[u8]>,
    ) -> Vec<SstEntry> {
        let visible =
            |e: &&SstEntry| e.timestamp <= bound && prefix.is_none_or(|p| e.key.starts_with(p));
        let mut seen: BTreeMap<Vec<u8>, SstEntry> = BTreeMap::new();
        for e in disk.iter().flat_map(|layer| layer.iter()).filter(visible) {
            seen.insert(e.key.clone(), e.clone());
        }
        let mut newest: BTreeMap<Vec<u8>, SstEntry> = BTreeMap::new();
        for e in mem.iter().filter(visible) {
            if newest.get(&e.key).is_none_or(|n| n.timestamp < e.timestamp) {
                newest.insert(e.key.clone(), e.clone());
            }
        }
        for (key, e) in newest {
            if seen.get(&key).is_none_or(|s| s.timestamp < e.timestamp) {
                seen.insert(key, e);
            }
        }
        seen.into_values().filter(|e| e.row.is_some()).collect()
    }

    /// The merge loop `merge_run` had before it read through the cursor.
    fn merge_reference(run: &[Vec<SstEntry>], drop_tombstones: bool) -> Vec<SstEntry> {
        let mut merged: BTreeMap<Vec<u8>, SstEntry> = BTreeMap::new();
        for e in run.iter().flatten() {
            merged.insert(e.key.clone(), e.clone());
        }
        merged
            .into_values()
            .filter(|e| !drop_tombstones || e.row.is_some())
            .collect()
    }

    /// Differential oracle for key batches. Four rounds of writes through
    /// the engine's write path — overwrites and tombstones in the later
    /// ones, three flushed to SSTables of several blocks, the last left in
    /// the memtable, snapshots pinned between them — then, at each pinned
    /// bound and the latest: one-key reads return the newest write at the
    /// bound, and batches of keys (repeats, absent keys inside and outside
    /// the fences, keys of several blocks) read what one-key reads do, in
    /// statement order, through the table and through the probing
    /// operator.
    #[test]
    fn key_batches_agree_with_one_key_reads() {
        for seed in 1..=12u64 {
            let mut rng = Rng::new(seed);
            let vfs = Vfs::memory();
            let options = TableOptions {
                memtable_flush_bytes: 1 << 30,
                compaction_threshold: 64,
            };
            let h = Harness::new(vfs.clone(), options);
            // Every write: key, row (`None` = tombstone), sequence.
            let mut log: Vec<(Vec<u8>, Option<Row>, u64)> = Vec::new();
            let mut bounds = Vec::new();
            for round in 0..4 {
                for id in 0..120 {
                    if rng.gen_bool(0.5) {
                        continue;
                    }
                    let text = format!("r{round}-{id}-{}", "x".repeat(200));
                    let (key, live) = row(id, &text);
                    let live = (round == 0 || !rng.gen_bool(0.3)).then_some(live);
                    h.put(key.clone(), live.clone());
                    log.push((key, live, h.tracker.visible()));
                }
                bounds.push(h.registry.pin_current(&h.tracker));
                if round < 3 {
                    h.flush();
                }
            }
            bounds.push(u64::MAX);
            assert_eq!(h.table.sstable_count(), 3);
            let sizes = vfs.list("ks/t/sst-").unwrap();
            let largest = sizes.iter().map(|f| vfs.len(f).unwrap()).max();
            assert!(largest > Some(2 * sc_encoding::BLOCK_TARGET_BYTES as u64));

            let mut candidates: Vec<Vec<u8>> = (0..120).map(|id| row(id, "").0).collect();
            // Absent keys outside the fences.
            candidates.extend([vec![], vec![0x00], CqlValue::Int(1 << 40).encode_key()]);
            let core = &h.table;
            for &bound in &bounds {
                for key in &candidates {
                    let newest = log
                        .iter()
                        .rev()
                        .find(|(k, _, seq)| k == key && *seq <= bound);
                    let want = newest.and_then(|(_, row, _)| row.clone());
                    assert_eq!(get_at(core, key, bound), want, "seed {seed} key {key:?}");
                }
                for _ in 0..12 {
                    let n = 1 + rng.gen_range(40) as usize;
                    let mut pick = || {
                        let at = rng.gen_range(candidates.len() as u64) as usize;
                        candidates[at].clone()
                    };
                    let batch: Vec<Vec<u8>> = (0..n).map(|_| pick()).collect();

                    let mut sorted = batch.clone();
                    sorted.sort();
                    sorted.dedup();
                    let mut got = Vec::new();
                    let keys = sorted.iter().map(Vec::as_slice);
                    core.get(keys, bound, None, &mut |i, row| got.push((i, row)))
                        .unwrap();
                    let want: Vec<(usize, Row)> = (sorted.iter().enumerate())
                        .filter_map(|(i, key)| Some((i, get_at(core, key, bound)?)))
                        .collect();
                    assert_eq!(got, want, "seed {seed} bound {bound}: table batch");

                    let name = "MultiPointScan";
                    let keys = batch.iter().map(Vec::as_slice).collect();
                    let mut op = MultiPointScan::new(Arc::clone(core), name, keys, bound, None);
                    let got = crate::exec::drain(&mut op).unwrap();
                    let mut want = Vec::new();
                    for (i, key) in batch.iter().enumerate() {
                        if !batch[..i].contains(key) {
                            want.extend(get_at(core, key, bound).map(|row| row.values));
                        }
                    }
                    assert_eq!(got, want, "seed {seed} bound {bound}: operator batch");
                }
            }
        }
    }

    /// Keys a newer layer settles may sit between keys still open in one
    /// block: each SSTable still reads that block once, for all of its
    /// open keys together.
    #[test]
    fn settled_keys_between_open_ones_share_one_block_read() {
        let options = TableOptions {
            memtable_flush_bytes: 1 << 30,
            compaction_threshold: 64,
        };
        let h = Harness::new(Vfs::memory(), options);
        let layer = |id: i64| match id % 4 {
            0 => "memtable",
            1 => "newer",
            _ => "older",
        };
        for id in 0..16 {
            let (key, row) = row(id, "older");
            h.put(key, Some(row));
        }
        h.flush();
        for round in ["newer", "memtable"] {
            for id in (0..16).filter(|&id| layer(id) == round) {
                let (key, row) = row(id, round);
                h.put(key, Some(row));
            }
            if round == "newer" {
                h.flush();
            }
        }
        assert_eq!(h.table.sstable_count(), 2);
        let keys: Vec<Vec<u8>> = (0..16).map(|id| row(id, "").0).collect();
        let reads = |h: &Harness| {
            let stats = h.table.cache.stats();
            stats.hits + stats.misses
        };
        let before = reads(&h);
        let mut got = Vec::new();
        h.table
            .get(
                keys.iter().map(Vec::as_slice),
                u64::MAX,
                None,
                &mut |_, row| got.push(row),
            )
            .unwrap();
        let want: Vec<Row> = (0..16).map(|id| row(id, layer(id)).1).collect();
        assert_eq!(got, want);
        assert_eq!(reads(&h) - before, 2, "one block read per SSTable");
    }

    #[test]
    fn cursor_and_merge_agree_with_the_materialising_references() {
        for seed in 1..=40u64 {
            let mut rng = Rng::new(seed);
            let vfs = Vfs::memory();
            let options = TableOptions {
                memtable_flush_bytes: 1 << 30,
                compaction_threshold: 64,
            };
            let h = Harness::new(vfs.clone(), options);
            let mut seq = 0u64;
            let mut mem = Vec::new();
            let ssts: Vec<Vec<SstEntry>> = (0..1 + rng.gen_range(6))
                .map(|i| {
                    let run = layer(&mut rng, &mut seq, &mut mem);
                    let file = format!("ks/t/sst-{i:06}");
                    write_sstable(&vfs, &file, &run).unwrap();
                    h.table.attach_sstable(&file).unwrap();
                    run
                })
                .collect();
            let newest = layer(&mut rng, &mut seq, &mut mem);
            mem.extend(newest);
            for e in &mem {
                // Floor 0 keeps every version, like a snapshot pinned at 0.
                h.table
                    .apply(e.key.clone(), e.row.clone(), e.timestamp, 64, 0);
            }

            let disk: Vec<&Vec<SstEntry>> = ssts.iter().collect();
            for bound in [0, seq / 3, seq / 2, seq - 1, u64::MAX] {
                for prefix in [
                    None,
                    Some(&b"a"[..]),
                    Some(b"b"),
                    Some(b"c\x08"),
                    Some(b"z"),
                ] {
                    let want = scan_reference(&disk, &mem, bound, prefix);
                    // Whole runs, as every caller takes them, and runs of one.
                    for max in [usize::MAX, 1] {
                        let got: Vec<SstEntry> = entries(h.table.cursor(bound, prefix, None), max)
                            .collect::<Result<_>>()
                            .unwrap();
                        assert_eq!(
                            got, want,
                            "seed {seed} bound {bound} prefix {prefix:?} max {max}"
                        );
                    }
                }
            }

            let start = rng.gen_range(ssts.len() as u64) as usize;
            let maint = h.table.maint.lock().unwrap();
            assert!(h
                .table
                .merge_run(&maint, start, ssts.len() - 1, &h.registry)
                .unwrap());
            drop(maint);
            let merged = Arc::clone(&h.table.ssts.read().unwrap()[start]);
            assert_eq!(h.table.sstable_count(), start + 1);
            let want = merge_reference(&ssts[start..], start == 0);
            assert_eq!(
                merged.scan().unwrap(),
                want,
                "seed {seed} merge from {start}"
            );
            let reference = Vfs::memory();
            write_sstable(&reference, "merged", &want).unwrap();
            assert_eq!(
                vfs.read_all(merged.file()).unwrap(),
                reference.read_all("merged").unwrap(),
                "seed {seed} merge from {start}: the bytes"
            );

            // The flush writes the versions it took as `write_sstable`
            // writes them.
            h.tracker.set_floor(seq);
            let block = h.table.mem.peek_up_to(seq).expect("versions to flush");
            let took: Vec<SstEntry> = (0..block.len()).map(|r| block.entry(r)).collect();
            h.table.flush(&h.tracker, &h.registry).unwrap();
            let flushed = Arc::clone(h.table.ssts.read().unwrap().last().unwrap());
            write_sstable(&reference, "flushed", &took).unwrap();
            assert_eq!(
                vfs.read_all(flushed.file()).unwrap(),
                reference.read_all("flushed").unwrap(),
                "seed {seed}: the flush's bytes"
            );
        }
    }
}
