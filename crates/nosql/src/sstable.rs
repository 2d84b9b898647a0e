//! SSTables: immutable sorted string tables flushed from memtables.
//!
//! One on-disk format (magic `STB3`, DESIGN.md §5f) and one writer, which
//! takes a sorted column batch: an ingest fills one from its columns, and
//! [`write_sstable`] transposes a flush's or a merge's [`SstEntry`]s (key,
//! typed row or tombstone, sequence) into one. Readers hand back entries.
//!
//! ```text
//! [ data blocks... ][ meta ][ footer ]
//! block : ~4 KiB of records stored column-major (see [`crate::colblock`])
//! meta  : entry count, min/max key fences, bloom filter, then per block:
//!         first key, offset, len, crc32, record count
//! footer: meta_offset(u64) meta_len(u64) meta_crc(u32) magic(u32)
//! ```
//!
//! Only the meta region is resident after open — a sparse index entry per
//! *block* plus ~10 filter bits per key. Point misses are answered by the
//! key fences and the bloom filter without touching a data block. Probes
//! come as a sorted batch of keys ([`SsTable::probe_keys`]; a point read
//! is the batch of one): the keys that pass the fences and the filter are
//! grouped by the block the index gives them, and each block is read
//! once, CRC-verified, optionally through the engine's shared
//! [`BlockCache`], and walked once for its keys (`colblock::find_rows`):
//! the key run is merged with them in place and only the hits' cells are
//! built, while every run is still validated.
//! Everything else reads through `SstIter`, which hands a table's cursor
//! one decoded column block at a time, seeks through the block index for
//! a key prefix and decodes only the column chunks its caller needs;
//! [`SsTable::iter`] builds entries from that same cursor.
//!
//! Every decoded geometry field is validated at open (checked arithmetic,
//! monotone offsets, bounded allocations), so a corrupt or truncated file
//! surfaces as [`NosqlError::Corrupt`], never a panic.

use crate::cache::BlockCache;
use crate::colblock::{self, BlockWriter, ColumnBatch, ScanBlock};
use crate::error::{NosqlError, Result};
use crate::row::Row;
use crate::table::Cursor;
use sc_encoding::{Bloom, Crc32, Decoder, Encoder, BLOCK_TARGET_BYTES};
use sc_storage::Vfs;
use std::ops::{Deref, Range};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const MAGIC: u32 = 0x5354_4233; // "STB3"
const FOOTER_LEN: u64 = 24;

/// One record offered to the writer / returned by readers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SstEntry {
    /// Encoded partition key.
    pub key: Vec<u8>,
    /// The row; `None` = tombstone.
    pub row: Option<Row>,
    /// Write sequence.
    pub timestamp: u64,
}

/// What one point lookup did: the entry (if any) plus which read-path tier
/// answered it. Feeds the `nosql.bloom.*` metrics, the blocks-per-get
/// histogram and the filter-effectiveness tests. `E` is what a hit
/// carries: the entry, or, for a reader that holds the key already, the
/// stored version alone (`Found`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe<E = SstEntry> {
    /// The entry, if the key is present (tombstones included).
    pub entry: Option<E>,
    /// Data blocks read to answer. A block read for several keys of one
    /// batch counts on one of them.
    pub blocks_read: u64,
    /// The min/max key fences ruled the key out.
    pub fence_rejected: bool,
    /// The bloom filter ruled the key out.
    pub filter_rejected: bool,
}

impl<E> Probe<E> {
    fn absent(fence: bool, filter: bool) -> Probe<E> {
        Probe {
            entry: None,
            blocks_read: 0,
            fence_rejected: fence,
            filter_rejected: filter,
        }
    }
}

/// A stored version of a key its reader holds already: the sequence and
/// the row (`None` = tombstone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Found {
    pub seq: u64,
    pub row: Option<Row>,
}

/// Writes a sorted run of entries as one SSTable file, each block's
/// entries put column by column into one reused batch (`colblock`'s) for
/// the one block writer. Unsorted input, or live rows of differing column
/// count inside one block, is [`NosqlError::Corrupt`] and writes nothing.
pub fn write_sstable(vfs: &Vfs, file: &str, entries: &[SstEntry]) -> Result<()> {
    ensure_sorted(file, entries.iter().map(|e| e.key.as_slice()))?;
    let body = |e: &SstEntry| e.row.as_ref().map_or(0, Row::encoded_len);
    let mut table = TableWriter::new(entries.len());
    let mut batch = ColumnBatch::default();
    for rows in cuts(entries.iter().map(|e| e.key.len() + body(e))) {
        batch.fill(file, &entries[rows])?;
        let live = batch.columns.first().map_or(0, Vec::len);
        table.block(&batch, 0..batch.keys.len(), 0..live);
    }
    table.finish(vfs, file)
}

/// Writes `batch` as one SSTable file, cut into blocks as
/// [`write_sstable`] cuts the same rows, so the bytes are the same. Keys
/// that do not ascend strictly are [`NosqlError::Corrupt`] and nothing is
/// written.
pub(crate) fn write_columns(vfs: &Vfs, file: &str, batch: &ColumnBatch<'_>) -> Result<()> {
    ensure_sorted(file, batch.keys.iter().copied())?;
    // A record's body is its row's, and its row is the next live cell.
    let mut cell = 0;
    let sizes = (batch.keys.iter().zip(&batch.live)).map(|(key, &live)| {
        cell += usize::from(live);
        key.len() + if live { batch.row_len(cell - 1) } else { 0 }
    });
    let mut table = TableWriter::new(batch.keys.len());
    let mut first_cell = 0;
    for rows in cuts(sizes) {
        let live = batch.live[rows.clone()]
            .iter()
            .filter(|live| **live)
            .count();
        table.block(batch, rows, first_cell..first_cell + live);
        first_cell += live;
    }
    table.finish(vfs, file)
}

/// The reader's binary-searched index silently returns wrong rows over an
/// unsorted or duplicated run, so such keys are [`NosqlError::Corrupt`].
fn ensure_sorted<'k>(file: &str, keys: impl Iterator<Item = &'k [u8]>) -> Result<()> {
    let mut prev: Option<&[u8]> = None;
    for key in keys {
        if let Some(prev) = prev.filter(|prev| *prev >= key) {
            let what = if prev == key {
                "duplicate"
            } else {
                "out-of-order"
            };
            return Err(NosqlError::Corrupt(format!(
                "refusing to write {file}: {what} key {key:02x?}"
            )));
        }
        prev = Some(key);
    }
    Ok(())
}

/// The blocks of a run of records, as index ranges: a block closes, never
/// splitting a record, once its records' row-major footprint — each
/// record's key plus row body (`Row::encode`'s length, 0 for a tombstone)
/// as `sizes` gives it, plus a flag and sequence (9) and two length
/// prefixes (4) — reaches `BLOCK_TARGET_BYTES`; the columnar bytes are
/// usually fewer.
fn cuts(sizes: impl Iterator<Item = usize>) -> impl Iterator<Item = Range<usize>> {
    let mut sizes = sizes.enumerate().peekable();
    let mut start = 0;
    std::iter::from_fn(move || {
        let mut pending = 0;
        while let Some((i, size)) = sizes.next() {
            pending += size + 9 + 4;
            if pending >= BLOCK_TARGET_BYTES || sizes.peek().is_none() {
                let block = start..i + 1;
                start = i + 1;
                return Some(block);
            }
        }
        None
    })
}

/// One SSTable being written: its data blocks, the block index and the
/// bloom filter over every key, then the meta region and the footer.
struct TableWriter<'a> {
    data: Encoder,
    blocks: Vec<BlockMeta>,
    filter: Bloom,
    count: u64,
    /// The last key written: the max fence.
    last: &'a [u8],
    block: BlockWriter<'a>,
}

impl<'a> TableWriter<'a> {
    fn new(records: usize) -> TableWriter<'a> {
        TableWriter {
            data: Encoder::new(),
            blocks: Vec::new(),
            filter: Bloom::with_capacity(records, sc_encoding::bloom::DEFAULT_BITS_PER_KEY),
            count: 0,
            last: &[],
            block: BlockWriter::default(),
        }
    }

    /// Appends records `rows` of `batch`, whose live records' cells lie at
    /// `cells` in its columns, as the next block.
    fn block(&mut self, batch: &ColumnBatch<'a>, rows: Range<usize>, cells: Range<usize>) {
        let keys = &batch.keys[rows.clone()];
        keys.iter().for_each(|key| self.filter.insert(key));
        self.last = keys[keys.len() - 1];
        let offset = self.data.len();
        self.block.encode(&mut self.data, batch, rows, cells);
        let bytes = &self.data.bytes()[offset..];
        self.blocks.push(BlockMeta {
            first_key: keys[0].to_vec(),
            offset: offset as u64,
            len: bytes.len() as u64,
            crc: Crc32::of(bytes),
            count: keys.len() as u64,
        });
        self.count += keys.len() as u64;
    }

    /// Appends the meta region and footer, and the file to `vfs`.
    fn finish(self, vfs: &Vfs, file: &str) -> Result<()> {
        let mut meta = Encoder::new();
        meta.put_u64(self.count);
        if let Some(first) = self.blocks.first() {
            meta.put_bytes(&first.first_key);
            meta.put_bytes(self.last);
        }
        self.filter.encode(&mut meta);
        meta.put_u64(self.blocks.len() as u64);
        for b in &self.blocks {
            meta.put_bytes(&b.first_key);
            meta.put_u64(b.offset);
            meta.put_u64(b.len);
            meta.put_u32_fixed(b.crc);
            meta.put_u64(b.count);
        }
        let meta = meta.into_bytes();
        let mut out = self.data;
        let meta_offset = out.len() as u64;
        out.put_raw(&meta);
        out.put_u64_fixed(meta_offset);
        out.put_u64_fixed(meta.len() as u64);
        out.put_u32_fixed(Crc32::of(&meta));
        out.put_u32_fixed(MAGIC);
        vfs.append(file, out.bytes())?;
        Ok(())
    }
}

/// Sparse-index entry for one data block.
#[derive(Debug)]
struct BlockMeta {
    first_key: Vec<u8>,
    offset: u64,
    len: u64,
    crc: u32,
    count: u64,
}

/// The resident table metadata.
#[derive(Debug)]
struct BlockMetaTable {
    entry_count: u64,
    min_key: Vec<u8>,
    max_key: Vec<u8>,
    filter: Bloom,
    blocks: Vec<BlockMeta>,
}

/// An open SSTable with its sparse index resident.
#[derive(Debug)]
pub struct SsTable {
    vfs: Vfs,
    file: String,
    size: u64,
    cache: Option<BlockCache>,
    meta: BlockMetaTable,
    /// Set once a compaction has published this table's replacement; see
    /// [`SsTable::mark_obsolete`].
    obsolete: AtomicBool,
}

/// The file's lifetime is its last handle's: readers that took an `Arc`
/// clone before a compaction swapped the table out keep reading it, and
/// whoever drops last deletes it. A failed delete only counts — the
/// manifest no longer lists the file, so the next recovery sweeps it.
impl Drop for SsTable {
    fn drop(&mut self) {
        if !*self.obsolete.get_mut() {
            return;
        }
        if let Some(cache) = &self.cache {
            cache.evict_file(&self.file);
        }
        if self.vfs.delete(&self.file).is_err() {
            crate::obs::nosql().compaction_errors.inc();
        }
    }
}

impl SsTable {
    /// Opens and validates an SSTable file, uncached.
    pub fn open(vfs: Vfs, file: impl Into<String>) -> Result<SsTable> {
        Self::open_impl(vfs, file.into(), None)
    }

    /// Opens with data-block reads going through `cache`.
    pub fn open_with_cache(
        vfs: Vfs,
        file: impl Into<String>,
        cache: BlockCache,
    ) -> Result<SsTable> {
        Self::open_impl(vfs, file.into(), Some(cache))
    }

    fn open_impl(vfs: Vfs, file: String, cache: Option<BlockCache>) -> Result<SsTable> {
        let size = vfs.len(&file)?;
        if size < FOOTER_LEN {
            return Err(NosqlError::Corrupt(format!("{file}: too small")));
        }
        let footer = vfs.read_at(&file, size - FOOTER_LEN, FOOTER_LEN as usize)?;
        let mut f = Decoder::new(&footer);
        let meta_offset = f.get_u64_fixed().map_err(NosqlError::from)?;
        let meta_len = f.get_u64_fixed().map_err(NosqlError::from)?;
        let meta_crc = f.get_u32_fixed().map_err(NosqlError::from)?;
        let magic = f.get_u32_fixed().map_err(NosqlError::from)?;
        if magic != MAGIC {
            return Err(NosqlError::Corrupt(format!("{file}: bad magic")));
        }
        // Checked geometry: garbage footer values must not overflow into a
        // wrapped-around sum that happens to match `size`.
        let expected = meta_offset
            .checked_add(meta_len)
            .and_then(|v| v.checked_add(FOOTER_LEN));
        if expected != Some(size) {
            return Err(NosqlError::Corrupt(format!("{file}: bad footer geometry")));
        }
        let meta_bytes = vfs.read_at(&file, meta_offset, meta_len as usize)?;
        if Crc32::of(&meta_bytes) != meta_crc {
            return Err(NosqlError::Corrupt(format!("{file}: meta checksum")));
        }
        let meta = Self::parse_block_meta(&file, &meta_bytes, meta_offset)?;
        Ok(SsTable {
            vfs,
            file,
            size,
            cache,
            meta,
            obsolete: AtomicBool::new(false),
        })
    }

    fn parse_block_meta(file: &str, meta_bytes: &[u8], data_end: u64) -> Result<BlockMetaTable> {
        let corrupt = |what: &str| NosqlError::Corrupt(format!("{file}: {what}"));
        let mut d = Decoder::new(meta_bytes);
        let entry_count = d.get_u64().map_err(NosqlError::from)?;
        let (min_key, max_key) = if entry_count > 0 {
            let min = d.get_bytes().map_err(NosqlError::from)?.to_vec();
            let max = d.get_bytes().map_err(NosqlError::from)?.to_vec();
            if min > max {
                return Err(corrupt("inverted key fences"));
            }
            (min, max)
        } else {
            (Vec::new(), Vec::new())
        };
        let filter = Bloom::decode(&mut d).map_err(NosqlError::from)?;
        let block_count = d.get_u64().map_err(NosqlError::from)? as usize;
        // A block-meta record is at least 8 bytes; bound the count by what
        // the region can physically hold before reserving.
        if block_count > meta_bytes.len() / 8 {
            return Err(corrupt(&format!("implausible block count {block_count}")));
        }
        let mut blocks = Vec::with_capacity(block_count);
        let mut covered = 0u64;
        let mut entries_seen = 0u64;
        for _ in 0..block_count {
            let first_key = d.get_bytes().map_err(NosqlError::from)?.to_vec();
            let offset = d.get_u64().map_err(NosqlError::from)?;
            let len = d.get_u64().map_err(NosqlError::from)?;
            let crc = d.get_u32_fixed().map_err(NosqlError::from)?;
            let count = d.get_u64().map_err(NosqlError::from)?;
            // Blocks are written back-to-back: each must start where the
            // previous ended, which also proves offsets are monotone and
            // in-bounds.
            if offset != covered {
                return Err(corrupt(&format!("block offset {offset} not contiguous")));
            }
            if count == 0 || len == 0 {
                return Err(corrupt("empty data block"));
            }
            covered = offset
                .checked_add(len)
                .ok_or_else(|| corrupt("block extent overflows"))?;
            if covered > data_end {
                return Err(corrupt("block extends beyond data region"));
            }
            if let Some(prev) = blocks.last() {
                let prev: &BlockMeta = prev;
                if prev.first_key >= first_key {
                    return Err(corrupt("block first keys not strictly increasing"));
                }
            }
            entries_seen = entries_seen
                .checked_add(count)
                .ok_or_else(|| corrupt("entry count overflows"))?;
            blocks.push(BlockMeta {
                first_key,
                offset,
                len,
                crc,
                count,
            });
        }
        if !d.is_exhausted() {
            return Err(corrupt("trailing bytes after block index"));
        }
        if covered != data_end {
            return Err(corrupt("blocks do not cover the data region"));
        }
        if entries_seen != entry_count {
            return Err(corrupt("block counts disagree with entry count"));
        }
        if entry_count > 0 {
            if blocks.is_empty() {
                return Err(corrupt("entries without data blocks"));
            }
            if blocks[0].first_key != min_key {
                return Err(corrupt("min fence disagrees with first block"));
            }
        }
        Ok(BlockMetaTable {
            entry_count,
            min_key,
            max_key,
            filter,
            blocks,
        })
    }

    /// File name.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Total file size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.meta.entry_count as usize
    }

    /// The smallest and largest key stored; `None` for an empty table.
    pub fn fences(&self) -> Option<(&[u8], &[u8])> {
        let meta = &self.meta;
        (!meta.blocks.is_empty()).then_some((meta.min_key.as_slice(), meta.max_key.as_slice()))
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches one data block: shared cache first, then a CRC-verified
    /// VFS read.
    fn read_block(&self, block: &BlockMeta) -> Result<Arc<Vec<u8>>> {
        if let Some(cache) = &self.cache {
            if let Some(bytes) = cache.get(&self.file, block.offset) {
                return Ok(bytes);
            }
        }
        let raw = self
            .vfs
            .read_at(&self.file, block.offset, block.len as usize)?;
        if Crc32::of(&raw) != block.crc {
            return Err(NosqlError::Corrupt(format!(
                "{}: data block checksum at offset {}",
                self.file, block.offset
            )));
        }
        let raw = Arc::new(raw);
        if let Some(cache) = &self.cache {
            cache.insert(&self.file, block.offset, Arc::clone(&raw));
        }
        Ok(raw)
    }

    /// Reads and decodes one block for a scan, parsing only the column
    /// chunks in `proj` (`None` = all).
    fn scan_block(&self, block: &BlockMeta, proj: Option<&[usize]>) -> Result<ScanBlock> {
        let bytes = self.read_block(block)?;
        ScanBlock::decode(&self.file, bytes, proj)
    }

    /// Declares the table merged away: its file is deleted and its cached
    /// blocks evicted when the last handle drops.
    pub(crate) fn mark_obsolete(&self) {
        self.obsolete.store(true, Ordering::Release);
    }

    /// Point lookup with read-path telemetry: [`SsTable::probe_keys`]
    /// for one key. [`SsTable::get`] is the entry-only shorthand.
    pub fn probe(&self, key: &[u8]) -> Result<Probe> {
        let mut probe = Probe::absent(false, false);
        self.probe_keys(&[(0, key)], None, &mut |_, p| probe = p)?;
        Ok(probe)
    }

    /// Point lookups of `keys` — `(caller's index, key)` pairs in strictly
    /// ascending key order — with read-path telemetry: `found(index,
    /// probe)` gets each key's [`Probe`] once. Only the columns in `proj`
    /// are read (`None` = all); the rest come back null. The fences and
    /// the bloom filter screen every key; the keys that pass and fall in
    /// one data block, up to 64 at a time, share one read and one walk of
    /// it (`colblock::find_rows`). The read counts on the first of them
    /// only, so blocks read summed over the keys is the blocks this call
    /// read.
    pub fn probe_keys(
        &self,
        keys: &[(usize, &[u8])],
        proj: Option<&[usize]>,
        found: &mut dyn FnMut(usize, Probe),
    ) -> Result<()> {
        self.lookup(keys, proj, &mut |pos, probe| {
            let (at, key) = keys[pos];
            let entry = probe.entry.map(|Found { seq, row }| SstEntry {
                key: key.to_vec(),
                row,
                timestamp: seq,
            });
            let probe = Probe {
                entry,
                blocks_read: probe.blocks_read,
                fence_rejected: probe.fence_rejected,
                filter_rejected: probe.filter_rejected,
            };
            found(at, probe);
        })
    }

    /// [`SsTable::probe_keys`] for a reader that holds the keys: `found`
    /// gets each key's position in `keys` with its probe, whose hit is the
    /// stored version alone, so no key is copied.
    pub(crate) fn lookup(
        &self,
        keys: &[(usize, &[u8])],
        proj: Option<&[usize]>,
        found: &mut dyn FnMut(usize, Probe<Found>),
    ) -> Result<()> {
        debug_assert!(keys.windows(2).all(|w| w[0].1 < w[1].1));
        let blocks = &self.meta.blocks;
        let stats = sc_obs::enabled();
        let mut i = 0;
        while i < keys.len() {
            if let Some(absent) = self.screen(keys[i].1, stats) {
                found(i, absent);
                i += 1;
                continue;
            }
            // keys[i] passed the fences, so it is at or above the first
            // block's first key: its block is the last whose first key is
            // <= it, and the keys below the next block's first key share
            // that block.
            let pos = blocks.partition_point(|b| b.first_key.as_slice() <= keys[i].1);
            let end = match blocks.get(pos) {
                Some(next) => {
                    i + keys[i..].partition_point(|&(_, k)| k < next.first_key.as_slice())
                }
                None => keys.len(),
            };
            // At most 64 keys to a group, a bit each: set once the key
            // passed the screen.
            let group = &keys[i..end.min(i + u64::BITS as usize)];
            let mut passed = 1u64;
            for (j, &(_, key)) in group.iter().enumerate().skip(1) {
                match self.screen(key, stats) {
                    Some(absent) => found(i + j, absent),
                    None => passed |= 1 << j,
                }
            }
            let bytes = self.read_block(&blocks[pos - 1])?;
            let mut blocks_read = 1;
            let mut report = |j: usize, entry: Option<Found>| {
                if stats && entry.is_some() {
                    crate::obs::nosql().bloom_hit.inc();
                } else if stats {
                    crate::obs::nosql().bloom_false_positive.inc();
                }
                let probe = Probe {
                    entry,
                    blocks_read: std::mem::take(&mut blocks_read),
                    fence_rejected: false,
                    filter_rejected: false,
                };
                found(i + j, probe);
            };
            let wanted = passed;
            let mut walk = (group.iter().enumerate())
                .filter(|&(j, _)| (wanted >> j) & 1 == 1)
                .map(|(j, &(_, key))| (j, key));
            colblock::find_rows(&self.file, &bytes, &mut walk, proj, &mut |j, seq, row| {
                passed &= !(1 << j);
                report(j, Some(Found { seq, row }));
            })?;
            // Passed the filter, absent from the block: false positives.
            for j in (0..group.len()).filter(|j| (passed >> j) & 1 == 1) {
                report(j, None);
            }
            i += group.len();
        }
        Ok(())
    }

    /// The fences' and the bloom filter's verdict on `key`: its absent
    /// probe when either rules it out.
    fn screen(&self, key: &[u8], stats: bool) -> Option<Probe<Found>> {
        let meta = &self.meta;
        if meta.blocks.is_empty() || key < meta.min_key.as_slice() || key > meta.max_key.as_slice()
        {
            return Some(Probe::absent(true, false));
        }
        sc_obs::trace::add(sc_obs::trace::Attr::BloomProbes, 1);
        if !meta.filter.may_contain(key) {
            if stats {
                crate::obs::nosql().bloom_miss.inc();
            }
            return Some(Probe::absent(false, true));
        }
        None
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<SstEntry>> {
        Ok(self.probe(key)?.entry)
    }

    /// Streams the entries whose keys start with `prefix` (`None` = all) in
    /// key order, tombstones included, one decoded block at a time. Only
    /// the column runs in `proj` are parsed (`None` = all); pruned columns
    /// come back as [`crate::types::CqlValue::Null`].
    pub fn iter<'a>(
        &'a self,
        prefix: Option<&[u8]>,
        proj: Option<&[usize]>,
    ) -> impl Iterator<Item = Result<SstEntry>> + 'a {
        let layer = Box::new(SstIter::new(self, prefix, proj));
        Cursor::new(vec![layer], u64::MAX, prefix, true).entries()
    }

    /// Every entry in key order (tombstones included).
    pub fn scan(&self) -> Result<Vec<SstEntry>> {
        self.iter(None, None).collect()
    }
}

/// The one block loop behind scans, prefix scans and merges: a table's
/// blocks for a cursor, decoded one at a time. `T` is how the table is
/// held: a borrow, or an `Arc` for a cursor that must outlive the table
/// list's guard.
#[derive(Debug)]
pub(crate) struct SstIter<T> {
    sst: T,
    /// Blocks still to read, chosen through the block index.
    blocks: Range<usize>,
    proj: Option<Vec<usize>>,
}

impl<T: Deref<Target = SsTable>> SstIter<T> {
    /// The blocks that can hold keys starting with `prefix` (`None` =
    /// all); the cursor skips the rest of their rows.
    pub(crate) fn new(sst: T, prefix: Option<&[u8]>, proj: Option<&[usize]>) -> SstIter<T> {
        let index = &sst.meta.blocks;
        let blocks = match prefix {
            // Matching entries can start inside the block before the first
            // block whose first key is >= prefix, and end inside the last
            // block whose first key is below or under the prefix.
            Some(p) => {
                let start = index
                    .partition_point(|b| b.first_key.as_slice() < p)
                    .saturating_sub(1);
                let end = index
                    .partition_point(|b| b.first_key.as_slice() < p || b.first_key.starts_with(p));
                start..end
            }
            None => 0..index.len(),
        };
        SstIter {
            sst,
            blocks,
            proj: proj.map(<[usize]>::to_vec),
        }
    }
}

impl<T: Deref<Target = SsTable>> Iterator for SstIter<T> {
    type Item = Result<Rc<ScanBlock>>;

    fn next(&mut self) -> Option<Result<Rc<ScanBlock>>> {
        let sst: &SsTable = &self.sst;
        let block = &sst.meta.blocks[self.blocks.next()?];
        match sst.scan_block(block, self.proj.as_deref()) {
            Ok(decoded) => {
                // `nosql.read.cols_*` describe projected reads only.
                if self.proj.is_some() && sc_obs::enabled() {
                    let obs = crate::obs::nosql();
                    let read = decoded.decoded_cols();
                    obs.cols_read.add(read as u64);
                    obs.cols_skipped.add((decoded.width() - read) as u64);
                }
                Some(Ok(Rc::new(decoded)))
            }
            Err(e) => {
                self.blocks = 0..0;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CqlValue;

    fn entries() -> Vec<SstEntry> {
        vec![
            SstEntry {
                key: vec![1],
                row: Some(Row::new(vec![CqlValue::Int(10), CqlValue::Int(11)])),
                timestamp: 1,
            },
            SstEntry {
                key: vec![2],
                row: None, // tombstone
                timestamp: 2,
            },
            SstEntry {
                key: vec![3, 0],
                row: Some(Row::new(vec![CqlValue::Null, CqlValue::Null])),
                timestamp: 3,
            },
        ]
    }

    /// Enough entries to span several 4 KiB blocks.
    fn many_entries(n: u64) -> Vec<SstEntry> {
        (0..n)
            .map(|i| SstEntry {
                key: format!("key-{i:08}").into_bytes(),
                row: (i % 7 != 0).then(|| {
                    Row::new(vec![CqlValue::Text(format!(
                        "value-{i}-{}",
                        "x".repeat(80)
                    ))])
                }),
                timestamp: i,
            })
            .collect()
    }

    #[test]
    fn write_open_get_scan() {
        let vfs = Vfs::memory();
        write_sstable(&vfs, "t/sst-1", &entries()).unwrap();
        let sst = SsTable::open(vfs, "t/sst-1").unwrap();
        assert_eq!(sst.len(), 3);
        for e in entries() {
            assert_eq!(sst.get(&e.key).unwrap(), Some(e));
        }
        assert!(sst.get(&[9]).unwrap().is_none());
        assert_eq!(sst.scan().unwrap(), entries());
        assert_eq!(sst.size(), sst.vfs.len("t/sst-1").unwrap());
    }

    fn typed_entries(n: u8) -> Vec<SstEntry> {
        (0..n)
            .map(|i| SstEntry {
                key: vec![b'k', i],
                row: Some(Row::new(vec![
                    CqlValue::Int(i as i64),
                    CqlValue::Text(format!("station-{}", i % 4)),
                    CqlValue::Int(1000 + i as i64),
                ])),
                timestamp: i as u64,
            })
            .collect()
    }

    #[test]
    fn projected_iter_reads_only_requested_columns() {
        let vfs = Vfs::memory();
        let es = typed_entries(50);
        write_sstable(&vfs, "t/typed", &es).unwrap();
        let sst = SsTable::open(vfs, "t/typed").unwrap();
        let rows: Vec<SstEntry> = sst.iter(None, Some(&[2])).collect::<Result<_>>().unwrap();
        assert_eq!(rows.len(), es.len());
        for (i, e) in rows.iter().enumerate() {
            assert_eq!(e.key, es[i].key);
            assert_eq!(e.timestamp, i as u64);
            let row = e.row.as_ref().unwrap();
            assert_eq!(row.values[2], CqlValue::Int(1000 + i as i64));
            assert_eq!(row.values[0], CqlValue::Null, "pruned column is Null");
            assert_eq!(row.values[1], CqlValue::Null, "pruned column is Null");
        }
        // Unprojected decode returns every column.
        assert_eq!(sst.scan().unwrap(), es);
    }

    #[test]
    fn multi_block_table_reads_every_key() {
        let vfs = Vfs::memory();
        let es = many_entries(400);
        write_sstable(&vfs, "t/big", &es).unwrap();
        let sst = SsTable::open(vfs, "t/big").unwrap();
        assert!(
            sst.meta.blocks.len() >= 4,
            "400 ~100-byte entries must span several 4 KiB blocks, got {}",
            sst.meta.blocks.len()
        );
        for e in &es {
            assert_eq!(sst.get(&e.key).unwrap().as_ref(), Some(e));
        }
        assert_eq!(sst.scan().unwrap(), es);
        // Prefix scans cross block boundaries.
        let with_prefix = |p: &[u8]| sst.iter(Some(p), None).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(with_prefix(b"key-0000003"), es[30..40]);
        assert_eq!(with_prefix(b"key-"), es);
        assert!(with_prefix(b"zzz").is_empty());
    }

    #[test]
    fn fences_and_filter_answer_misses_without_block_reads() {
        let vfs = Vfs::memory();
        let es = many_entries(300);
        write_sstable(&vfs, "t/probe", &es).unwrap();
        let sst = SsTable::open(vfs, "t/probe").unwrap();
        // Outside the fences: zero blocks, no filter consulted.
        let below = sst.probe(b"aaa").unwrap();
        assert!(below.fence_rejected && below.blocks_read == 0);
        let above = sst.probe(b"zzz").unwrap();
        assert!(above.fence_rejected && above.blocks_read == 0);
        // In-range absent keys (appending `x` keeps them under the max key
        // for i < 299): almost all are filter-rejected; any false positive
        // reads exactly one block and still returns nothing.
        let mut fp = 0u64;
        let probes = 299u64;
        for i in 0..probes {
            let probe = sst.probe(format!("key-{i:08}x").as_bytes()).unwrap();
            assert!(probe.entry.is_none() && !probe.fence_rejected);
            if probe.filter_rejected {
                assert_eq!(probe.blocks_read, 0);
            } else {
                assert_eq!(probe.blocks_read, 1);
                fp += 1;
            }
        }
        assert!(
            (fp as f64) / (probes as f64) < 0.02,
            "false-positive rate {fp}/{probes} >= 2%"
        );
        // Present keys read exactly one block.
        let hit = sst.probe(&es[123].key).unwrap();
        assert_eq!(hit.entry.as_ref(), Some(&es[123]));
        assert_eq!(hit.blocks_read, 1);
    }

    #[test]
    fn shared_cache_serves_warm_reads() {
        let vfs = Vfs::memory();
        let es = many_entries(200);
        write_sstable(&vfs, "t/cached", &es).unwrap();
        let cache = BlockCache::new(1024 * 1024);
        let sst = SsTable::open_with_cache(vfs, "t/cached", cache.clone()).unwrap();
        sst.scan().unwrap(); // cold: populates the cache
        let after_cold = cache.stats();
        assert!(after_cold.misses > 0 && after_cold.blocks > 0);
        sst.scan().unwrap(); // warm: every block from cache
        let after_warm = cache.stats();
        assert_eq!(
            after_warm.misses, after_cold.misses,
            "warm scan hit the VFS"
        );
        assert!(after_warm.hits >= after_cold.hits + after_cold.blocks as u64);
        // Point reads are warm too.
        let before = cache.stats();
        assert!(sst.get(&es[57].key).unwrap().is_some());
        assert_eq!(cache.stats().misses, before.misses);
    }

    #[test]
    fn empty_table() {
        let vfs = Vfs::memory();
        write_sstable(&vfs, "t/empty", &[]).unwrap();
        let sst = SsTable::open(vfs, "t/empty").unwrap();
        assert!(sst.is_empty());
        assert!(sst.scan().unwrap().is_empty());
        assert!(sst.get(&[0]).unwrap().is_none());
    }

    #[test]
    fn unsorted_entries_rejected_as_corrupt() {
        let vfs = Vfs::memory();
        let mut es = entries();
        es.swap(0, 2);
        let err = write_sstable(&vfs, "t/bad", &es).unwrap_err();
        assert!(
            matches!(&err, NosqlError::Corrupt(m) if m.contains("out-of-order")),
            "{err:?}"
        );
        // Nothing was written.
        assert!(vfs.list("t/bad").unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_rejected_as_corrupt() {
        let vfs = Vfs::memory();
        let mut es = entries();
        es[1].key = es[0].key.clone();
        let err = write_sstable(&vfs, "t/dup", &es).unwrap_err();
        assert!(
            matches!(&err, NosqlError::Corrupt(m) if m.contains("duplicate")),
            "{err:?}"
        );
    }

    #[test]
    fn corrupt_magic_rejected() {
        let vfs = Vfs::memory();
        write_sstable(&vfs, "t/x", &entries()).unwrap();
        let mut data = vfs.read_all("t/x").unwrap();
        let n = data.len();
        data[n - 1] ^= 0x55;
        vfs.delete("t/x").unwrap();
        vfs.append("t/x", &data).unwrap();
        assert!(matches!(
            SsTable::open(vfs, "t/x"),
            Err(NosqlError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_meta_rejected() {
        let vfs = Vfs::memory();
        write_sstable(&vfs, "t/x", &entries()).unwrap();
        let mut data = vfs.read_all("t/x").unwrap();
        let n = data.len();
        data[n - 30] ^= 0xff; // somewhere in the meta region
        vfs.delete("t/x").unwrap();
        vfs.append("t/x", &data).unwrap();
        assert!(matches!(
            SsTable::open(vfs, "t/x"),
            Err(NosqlError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_data_block_rejected_at_read() {
        let vfs = Vfs::memory();
        let es = many_entries(100);
        write_sstable(&vfs, "t/x", &es).unwrap();
        let mut data = vfs.read_all("t/x").unwrap();
        data[40] ^= 0x01; // inside the first data block
        vfs.delete("t/x").unwrap();
        vfs.append("t/x", &data).unwrap();
        // Meta is intact, so open succeeds; the block CRC catches the flip
        // the moment the block is read.
        let sst = SsTable::open(vfs, "t/x").unwrap();
        assert!(matches!(sst.scan(), Err(NosqlError::Corrupt(_))));
        assert!(matches!(sst.get(&es[0].key), Err(NosqlError::Corrupt(_))));
    }

    #[test]
    fn truncated_file_rejected() {
        let vfs = Vfs::memory();
        vfs.append("tiny", &[1, 2, 3]).unwrap();
        assert!(matches!(
            SsTable::open(vfs, "tiny"),
            Err(NosqlError::Corrupt(_))
        ));
    }
}
