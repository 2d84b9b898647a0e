//! Column-major SSTable data blocks (see DESIGN.md §5f).
//!
//! A block stores its records column-major so scans touching a few columns
//! decode a few contiguous runs instead of every cell of every row:
//!
//! ```text
//! block  : count(varint) layout(u8 = 0)
//!          keys        count × len-prefixed bytes
//!          seqs        zig-zag delta varints
//!          live bitmap ceil(count/8) bytes (bit set = live, clear = tombstone)
//!          ncols(varint)
//!          per column: len-prefixed chunk =
//!              enc(u8: 0 raw / 1 int-delta / 2 text-dict / 3 bool-bitmap)
//!              null bitmap over live rows (bit set = non-null)
//!              payload (per enc)
//! ```
//!
//! The writer takes the records column-major (`ColumnBatch`: keys,
//! sequences, liveness, a borrowed cell per live record per column), so
//! every live row of a batch has the same column count: an ingest's
//! columns, or `ColumnBatch::from_records` over a flush's memtable block
//! or a merge's decoded blocks. `BlockWriter` encodes one block of a batch
//! at a time, reusing its buffers.
//!
//! Column chunks are length-prefixed so a projected read skips a pruned
//! column in O(1) without parsing it.
//!
//! Two decoders read a block, and both honour one projection rule: the
//! column chunks the caller's projection names (`None` = all) are walked
//! and checked, the others are stepped over by their length prefix,
//! never parsed, and read as null. [`ScanBlock::decode`] serves every
//! scan: it keeps the key run as ranges of the block bytes, the sequences
//! and liveness, and each projected column as a typed run — `i64`s, a
//! dictionary decoded once plus one code per cell, bits, or raw values —
//! so operators read cells without building rows. [`find_rows`] serves
//! key probes: one walk of the block finds a sorted batch of keys — a
//! point read is the batch of one — and builds their rows and no other.
//! Both read every projected column run through one walk, `walk_run`,
//! which makes every check and hands each decoder the cells it asks for;
//! only a probe whose keys are all absent stops early, after the key
//! run.

use crate::error::{NosqlError, Result};
use crate::row::Row;
use crate::sstable::SstEntry;
use crate::types::{CqlType, CqlValue, InPlace, ValueRef};
use sc_encoding::columnar::{
    encode_i64_deltas, for_each_dict_code, for_each_dict_value, for_each_i64_delta, BitmapRef,
};
use sc_encoding::{varint, Decoder, Encoder};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, LazyLock};

const LAYOUT_COLUMNAR: u8 = 0;

const ENC_RAW: u8 = 0;
const ENC_INT_DELTA: u8 = 1;
const ENC_TEXT_DICT: u8 = 2;
const ENC_BOOL_BITMAP: u8 = 3;

/// One record as the `from_records` of [`ColumnBatch`] and [`ScanBlock`]
/// take it: its key, its sequence and its row's cells (`None` = a tombstone).
pub(crate) type Record<'a, C> = (&'a [u8], u64, Option<C>);

/// A sorted run of records, column-major: what an SSTable is written from
/// (`sstable::write_columns`). Record `i` has key `keys[i]`, sequence
/// `seqs[i]`, and a row when `live[i]` (a tombstone otherwise); each of
/// `columns` holds one cell per live record, in record order.
#[derive(Debug, Default)]
pub(crate) struct ColumnBatch<'a> {
    pub keys: Vec<&'a [u8]>,
    pub seqs: Vec<u64>,
    pub live: Vec<bool>,
    pub columns: Vec<Vec<ValueRef<'a>>>,
}

impl<'a> ColumnBatch<'a> {
    /// `records` column by column, borrowed, each vector sized once from
    /// their count. Live rows of differing length are
    /// [`NosqlError::Corrupt`].
    pub fn from_records<C>(
        file: &str,
        records: impl ExactSizeIterator<Item = Record<'a, C>> + Clone,
    ) -> Result<ColumnBatch<'a>>
    where
        C: ExactSizeIterator<Item = ValueRef<'a>>,
    {
        let len = records.len();
        let width = records
            .clone()
            .find_map(|(_, _, cells)| cells)
            .map_or(0, |c| c.len());
        let mut batch = ColumnBatch {
            keys: Vec::with_capacity(len),
            seqs: Vec::with_capacity(len),
            live: Vec::with_capacity(len),
            columns: (0..width).map(|_| Vec::with_capacity(len)).collect(),
        };
        for (key, seq, cells) in records {
            batch.keys.push(key);
            batch.seqs.push(seq);
            batch.live.push(cells.is_some());
            let Some(cells) = cells else { continue };
            if cells.len() != width {
                return Err(NosqlError::Corrupt(format!(
                    "refusing to write {file}: a row of {} columns among {width}-column rows",
                    cells.len()
                )));
            }
            for (column, cell) in batch.columns.iter_mut().zip(cells) {
                column.push(cell);
            }
        }
        Ok(batch)
    }

    /// The row-major footprint of live record `at`'s row (`Row::encoded_len`),
    /// which decides where blocks are cut.
    pub fn row_len(&self, at: usize) -> usize {
        let cells: usize = self.columns.iter().map(|c| 8 + c[at].encoded_len()).sum();
        1 + 8 + varint::len_u64(self.columns.len() as u64) + cells
    }
}

/// Buffers one writer reuses from block to block and column to column.
#[derive(Default)]
pub(crate) struct BlockWriter<'a> {
    chunk: Encoder,
    present: Vec<ValueRef<'a>>,
    /// A run of integers to delta-code: sequences, or an int column's cells.
    ints: Vec<i64>,
    /// A text run's dictionary: the values in first-seen order, each
    /// value's code, and a code per cell.
    dict: Vec<&'a str>,
    seen: HashMap<&'a str, usize>,
    codes: Vec<u64>,
}

impl<'a> BlockWriter<'a> {
    /// Appends records `rows` of `batch` as one block to `out`; `cells` is
    /// where their live records' cells lie in the columns.
    pub fn encode(
        &mut self,
        out: &mut Encoder,
        batch: &ColumnBatch<'a>,
        rows: Range<usize>,
        cells: Range<usize>,
    ) {
        out.put_u64(rows.len() as u64);
        out.put_u8(LAYOUT_COLUMNAR);
        for key in &batch.keys[rows.clone()] {
            out.put_bytes(key);
        }
        self.ints.clear();
        self.ints
            .extend(batch.seqs[rows.clone()].iter().map(|&seq| seq as i64));
        encode_i64_deltas(out, &self.ints);
        put_bits(out, &batch.live[rows], |live| *live);
        let ncols = if cells.is_empty() {
            0
        } else {
            batch.columns.len()
        };
        out.put_u64(ncols as u64);
        for column in &batch.columns[..ncols] {
            self.encode_column(&column[cells.clone()]);
            out.put_bytes(self.chunk.bytes());
        }
    }

    /// One column's run into `chunk`: encoding tag, null bitmap over the
    /// block's live rows, then the non-null cells under the encoding
    /// [`BlockWriter::choose`] picks.
    fn encode_column(&mut self, cells: &[ValueRef<'a>]) {
        let present = &mut self.present;
        present.clear();
        present.extend(cells.iter().filter(|v| **v != ValueRef::Null));
        let tag = self.choose();
        let enc = &mut self.chunk;
        enc.clear();
        enc.put_u8(tag);
        put_bits(enc, cells, |v| *v != ValueRef::Null);
        match tag {
            ENC_INT_DELTA => {
                let ints = self.present.iter().map(|v| match v {
                    ValueRef::Int(v) => *v,
                    _ => unreachable!("tag chosen only for all-int runs"),
                });
                self.ints.clear();
                self.ints.extend(ints);
                encode_i64_deltas(enc, &self.ints);
            }
            ENC_TEXT_DICT => {
                enc.put_u64(self.dict.len() as u64);
                for value in &self.dict {
                    enc.put_str(value);
                }
                for &code in &self.codes {
                    enc.put_u64(code);
                }
            }
            ENC_BOOL_BITMAP => put_bits(enc, &self.present, |v| *v == ValueRef::Boolean(true)),
            _ => self.present.iter().for_each(|v| v.encode(enc)),
        }
    }

    /// Picks the run encoding of `present`: delta varints for all-integer
    /// runs, a dictionary (built here, once) for text it makes smaller, a
    /// bitmap for booleans, raw tagged cells otherwise (mixed runs, sets,
    /// text whose values barely repeat).
    fn choose(&mut self) -> u8 {
        let all = |ty: CqlType| self.present.iter().all(|v| v.ty() == Some(ty));
        if self.present.is_empty() {
            ENC_RAW
        } else if all(CqlType::Int) {
            ENC_INT_DELTA
        } else if all(CqlType::Boolean) {
            ENC_BOOL_BITMAP
        } else if all(CqlType::Text) && self.build_dict() {
            ENC_TEXT_DICT
        } else {
            ENC_RAW
        }
    }

    /// Dictionary-codes the all-text `present`, and says whether that pays
    /// off: whether the run's dictionary and codes take fewer bytes than
    /// its raw cells. Each cell is one hash lookup, so a run of unique
    /// text costs linear time too.
    fn build_dict(&mut self) -> bool {
        self.dict.clear();
        self.seen.clear();
        self.codes.clear();
        let (mut raw, mut coded) = (0, 0);
        for v in &self.present {
            let ValueRef::Text(text) = *v else {
                unreachable!("called only for all-text runs")
            };
            raw += v.encoded_len();
            let code = *self.seen.entry(text).or_insert_with(|| {
                self.dict.push(text);
                coded += varint::len_u64(text.len() as u64) + text.len();
                self.dict.len() - 1
            });
            coded += varint::len_u64(code as u64);
            self.codes.push(code as u64);
        }
        coded += varint::len_u64(self.dict.len() as u64);
        coded < raw
    }
}

/// Appends a packed bitmap over `items`, bit `i` set when `bit(items[i])`.
fn put_bits<T>(enc: &mut Encoder, items: &[T], bit: impl Fn(&T) -> bool) {
    for byte in items.chunks(8) {
        let packed =
            (byte.iter().enumerate()).fold(0u8, |b, (i, item)| b | u8::from(bit(item)) << i);
        enc.put_u8(packed);
    }
}

fn corrupt(file: &str, what: &str) -> NosqlError {
    NosqlError::Corrupt(format!("{file}: {what}"))
}

/// Reads a block's record count and layout tag, leaving `d` at the key run.
fn open_block<'a>(file: &str, bytes: &'a [u8]) -> Result<(Decoder<'a>, usize)> {
    let mut d = Decoder::new(bytes);
    let count = d.get_u64()? as usize;
    // Each record costs at least one key length byte; a corrupt count must
    // not drive an unbounded allocation.
    if count > bytes.len() {
        return Err(corrupt(file, "implausible block record count"));
    }
    if d.get_u8()? != LAYOUT_COLUMNAR {
        return Err(corrupt(file, "bad block layout tag"));
    }
    Ok((d, count))
}

/// What sits between the sequence run and the column chunks.
struct Liveness<'a> {
    /// Bit set = live row, clear = tombstone.
    live: BitmapRef<'a>,
    /// Cells per column chunk, null or not.
    live_count: usize,
    ncols: usize,
}

/// Reads the live bitmap and column count that follow the sequence run.
fn open_liveness<'a>(file: &str, d: &mut Decoder<'a>, count: usize) -> Result<Liveness<'a>> {
    let live = BitmapRef::decode(d, count)?;
    let ncols = d.get_u64()? as usize;
    if ncols > d.remaining() {
        return Err(corrupt(file, "implausible block column count"));
    }
    Ok(Liveness {
        live,
        live_count: live.count_ones(),
        ncols,
    })
}

/// One column chunk after its encoding tag and null bitmap.
struct Chunk<'a> {
    tag: u8,
    /// Over the block's live rows; bit set = non-null.
    nulls: BitmapRef<'a>,
    /// Non-null cells in the run.
    present: usize,
    /// Positioned at the run.
    run: Decoder<'a>,
}

impl<'a> Chunk<'a> {
    fn open(file: &str, chunk: &'a [u8], live_count: usize) -> Result<Chunk<'a>> {
        let mut run = Decoder::new(chunk);
        let tag = run.get_u8()?;
        let nulls = BitmapRef::decode(&mut run, live_count)?;
        if !matches!(
            tag,
            ENC_RAW | ENC_INT_DELTA | ENC_TEXT_DICT | ENC_BOOL_BITMAP
        ) {
            return Err(corrupt(file, "bad column encoding tag"));
        }
        Ok(Chunk {
            tag,
            nulls,
            present: nulls.count_ones(),
            run,
        })
    }
}

/// Where [`walk_run`] hands the non-null cells it reads, each borrowed
/// from the block where it can be. A raw text cell's bytes are UTF-8 once
/// the walk returns `Ok`.
trait RunCells<'a> {
    /// Whether the walk hands out the run's `i`th non-null cell; it asks
    /// in run order, and checks the cells it does not hand out in place.
    fn wants(&self, i: usize) -> bool;
    fn int(&mut self, v: i64);
    /// A dictionary code and the run's dictionary, which it indexes.
    fn code(&mut self, code: usize, dict: &[&'a str]);
    fn bit(&mut self, bit: bool);
    fn raw(&mut self, cell: InPlace<'a>);
}

/// The one walk over a column run, behind both the scan and the key
/// decoder: hands `cells` the non-null cells it wants, in run order, and
/// checks every cell of the run — varint framing, dictionary codes in
/// range, UTF-8, raw value tags — exactly `present` cells and nothing
/// after them.
fn walk_run<'a>(file: &str, chunk: Chunk<'a>, cells: &mut impl RunCells<'a>) -> Result<()> {
    let Chunk {
        tag,
        present,
        mut run,
        ..
    } = chunk;
    match tag {
        ENC_INT_DELTA => for_each_i64_delta(&mut run, present, |i, v| {
            if cells.wants(i) {
                cells.int(v);
            }
        })?,
        ENC_TEXT_DICT => {
            let distinct = run.clone().get_u64()? as usize;
            let mut dict = Vec::with_capacity(distinct.min(run.remaining()));
            for_each_dict_value(&mut run, |v| {
                let text = std::str::from_utf8(v)
                    .map_err(|_| corrupt(file, "non-UTF-8 dictionary text"))?;
                dict.push(text);
                Ok::<_, NosqlError>(())
            })?;
            for_each_dict_code(&mut run, present, dict.len(), |i, code| {
                if cells.wants(i) {
                    cells.code(code, &dict);
                }
            })?;
        }
        ENC_BOOL_BITMAP => {
            let bits = BitmapRef::decode(&mut run, present)?;
            for i in 0..present {
                if cells.wants(i) {
                    cells.bit(bits.get(i));
                }
            }
        }
        // ENC_RAW: `Chunk::open` admits no other tag.
        _ => {
            for i in 0..present {
                if !cells.wants(i) {
                    CqlValue::skip(&mut run)?;
                    continue;
                }
                let cell = CqlValue::decode_in_place(&mut run)?;
                let text = match &cell {
                    InPlace::Text(text) => Some(*text),
                    InPlace::Value(_) => None,
                };
                // Checked after the hand-off, which an error voids (checking
                // first measured twice as slow on raw text runs); ASCII, the
                // common case, checks faster than UTF-8 validation of a
                // short string.
                cells.raw(cell);
                if text.is_some_and(|t| !t.is_ascii() && std::str::from_utf8(t).is_err()) {
                    return Err(corrupt(file, "non-UTF-8 raw text"));
                }
            }
        }
    }
    if !run.is_exhausted() {
        return Err(corrupt(file, "trailing bytes after column chunk"));
    }
    Ok(())
}

/// Finds the records of `keys` — `(caller's index, key)` pairs in strictly
/// ascending key order — in one walk of a block, and hands `found` each
/// one present, tombstones included, in key order: the caller's index,
/// the record's sequence and its row (`None` for a tombstone). No other
/// record is built: the key run is merged with `keys` in place and each
/// column run yields only the hits' cells, while every run is still
/// checked as [`ScanBlock::decode`] checks it. Only the column chunks
/// `proj` asks for (`None` = all) are walked; the rest are stepped over by
/// their length prefix, as the scan decode steps over them, and read as
/// null. The merge takes the key run to ascend, and checks it does from
/// the first key it finds absent: a run out of order there is
/// [`NosqlError::Corrupt`], never a missed key. Once the key run shows
/// every key absent, the walk stops there.
pub(crate) fn find_rows(
    file: &str,
    bytes: &[u8],
    keys: &mut dyn Iterator<Item = (usize, &[u8])>,
    proj: Option<&[usize]>,
    found: &mut dyn FnMut(usize, u64, Option<Row>),
) -> Result<()> {
    let (mut d, count) = open_block(file, bytes)?;
    let mut keys = keys.map(|(at, key)| (at, KeyRef::new(key)));
    let mut next = keys.next();
    let mut hits = Hits::default();
    // Once the merge has passed over a key it took to be absent, a key run
    // out of order could still hold it further on: from there the run
    // must ascend.
    let mut passed_over = false;
    let mut prev = KeyRef::new(&[]);
    for row in 0..count {
        let key = d.get_bytes()?;
        // Every key found: none can be missed, so the rest of the run is
        // only stepped over.
        if next.is_none() && !passed_over {
            continue;
        }
        let k = KeyRef::new(key);
        if passed_over && k <= prev {
            return Err(corrupt(file, "block keys not strictly ascending"));
        }
        prev = k;
        while let Some((at, want)) = next {
            match want.cmp(&k) {
                Ordering::Less => {
                    passed_over = true;
                    next = keys.next();
                }
                Ordering::Equal => {
                    let more = keys.size_hint().1.unwrap_or(0);
                    hits.push(
                        Hit {
                            at,
                            row,
                            ..Hit::default()
                        },
                        more,
                    );
                    next = keys.next();
                    break;
                }
                Ordering::Greater => break,
            }
        }
    }
    let hits = hits.as_mut_slice();
    if hits.is_empty() {
        return Ok(());
    }
    // The next hit's row, and which hit that is.
    let (mut h, mut at_row) = (0, hits[0].row);
    for_each_i64_delta(&mut d, count, |i, seq| {
        if i == at_row {
            hits[h].seq = seq as u64;
            h += 1;
            at_row = hits.get(h).map_or(usize::MAX, |hit| hit.row);
        }
    })?;
    let Liveness {
        live,
        live_count,
        ncols,
    } = open_liveness(file, &mut d, count)?;
    for hit in hits.iter_mut() {
        // The row's position among the live rows, unless it is a tombstone.
        hit.live_at = live.get(hit.row).then(|| live.rank(hit.row));
        if hit.live_at.is_some() {
            hit.values = Vec::with_capacity(ncols);
        }
    }
    for c in 0..ncols {
        let chunk = d.get_bytes()?;
        if proj.is_some_and(|p| !p.contains(&c)) {
            for hit in hits.iter_mut().filter(|hit| hit.live_at.is_some()) {
                hit.values.push(CqlValue::Null);
            }
            continue;
        }
        let chunk = Chunk::open(file, chunk, live_count)?;
        let mut picks = Picks::new(hits, chunk.nulls);
        walk_run(file, chunk, &mut picks)?;
    }
    if !d.is_exhausted() {
        return Err(corrupt(file, "trailing bytes after columnar block"));
    }
    for hit in hits {
        let values = std::mem::take(&mut hit.values);
        found(hit.at, hit.seq, hit.live_at.map(|_| Row::new(values)));
    }
    Ok(())
}

/// One record [`find_rows`] found: the caller's index for its key, its row
/// in the block, and what the walk has read of it so far.
#[derive(Default)]
struct Hit {
    at: usize,
    row: usize,
    seq: u64,
    /// The row's position among the block's live rows; `None` for a
    /// tombstone.
    live_at: Option<usize>,
    values: Vec<CqlValue>,
}

/// A walk's hits in row order. The first sits inline, so a one-key probe
/// allocates nothing for the list.
#[derive(Default)]
struct Hits {
    first: Option<Hit>,
    rest: Vec<Hit>,
}

impl Hits {
    /// Adds `hit`, with at most `more` to follow.
    fn push(&mut self, hit: Hit, more: usize) {
        if self.first.is_none() && self.rest.is_empty() {
            self.first = Some(hit);
            return;
        }
        if self.rest.is_empty() {
            self.rest.reserve_exact(2 + more);
        }
        self.rest.extend(self.first.take());
        self.rest.push(hit);
    }

    fn as_mut_slice(&mut self) -> &mut [Hit] {
        match &mut self.first {
            Some(hit) => std::slice::from_mut(hit),
            None => &mut self.rest,
        }
    }
}

/// The cells a key walk takes from one column run: each live hit's, in
/// row order, pushed onto its values (a null where the run has no cell
/// for it). `want` is the run position of hit `next`'s cell.
struct Picks<'h, 'a> {
    hits: &'h mut [Hit],
    /// Over the block's live rows; bit set = non-null.
    nulls: BitmapRef<'a>,
    next: usize,
    want: usize,
}

impl<'h, 'a> Picks<'h, 'a> {
    fn new(hits: &'h mut [Hit], nulls: BitmapRef<'a>) -> Picks<'h, 'a> {
        let mut picks = Picks {
            hits,
            nulls,
            next: 0,
            want: usize::MAX,
        };
        picks.seek();
        picks
    }

    /// Moves to the first hit from `next` on that has a cell in the run,
    /// giving the live hits it steps over (null in this column) a null.
    fn seek(&mut self) {
        while let Some(hit) = self.hits.get_mut(self.next) {
            if let Some(li) = hit.live_at {
                if self.nulls.get(li) {
                    self.want = self.nulls.rank(li);
                    return;
                }
                hit.values.push(CqlValue::Null);
            }
            self.next += 1;
        }
        self.want = usize::MAX;
    }

    fn put(&mut self, value: CqlValue) {
        self.hits[self.next].values.push(value);
        self.next += 1;
        self.seek();
    }
}

impl<'a> RunCells<'a> for Picks<'_, 'a> {
    fn wants(&self, i: usize) -> bool {
        i == self.want
    }

    fn int(&mut self, v: i64) {
        self.put(CqlValue::Int(v));
    }

    fn code(&mut self, code: usize, dict: &[&'a str]) {
        self.put(CqlValue::Text(dict[code].to_owned()));
    }

    fn bit(&mut self, bit: bool) {
        self.put(CqlValue::Boolean(bit));
    }

    fn raw(&mut self, cell: InPlace<'a>) {
        self.put(match cell {
            // Checked in the walk, so nothing is lost.
            InPlace::Text(bytes) => CqlValue::Text(String::from_utf8_lossy(bytes).into_owned()),
            InPlace::Value(value) => value,
        });
    }
}

/// One record of a [`ScanBlock`]: where its key sits in the block bytes,
/// the key's first eight bytes as a word, its sequence and whether it is
/// live (clear = tombstone).
#[derive(Debug, Clone, Copy)]
struct RowMeta {
    key: (usize, usize),
    word: u64,
    seq: u64,
    live: bool,
}

impl RowMeta {
    fn new(bytes: &[u8], key: (usize, usize), seq: u64, live: bool) -> RowMeta {
        RowMeta {
            key,
            word: KeyRef::new(&bytes[key.0..key.1]).word,
            seq,
            live,
        }
    }
}

/// A record's key as a merge compares it: the first eight bytes as a
/// big-endian word (zero-padded) order most pairs without reading the
/// keys; equal words fall back to the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct KeyRef<'a> {
    word: u64,
    key: &'a [u8],
}

impl<'a> KeyRef<'a> {
    fn new(key: &'a [u8]) -> KeyRef<'a> {
        let head = &key[..key.len().min(8)];
        let word = match <[u8; 8]>::try_from(head) {
            Ok(word) => u64::from_be_bytes(word),
            Err(_) => {
                (head.iter().enumerate()).fold(0, |w, (i, &b)| w | u64::from(b) << (56 - 8 * i))
            }
        };
        KeyRef { word, key }
    }
}

/// A [`Column`]'s `at` entry for a row without a cell (null or tombstone).
const NO_CELL: u32 = u32::MAX;

/// One column of a [`ScanBlock`]: its run's cells, in the fields its
/// encoding fills.
#[derive(Debug, Default)]
struct Column {
    /// Row `r`'s cell is cell `at[r]` of the run ([`NO_CELL`]: null);
    /// `None` when row `r` is cell `r` (every row live and non-null).
    at: Option<Vec<u32>>,
    /// The run's encoding.
    tag: u8,
    /// Int-delta cells.
    ints: Vec<i64>,
    /// Bool-bitmap cells.
    bits: Vec<bool>,
    /// Text-dict cells: codes into the distinct values, which lie end to
    /// end in `text`, value `c` ending at `ends[c]`.
    codes: Vec<u32>,
    ends: Vec<usize>,
    /// Raw cells; a text one is a range of `text`, so a raw text run costs
    /// one string, not one per cell.
    raw: Vec<RawCell>,
    text: String,
}

impl Column {
    fn cell(&self, row: usize) -> ValueRef<'_> {
        let Some(i) = cell_index(self.at.as_deref(), row) else {
            return ValueRef::Null;
        };
        match self.tag {
            ENC_INT_DELTA => ValueRef::Int(self.ints[i]),
            ENC_TEXT_DICT => ValueRef::Text(self.dict().get(self.codes[i])),
            ENC_BOOL_BITMAP => ValueRef::Boolean(self.bits[i]),
            _ => match &self.raw[i] {
                RawCell::Text(start, end) => ValueRef::Text(&self.text[*start..*end]),
                RawCell::Value(value) => ValueRef::from(value),
            },
        }
    }

    fn dict(&self) -> Dict<'_> {
        Dict {
            text: &self.text,
            ends: &self.ends,
        }
    }

    fn typed<'a, T>(&'a self, tag: u8, cells: &'a [T]) -> Option<Typed<'a, T>> {
        (self.tag == tag).then_some(Typed {
            at: self.at.as_deref(),
            cells,
        })
    }
}

/// Where row `row`'s cell sits in its run, by a [`Column`]'s `at`; `None`
/// for a null or a tombstone.
fn cell_index(at: Option<&[u32]>, row: usize) -> Option<usize> {
    match at {
        None => Some(row),
        Some(at) => (at[row] != NO_CELL).then_some(at[row] as usize),
    }
}

/// A decoded column's cells of one type, read by row: the run an
/// aggregate kernel loops over once the encoding is known.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Typed<'a, T> {
    at: Option<&'a [u32]>,
    cells: &'a [T],
}

impl<T: Copy> Typed<'_, T> {
    /// Row `row`'s cell; `None` for a null or a tombstone.
    pub fn get(&self, row: usize) -> Option<T> {
        cell_index(self.at, row).map(|i| self.cells[i])
    }
}

/// A dictionary-coded run's distinct values, by code.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dict<'a> {
    /// The values end to end, value `c` ending at `ends[c]`.
    text: &'a str,
    ends: &'a [usize],
}

impl<'a> Dict<'a> {
    /// Distinct values (codes run from 0 to this, exclusive).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The value of `code`.
    pub fn get(&self, code: u32) -> &'a str {
        let code = code as usize;
        let start = code.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start..self.ends[code]]
    }
}

/// A [`Column`] as [`walk_run`] fills it. Dictionary values, which the
/// walk hands over as `&str`, go straight into the column's string; raw
/// text collects as bytes in `text`, checked in the walk after each
/// hand-off, and becomes the column's string at the end.
struct Fill {
    column: Column,
    text: Vec<u8>,
}

impl<'a> RunCells<'a> for Fill {
    fn wants(&self, _: usize) -> bool {
        true
    }

    fn int(&mut self, v: i64) {
        self.column.ints.push(v);
    }

    fn code(&mut self, code: usize, dict: &[&'a str]) {
        let column = &mut self.column;
        if column.ends.is_empty() {
            column
                .text
                .reserve(dict.iter().map(|value| value.len()).sum());
            column.ends.reserve(dict.len());
            for value in dict {
                column.text.push_str(value);
                column.ends.push(column.text.len());
            }
        }
        self.column.codes.push(code as u32);
    }

    fn bit(&mut self, bit: bool) {
        self.column.bits.push(bit);
    }

    fn raw(&mut self, cell: InPlace<'a>) {
        self.column.raw.push(match cell {
            InPlace::Text(bytes) => {
                self.text.extend_from_slice(bytes);
                RawCell::Text(self.text.len() - bytes.len(), self.text.len())
            }
            InPlace::Value(value) => RawCell::Value(value),
        });
    }
}

/// One raw cell of a [`Column`].
#[derive(Debug)]
enum RawCell {
    Text(usize, usize),
    Value(CqlValue),
}

/// One block of records as scans read it: keys, sequences, liveness and
/// cells, with no row built. A stored block keeps typed column runs; a
/// memtable snapshot and a batch of probed or operator-built rows keep
/// the rows themselves.
#[derive(Debug)]
pub(crate) struct ScanBlock {
    /// What the key ranges index: the block as read, or the keys of a
    /// built block end to end.
    bytes: Arc<Vec<u8>>,
    rows: Vec<RowMeta>,
    cells: Cells,
}

#[derive(Debug)]
enum Cells {
    /// Per stored column; `None` where the projection pruned it.
    Columns(Vec<Option<Column>>),
    /// One row per record, `width` the longest; a tombstone's is empty.
    Rows {
        width: usize,
        rows: Vec<Vec<CqlValue>>,
    },
}

impl ScanBlock {
    /// Decodes a block for a scan, parsing only the column chunks `proj`
    /// asks for (`None` = all). Pruned columns read as null.
    pub fn decode(file: &str, bytes: Arc<Vec<u8>>, proj: Option<&[usize]>) -> Result<ScanBlock> {
        let (mut d, count) = open_block(file, &bytes)?;
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            let len = d.get_bytes()?.len();
            let end = d.position();
            rows.push(RowMeta::new(&bytes, (end - len, end), 0, false));
        }
        for_each_i64_delta(&mut d, count, |i, seq| rows[i].seq = seq as u64)?;
        let Liveness {
            live,
            live_count,
            ncols,
        } = open_liveness(file, &mut d, count)?;
        for (i, row) in rows.iter_mut().enumerate() {
            row.live = live.get(i);
        }
        let mut cols = Vec::with_capacity(ncols);
        for c in 0..ncols {
            let chunk = d.get_bytes()?;
            cols.push(match proj.is_none_or(|p| p.contains(&c)) {
                true => Some(decode_column(file, chunk, &rows, live_count)?),
                false => None,
            });
        }
        if !d.is_exhausted() {
            return Err(corrupt(file, "trailing bytes after columnar block"));
        }
        Ok(ScanBlock {
            bytes,
            rows,
            cells: Cells::Columns(cols),
        })
    }

    /// Builds a block from sorted records whose rows it copies (a
    /// memtable's versions): the keys end to end in one buffer, each row
    /// cloned once, a tombstone's row empty. `rows` sizes the per-record
    /// vectors. `None`, with nothing allocated, when there are no records.
    pub fn from_records<'r>(
        records: impl Iterator<Item = Record<'r, &'r [CqlValue]>>,
        rows: usize,
    ) -> Option<ScanBlock> {
        let mut records = records.peekable();
        records.peek()?;
        let (mut bytes, mut width) = (Vec::new(), 0);
        let (mut metas, mut cells) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        for (key, seq, row) in records {
            let start = bytes.len();
            bytes.extend_from_slice(key);
            let key = (start, bytes.len());
            metas.push(RowMeta::new(&bytes, key, seq, row.is_some()));
            let row = row.map_or_else(Vec::new, <[CqlValue]>::to_vec);
            width = width.max(row.len());
            cells.push(row);
        }
        Some(ScanBlock {
            bytes: Arc::new(bytes),
            rows: metas,
            cells: Cells::Rows { width, rows: cells },
        })
    }

    /// A block of rows an operator built (probed or aggregated rows),
    /// read only through its cells: it has no keys, sequences or
    /// liveness, and [`ScanBlock::len`] is 0. The rows are kept as they
    /// are, so each can leave whole ([`ScanBlock::take_rows`]).
    pub fn from_rows(rows: Vec<Vec<CqlValue>>) -> ScanBlock {
        static NO_KEYS: LazyLock<Arc<Vec<u8>>> = LazyLock::new(Arc::default);
        ScanBlock {
            bytes: Arc::clone(&NO_KEYS),
            rows: Vec::new(),
            cells: Cells::Rows {
                width: rows.iter().map(Vec::len).max().unwrap_or(0),
                rows,
            },
        }
    }

    /// Records in the block (keys, sequences and liveness).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Columns stored (pruned ones included).
    pub fn width(&self) -> usize {
        match &self.cells {
            Cells::Columns(cols) => cols.len(),
            Cells::Rows { width, .. } => *width,
        }
    }

    /// Columns decoded.
    pub fn decoded_cols(&self) -> usize {
        match &self.cells {
            Cells::Columns(cols) => cols.iter().filter(|c| c.is_some()).count(),
            Cells::Rows { width, .. } => *width,
        }
    }

    /// Record `row`'s key.
    pub fn key(&self, row: usize) -> &[u8] {
        let (start, end) = self.rows[row].key;
        &self.bytes[start..end]
    }

    /// Record `row`'s key, for merging.
    pub fn key_ref(&self, row: usize) -> KeyRef<'_> {
        KeyRef {
            word: self.rows[row].word,
            key: self.key(row),
        }
    }

    /// Record `row`'s sequence.
    pub fn seq(&self, row: usize) -> u64 {
        self.rows[row].seq
    }

    /// Whether record `row` is live (not a tombstone).
    pub fn is_live(&self, row: usize) -> bool {
        self.rows[row].live
    }

    /// Record `row`'s cell in column `col`: null for a tombstone, a null
    /// cell, a pruned column or one past the block's width.
    pub fn cell(&self, col: usize, row: usize) -> ValueRef<'_> {
        match &self.cells {
            Cells::Columns(cols) => match cols.get(col) {
                Some(Some(column)) => column.cell(row),
                _ => ValueRef::Null,
            },
            Cells::Rows { rows, .. } => rows[row].get(col).map_or(ValueRef::Null, ValueRef::from),
        }
    }

    /// Column `col`'s decoded run, when the block stores columns and it was
    /// not pruned.
    fn column(&self, col: usize) -> Option<&Column> {
        match &self.cells {
            Cells::Columns(cols) => cols.get(col)?.as_ref(),
            Cells::Rows { .. } => None,
        }
    }

    /// Column `col`'s cells when its run is int-delta coded.
    pub fn ints(&self, col: usize) -> Option<Typed<'_, i64>> {
        let column = self.column(col)?;
        column.typed(ENC_INT_DELTA, &column.ints)
    }

    /// Column `col`'s codes and their dictionary when its run is
    /// dictionary-coded.
    pub fn codes(&self, col: usize) -> Option<(Typed<'_, u32>, Dict<'_>)> {
        let column = self.column(col)?;
        Some((column.typed(ENC_TEXT_DICT, &column.codes)?, column.dict()))
    }

    /// Moves `rows` out of a block that keeps rows (a memtable snapshot,
    /// or probed or aggregated rows) onto `out`, each row in `layout`'s
    /// column order (`None` = all, padded with nulls to the block's
    /// width) — what a result takes from such a batch without copying it.
    /// A row leaves in its own vector, reordered in place, unless `layout`
    /// repeats or reorders columns. `false`, with nothing moved, for a
    /// stored block or when `rows` is not strictly increasing (a row can
    /// leave only once).
    pub fn take_rows<R>(
        &mut self,
        rows: R,
        layout: Option<&[usize]>,
        out: &mut Vec<Vec<CqlValue>>,
    ) -> bool
    where
        R: ExactSizeIterator<Item = usize> + Clone,
    {
        let Cells::Rows { width, rows: built } = &mut self.cells else {
            return false;
        };
        if !rows.clone().is_sorted_by(|a, b| a < b) {
            return false;
        }
        let width = *width;
        let ascending = layout.is_some_and(|layout| layout.is_sorted_by(|a, b| a < b));
        out.extend(rows.map(|r| {
            let mut row = std::mem::take(&mut built[r]);
            if row.len() < width {
                row.resize(width, CqlValue::Null);
            }
            match layout {
                None => {}
                // Cell `c` of an ascending layout lies at or past its
                // output place `i`, and no later output needs a cell this
                // moves.
                Some(layout) if ascending => {
                    for (i, &c) in layout.iter().enumerate() {
                        row.swap(i, c);
                    }
                    row.truncate(layout.len());
                }
                // A column the layout names again later is copied here and
                // moved there.
                Some(layout) => {
                    row = (layout.iter().enumerate())
                        .map(|(i, &c)| match layout[i + 1..].contains(&c) {
                            true => row[c].clone(),
                            false => std::mem::replace(&mut row[c], CqlValue::Null),
                        })
                        .collect();
                }
            }
            row
        }));
        true
    }

    /// Record `row` as the writer takes it, pruned columns null.
    pub fn record(&self, row: usize) -> Record<'_, impl ExactSizeIterator<Item = ValueRef<'_>>> {
        let cells = (0..self.width()).map(move |col| self.cell(col, row));
        let live = self.is_live(row);
        (self.key(row), self.seq(row), live.then_some(cells))
    }

    /// Record `row` as an entry, pruned columns null.
    pub fn entry(&self, row: usize) -> SstEntry {
        let values = || (0..self.width()).map(|c| self.cell(c, row).to_value());
        SstEntry {
            key: self.key(row).to_vec(),
            row: self.is_live(row).then(|| Row::new(values().collect())),
            timestamp: self.seq(row),
        }
    }
}

/// Decodes one column chunk of a block whose records are `rows`.
fn decode_column(file: &str, chunk: &[u8], rows: &[RowMeta], live_count: usize) -> Result<Column> {
    let chunk = Chunk::open(file, chunk, live_count)?;
    let nulls = chunk.nulls;
    let at = if rows.iter().all(|r| r.live) && nulls.rank(rows.len()) == rows.len() {
        None
    } else {
        // Live rows take the null bitmap's positions in order, and the
        // non-null ones the run's cells in order.
        let (mut li, mut cell) = (0, 0);
        let at = rows.iter().map(|r| {
            if !r.live {
                return NO_CELL;
            }
            li += 1;
            if !nulls.get(li - 1) {
                return NO_CELL;
            }
            cell += 1;
            cell - 1
        });
        Some(at.collect())
    };
    let cap = chunk.present.min(chunk.run.remaining());
    let mut fill = Fill {
        column: Column {
            at,
            tag: chunk.tag,
            ..Column::default()
        },
        text: Vec::new(),
    };
    match chunk.tag {
        ENC_INT_DELTA => fill.column.ints.reserve(cap),
        ENC_TEXT_DICT => fill.column.codes.reserve(cap),
        ENC_BOOL_BITMAP => fill.column.bits.reserve(cap),
        _ => {
            fill.column.raw.reserve(cap);
            fill.text.reserve(chunk.run.remaining());
        }
    }
    let chunk_tag = chunk.tag;
    walk_run(file, chunk, &mut fill)?;
    let Fill { mut column, text } = fill;
    if chunk_tag == ENC_RAW {
        column.text = String::from_utf8(text).map_err(|_| corrupt(file, "non-UTF-8 raw text"))?;
    }
    Ok(column)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `entries` as one block, through the writer's batch.
    fn encode_block(file: &str, entries: &[SstEntry]) -> Result<Vec<u8>> {
        let batch = ColumnBatch::from_records(file, entries.iter().map(SstEntry::record))?;
        let mut out = Encoder::new();
        let live = batch.live.iter().filter(|live| **live).count();
        BlockWriter::default().encode(&mut out, &batch, 0..entries.len(), 0..live);
        Ok(out.into_bytes())
    }

    fn typed_entries() -> Vec<SstEntry> {
        (0..40u8)
            .map(|i| SstEntry {
                key: vec![b'k', i],
                row: (i % 9 != 0).then(|| {
                    Row::new(vec![
                        CqlValue::Int(1_000_000 + i as i64),
                        if i % 5 == 0 {
                            CqlValue::Null
                        } else {
                            CqlValue::Text(format!("station-{}", i % 3))
                        },
                        CqlValue::Boolean(i % 2 == 0),
                        CqlValue::int_set([i as i64, i as i64 + 1]),
                    ])
                }),
                timestamp: 100 + i as u64,
            })
            .collect()
    }

    fn scan(bytes: &[u8], proj: Option<&[usize]>) -> Result<ScanBlock> {
        ScanBlock::decode("t", Arc::new(bytes.to_vec()), proj)
    }

    /// `entries` in a block that keeps their rows, as a memtable builds
    /// one.
    fn row_block(entries: &[SstEntry]) -> ScanBlock {
        let records = (entries.iter()).map(|e| {
            (
                &e.key[..],
                e.timestamp,
                e.row.as_ref().map(|r| &r.values[..]),
            )
        });
        ScanBlock::from_records(records, entries.len()).expect("records")
    }

    /// Every record of the scan decode, as entries.
    fn decode(bytes: &[u8], proj: Option<&[usize]>) -> Result<Vec<SstEntry>> {
        let block = scan(bytes, proj)?;
        Ok((0..block.len()).map(|r| block.entry(r)).collect())
    }

    #[test]
    fn round_trip_is_exact() {
        let es = typed_entries();
        let bytes = encode_block("t", &es).unwrap();
        assert_eq!(decode(&bytes, None).unwrap(), es);
        let built = row_block(&es);
        assert_eq!(
            (0..built.len()).map(|r| built.entry(r)).collect::<Vec<_>>(),
            es
        );
    }

    #[test]
    fn projection_skips_chunks_and_nulls_pruned_columns() {
        let es = typed_entries();
        let bytes = encode_block("t", &es).unwrap();
        let all = scan(&bytes, None).unwrap();
        assert_eq!((all.width(), all.decoded_cols()), (4, 4));

        let block = scan(&bytes, Some(&[0, 2])).unwrap();
        assert_eq!((block.width(), block.decoded_cols()), (4, 2));
        let pruned = decode(&bytes, Some(&[0, 2])).unwrap();
        assert_eq!(pruned.len(), es.len());
        for (p, e) in pruned.iter().zip(&es) {
            assert_eq!(p.key, e.key);
            assert_eq!(p.timestamp, e.timestamp);
            match (&e.row, &p.row) {
                (None, None) => {}
                (Some(full), Some(row)) => {
                    assert_eq!(row.values[0], full.values[0]);
                    assert_eq!(row.values[2], full.values[2]);
                    assert_eq!(row.values[1], CqlValue::Null, "pruned column is Null");
                    assert_eq!(row.values[3], CqlValue::Null, "pruned column is Null");
                }
                other => panic!("liveness mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn mutations_never_panic_and_are_detected_or_exact() {
        // The seeded block adds raw text (multi-byte UTF-8) and mixed runs.
        let seeded = seeded_entries(&mut sc_encoding::Rng::new(0x5EED), 28);
        let tags = chunk_tags(&encode_block("t", &seeded).unwrap());
        assert_eq!((tags[3], tags[5]), (ENC_RAW, ENC_RAW));
        for es in [typed_entries(), seeded] {
            mutate_every_byte(&es);
        }
    }

    fn mutate_every_byte(es: &[SstEntry]) {
        let original = encode_block("t", es).unwrap();
        for pos in 0..original.len() {
            for mutant in [
                {
                    let mut m = original.clone();
                    m[pos] ^= 0x01;
                    m
                },
                {
                    let mut m = original.clone();
                    m[pos] = 0xFF;
                    m
                },
                original[..pos].to_vec(),
            ] {
                // Either a typed error or a successful decode, whole or
                // projected; a successful decode of the *full* block that
                // changed the data would be caught by the table-level tests
                // (here we only require no panic and bounded work).
                for proj in [None, Some(&[1][..]), Some(&[0, 3][..])] {
                    let scanned = decode(&mutant, proj);
                    agrees_with_scan(&mutant, es, proj, &scanned, pos);
                }
            }
        }
    }

    /// The key decode runs the scan decode's checks on the same chunks:
    /// one key or several, it agrees with `scanned` (the scan decode of
    /// `bytes` under `proj`) wherever that decode accepts the block, and
    /// never answers a row out of a block that decode rejects. It also
    /// refuses a key run out of order, which the scan decode does not
    /// check, so there it may be `Corrupt` instead.
    fn agrees_with_scan(
        bytes: &[u8],
        es: &[SstEntry],
        proj: Option<&[usize]>,
        scanned: &Result<Vec<SstEntry>>,
        pos: usize,
    ) {
        let absent: &[u8] = b"k\xff";
        let keys: Vec<&[u8]> = es.iter().map(|e| e.key.as_slice()).collect();
        let every_other: Vec<&[u8]> = keys.iter().copied().step_by(2).collect();
        let singles = keys.iter().chain([&absent]).map(std::slice::from_ref);
        let batches = [&keys[..], &every_other, &[keys[0], absent]];
        for batch in singles.chain(batches) {
            let found = find(bytes, batch, proj);
            match scanned {
                Ok(block) => {
                    let want = batch
                        .iter()
                        .filter_map(|k| block.iter().find(|e| e.key == *k));
                    let ascending = block.windows(2).all(|w| w[0].key < w[1].key);
                    match found {
                        Err(NosqlError::Corrupt(_)) if !ascending => {}
                        found => assert_eq!(
                            found.unwrap(),
                            want.cloned().collect::<Vec<_>>(),
                            "byte {pos}, keys {batch:?}, projection {proj:?}"
                        ),
                    }
                }
                Err(_) => assert!(
                    found.is_err() || found.is_ok_and(|rows| rows.is_empty()),
                    "byte {pos}, keys {batch:?}, projection {proj:?}: a row out of a rejected block"
                ),
            }
        }
    }

    #[test]
    fn empty_and_all_tombstone_blocks() {
        let tombs: Vec<SstEntry> = (0..3u8)
            .map(|i| SstEntry {
                key: vec![i],
                row: None,
                timestamp: i as u64,
            })
            .collect();
        let bytes = encode_block("t", &tombs).unwrap();
        assert_eq!(decode(&bytes, Some(&[0])).unwrap(), tombs);
    }

    /// `rows` seeded records under the odd keys `k00001, k00003, …`: about
    /// one in seven a tombstone, about one cell in five null, one column
    /// per run encoding — ints (delta), four station names (dictionary),
    /// booleans (bitmap), unique readings (raw text, far more than 16
    /// distinct values), `set<int>` and an int/text mix (both raw).
    fn seeded_entries(rng: &mut sc_encoding::Rng, rows: usize) -> Vec<SstEntry> {
        (0..rows)
            .map(|i| {
                let row = (!rng.gen_bool(0.15)).then(|| {
                    let mut cell = |v: CqlValue| match rng.gen_bool(0.2) {
                        true => CqlValue::Null,
                        false => v,
                    };
                    let values = vec![
                        cell(CqlValue::Int(1_000 + i as i64 * 7)),
                        cell(CqlValue::Text(format!("station-{}", i % 4))),
                        cell(CqlValue::Boolean(i % 3 == 0)),
                        cell(CqlValue::Text(format!("reading-{i}-é"))),
                        cell(CqlValue::int_set([i as i64, -(i as i64)])),
                        cell(match i % 2 {
                            0 => CqlValue::Int(-(i as i64)),
                            _ => CqlValue::Text(format!("mixed-{i}")),
                        }),
                    ];
                    Row::new(values)
                });
                SstEntry {
                    key: format!("k{:05}", 2 * i + 1).into_bytes(),
                    row,
                    timestamp: rng.gen_range(1 << 40),
                }
            })
            .collect()
    }

    /// Where each column chunk of a block lies, its length prefix not
    /// included, and how many live records the block holds.
    fn chunks(bytes: &[u8]) -> (Vec<Range<usize>>, usize) {
        let (mut d, count) = open_block("t", bytes).unwrap();
        for _ in 0..count {
            d.get_bytes().unwrap();
        }
        for_each_i64_delta(&mut d, count, |_, _| {}).unwrap();
        let liveness = open_liveness("t", &mut d, count).unwrap();
        let ranges = (0..liveness.ncols).map(|_| {
            let len = d.get_bytes().unwrap().len();
            d.position() - len..d.position()
        });
        (ranges.collect(), liveness.live_count)
    }

    /// The encoding tag of each column chunk of a block.
    fn chunk_tags(bytes: &[u8]) -> Vec<u8> {
        let (ranges, live_count) = chunks(bytes);
        (ranges.into_iter())
            .map(|r| Chunk::open("t", &bytes[r], live_count).unwrap().tag)
            .collect()
    }

    /// A text column is dictionary-coded exactly when its dictionary and
    /// codes take fewer bytes than its raw cells: one side of the
    /// boundary, the other, and the tie, which stays raw.
    #[test]
    fn dictionary_cap_boundary() {
        let text_tag = |texts: &[String]| {
            let entries: Vec<SstEntry> = (texts.iter().enumerate())
                .map(|(i, text)| SstEntry {
                    key: (i as u32).to_be_bytes().to_vec(),
                    row: Some(Row::new(vec![CqlValue::Text(text.clone())])),
                    timestamp: 1 + i as u64,
                })
                .collect();
            chunk_tags(&encode_block("t", &entries).unwrap())[0]
        };
        let names = |n: usize| (0..n).map(|i| format!("station-{i:02}"));
        // Every value once: codes on top of the values cost one byte more
        // than the raw cells' tags.
        let unique: Vec<String> = names(20).collect();
        // One value twice: its second cell is a one-byte code where a raw
        // cell takes a tag, a length byte and the value, so the
        // dictionary comes out smaller by exactly the value's length.
        let repeat = |value: &str| {
            let mut texts = unique.clone();
            texts.insert(7, value.to_string());
            texts.insert(3, value.to_string());
            texts
        };
        for (texts, tag, what) in [
            (unique.clone(), ENC_RAW, "every value once"),
            (repeat("x"), ENC_TEXT_DICT, "one repeat, a byte smaller"),
            (repeat(""), ENC_RAW, "one repeat of \"\", a tie"),
            (
                names(21).cycle().take(40).collect(),
                ENC_TEXT_DICT,
                "21 values in 40 cells",
            ),
            (
                names(17).cycle().take(20).collect(),
                ENC_TEXT_DICT,
                "17 values in 20 cells",
            ),
        ] {
            assert_eq!(text_tag(&texts), tag, "{what}");
        }
    }

    /// The records of `keys` (ascending) that one key walk finds, in key
    /// order, with the columns of `proj` (`None` = all).
    fn find(bytes: &[u8], keys: &[&[u8]], proj: Option<&[usize]>) -> Result<Vec<SstEntry>> {
        let mut found = Vec::new();
        let mut at = Vec::new();
        find_rows(
            "t",
            bytes,
            &mut keys.iter().copied().enumerate(),
            proj,
            &mut |i, seq, row| {
                at.push(i);
                found.push(SstEntry {
                    key: keys[i].to_vec(),
                    row,
                    timestamp: seq,
                });
            },
        )?;
        assert!(at.windows(2).all(|w| w[0] < w[1]), "hits out of key order");
        Ok(found)
    }

    #[test]
    fn find_rows_agrees_with_the_block_decode() {
        let mut rng = sc_encoding::Rng::new(0xF1ED);
        let mut tags_seen = Vec::new();
        for rows in [1, 1, 2, 3, 9, 17, 40, 64, 120, 120] {
            let es = seeded_entries(&mut rng, rows);
            let bytes = encode_block("t", &es).unwrap();
            let block = decode(&bytes, None).unwrap();
            assert_eq!(block, es);
            tags_seen.extend(chunk_tags(&bytes));
            for e in &block {
                assert_eq!(
                    find(&bytes, &[&e.key], None).unwrap(),
                    std::slice::from_ref(e),
                    "{rows}-row block, key {:?}",
                    String::from_utf8_lossy(&e.key)
                );
            }
            // Before, between and after the block's keys.
            let between = (0..=rows).map(|i| format!("k{:05}", 2 * i).into_bytes());
            let outside = [&b""[..], b"a", b"k", b"k00001\0", b"z"].map(<[u8]>::to_vec);
            let absent: Vec<Vec<u8>> = between.chain(outside).collect();
            for key in &absent {
                assert_eq!(find(&bytes, &[key], None).unwrap(), [], "key {key:?}");
            }
            // Seeded batches: present and absent keys mixed, every hit
            // exactly the decode's record.
            for _ in 0..20 {
                let mut batch: Vec<&[u8]> = (es.iter().map(|e| e.key.as_slice()))
                    .chain(absent.iter().map(Vec::as_slice))
                    .filter(|_| rng.gen_bool(0.3))
                    .collect();
                batch.sort_unstable();
                let want: Vec<SstEntry> = (es.iter())
                    .filter(|e| batch.contains(&e.key.as_slice()))
                    .cloned()
                    .collect();
                assert_eq!(
                    find(&bytes, &batch, None).unwrap(),
                    want,
                    "{rows}-row block"
                );
            }
        }
        for tag in [ENC_RAW, ENC_INT_DELTA, ENC_TEXT_DICT, ENC_BOOL_BITMAP] {
            assert!(tags_seen.contains(&tag), "no block used encoding {tag}");
        }
        // The unique readings stay raw: a dictionary of them is no smaller.
        let large = encode_block("t", &seeded_entries(&mut rng, 120)).unwrap();
        assert_eq!(chunk_tags(&large)[3], ENC_RAW);
    }

    /// Seeded blocks, key batches and projections: a key walk under a
    /// projection returns, row for row, what the scan decode under that
    /// projection holds for the keys — pruned cells null, projected cells
    /// exact — across nulls, tombstones, every run encoding and raw text.
    #[test]
    fn projected_probes_agree_with_projected_scans() {
        let mut rng = sc_encoding::Rng::new(0x9B0E);
        let mut tags_seen = Vec::new();
        for rows in [1, 2, 9, 17, 40, 64, 120] {
            let es = seeded_entries(&mut rng, rows);
            let bytes = encode_block("t", &es).unwrap();
            tags_seen.extend(chunk_tags(&bytes));
            let absent: Vec<Vec<u8>> = (0..=rows)
                .map(|i| format!("k{:05}", 2 * i).into_bytes())
                .collect();
            for _ in 0..20 {
                let proj: Vec<usize> = (0..6).filter(|_| rng.gen_bool(0.5)).collect();
                let scanned = decode(&bytes, Some(&proj)).unwrap();
                for (got, e) in scanned.iter().zip(&es) {
                    let cells = got
                        .row
                        .iter()
                        .zip(&e.row)
                        .flat_map(|(g, e)| g.values.iter().zip(&e.values).enumerate());
                    for (c, (got, want)) in cells {
                        match proj.contains(&c) {
                            true => assert_eq!(got, want, "projected column {c}"),
                            false => assert_eq!(*got, CqlValue::Null, "pruned column {c}"),
                        }
                    }
                }
                let mut batch: Vec<&[u8]> = (es.iter().map(|e| e.key.as_slice()))
                    .chain(absent.iter().map(Vec::as_slice))
                    .filter(|_| rng.gen_bool(0.3))
                    .collect();
                batch.sort_unstable();
                let want: Vec<SstEntry> = (scanned.iter())
                    .filter(|e| batch.contains(&e.key.as_slice()))
                    .cloned()
                    .collect();
                let got = find(&bytes, &batch, Some(&proj)).unwrap();
                assert_eq!(got, want, "{rows}-row block, projection {proj:?}");
            }
        }
        for tag in [ENC_RAW, ENC_INT_DELTA, ENC_TEXT_DICT, ENC_BOOL_BITMAP] {
            assert!(tags_seen.contains(&tag), "no block used encoding {tag}");
        }
    }

    /// A pruned chunk is stepped over by its length, never parsed: a
    /// chunk spoiled inside its length still answers every key exactly
    /// when the projection leaves it out, and is refused when it asks
    /// for it.
    #[test]
    fn key_walks_never_parse_a_pruned_chunk() {
        let es = typed_entries();
        let mut bytes = encode_block("t", &es).unwrap();
        let want = decode(&bytes, Some(&[0, 1, 2])).unwrap();
        let (ranges, live_count) = chunks(&bytes);
        // Column 3's run of raw sets, after its tag and null bitmap: bad
        // value tags.
        let run = ranges[3].start + 1 + live_count.div_ceil(8);
        bytes[run..ranges[3].end].fill(0xFF);
        let keys: Vec<&[u8]> = es.iter().map(|e| e.key.as_slice()).collect();
        let proj: &[usize] = &[0, 1, 2];
        assert_eq!(find(&bytes, &keys, Some(proj)).unwrap(), want);
        assert!(find(&bytes, &keys, None).is_err());
        assert!(find(&bytes, &keys, Some(&[3])).is_err());
    }

    #[test]
    fn scans_read_typed_cells() {
        let es = typed_entries();
        let bytes = encode_block("t", &es).unwrap();
        let tags = [ENC_INT_DELTA, ENC_TEXT_DICT, ENC_BOOL_BITMAP, ENC_RAW];
        assert_eq!(chunk_tags(&bytes), tags);
        let block = scan(&bytes, None).unwrap();
        for (r, e) in es.iter().enumerate() {
            assert_eq!(block.key(r), e.key.as_slice());
            assert_eq!(block.seq(r), e.timestamp);
            assert_eq!(block.is_live(r), e.row.is_some());
            let Some(row) = &e.row else {
                assert_eq!(
                    block.cell(0, r),
                    ValueRef::Null,
                    "a tombstone's cells are null"
                );
                continue;
            };
            for (c, value) in row.values.iter().enumerate() {
                assert_eq!(
                    block.cell(c, r),
                    ValueRef::from(value),
                    "row {r} column {c}"
                );
            }
        }
        assert_eq!(block.cell(9, 1), ValueRef::Null, "past the width");
    }

    #[test]
    fn built_rows_move_out_once_each() {
        let row = |i: i64| vec![CqlValue::Int(i), CqlValue::Text(format!("t{i}"))];
        let built = || ScanBlock::from_rows((0..4).map(row).collect());
        let take = |mut block: ScanBlock, rows: &[usize], layout: Option<&[usize]>| {
            let mut out = Vec::new();
            let moved = block.take_rows(rows.iter().copied(), layout, &mut out);
            moved.then_some(out)
        };
        let taken = take(built(), &[0, 2], Some(&[1, 0, 1])).unwrap();
        let want = |i: i64| vec![row(i)[1].clone(), row(i)[0].clone(), row(i)[1].clone()];
        assert_eq!(taken, vec![want(0), want(2)], "a repeated column is copied");
        assert_eq!(take(built(), &[0], None), Some(vec![row(0)]));
        assert_eq!(take(built(), &[2, 1], None), None, "not increasing");
        // A memtable snapshot keeps rows too: a short one leaves padded.
        let mut short = typed_entries();
        short[1].row.as_mut().unwrap().values.truncate(1);
        let snapshot = row_block(&short);
        let mut padded = short[1].row.clone().unwrap().values;
        padded.resize(4, CqlValue::Null);
        let taken = take(snapshot, &[1, 2], Some(&[0, 3])).unwrap();
        let second = &short[2].row.as_ref().unwrap().values;
        assert_eq!(
            taken,
            vec![
                vec![padded[0].clone(), CqlValue::Null],
                vec![second[0].clone(), second[3].clone()]
            ]
        );
        let stored = encode_block("t", &typed_entries()).unwrap();
        assert_eq!(take(scan(&stored, None).unwrap(), &[0], None), None);
    }
}
