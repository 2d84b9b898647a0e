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
//! Every live row of a block has the same column count; the writer rejects
//! anything else.
//!
//! Column chunks are length-prefixed so a projected read skips a pruned
//! column in O(1) without parsing it; [`DecodedBlock`] reports how many
//! chunks were decoded vs skipped for the `nosql.read.cols_*` counters.
//!
//! Two decoders read a block: [`decode_block_rows`] for scans and
//! [`find_row`] for point reads, which builds one row and no other. Both
//! parse chunk headers with `Chunk::open` and walk runs with `walk_run`, so
//! they check a block alike; only a point read whose key is absent stops
//! early, after the key run.

use crate::error::{NosqlError, Result};
use crate::row::Row;
use crate::sstable::SstEntry;
use crate::types::CqlValue;
use sc_encoding::columnar::{
    encode_i64_deltas, for_each_dict_code, for_each_dict_value, for_each_i64_delta, Bitmap,
    BitmapRef, DictBuilder,
};
use sc_encoding::{Decoder, Encoder};

const LAYOUT_COLUMNAR: u8 = 0;

const ENC_RAW: u8 = 0;
const ENC_INT_DELTA: u8 = 1;
const ENC_TEXT_DICT: u8 = 2;
const ENC_BOOL_BITMAP: u8 = 3;

/// One block's records plus its column-pruning accounting.
#[derive(Debug)]
pub(crate) struct DecodedBlock {
    /// The records, in key order.
    pub entries: Vec<SstEntry>,
    /// Column chunks decoded.
    pub cols_read: u64,
    /// Column chunks skipped thanks to projection pruning.
    pub cols_skipped: u64,
}

/// Serializes one sorted run of entries as a block. Live rows that
/// disagree on column count are [`NosqlError::Corrupt`].
pub(crate) fn encode_block(file: &str, entries: &[SstEntry]) -> Result<Vec<u8>> {
    let live_rows: Vec<&Row> = entries.iter().filter_map(|e| e.row.as_ref()).collect();
    let ncols = live_rows.first().map_or(0, |row| row.values.len());
    if let Some(odd) = live_rows.iter().find(|row| row.values.len() != ncols) {
        return Err(NosqlError::Corrupt(format!(
            "refusing to write {file}: a row of {} columns in a block of {ncols}-column rows",
            odd.values.len()
        )));
    }

    let mut enc = Encoder::new();
    enc.put_u64(entries.len() as u64);
    enc.put_u8(LAYOUT_COLUMNAR);
    for e in entries {
        enc.put_bytes(&e.key);
    }
    let seqs: Vec<i64> = entries.iter().map(|e| e.timestamp as i64).collect();
    encode_i64_deltas(&mut enc, &seqs);
    let mut live = Bitmap::new(entries.len());
    for (i, e) in entries.iter().enumerate() {
        if e.row.is_some() {
            live.set(i);
        }
    }
    live.encode(&mut enc);
    enc.put_u64(ncols as u64);
    for c in 0..ncols {
        let chunk = encode_column(&live_rows, c);
        enc.put_bytes(&chunk);
    }
    Ok(enc.into_bytes())
}

/// One column's contiguous run: encoding tag, null bitmap over the live
/// rows, then the non-null cells under the chosen encoding.
fn encode_column(live_rows: &[&Row], c: usize) -> Vec<u8> {
    let mut nulls = Bitmap::new(live_rows.len());
    let mut present: Vec<&CqlValue> = Vec::with_capacity(live_rows.len());
    for (i, row) in live_rows.iter().enumerate() {
        let v = &row.values[c];
        if !matches!(v, CqlValue::Null) {
            nulls.set(i);
            present.push(v);
        }
    }
    let mut enc = Encoder::new();
    let tag = choose_encoding(&present);
    enc.put_u8(tag);
    nulls.encode(&mut enc);
    match tag {
        ENC_INT_DELTA => {
            let ints: Vec<i64> = present
                .iter()
                .map(|v| match v {
                    CqlValue::Int(i) => *i,
                    _ => unreachable!("tag chosen only for all-Int runs"),
                })
                .collect();
            encode_i64_deltas(&mut enc, &ints);
        }
        ENC_TEXT_DICT => {
            let mut dict = DictBuilder::new();
            for v in &present {
                match v {
                    CqlValue::Text(s) => dict.push(s.as_bytes()),
                    _ => unreachable!("tag chosen only for all-Text runs"),
                }
            }
            dict.encode(&mut enc);
        }
        ENC_BOOL_BITMAP => {
            let mut bits = Bitmap::new(present.len());
            for (i, v) in present.iter().enumerate() {
                if matches!(v, CqlValue::Boolean(true)) {
                    bits.set(i);
                }
            }
            bits.encode(&mut enc);
        }
        _ => {
            for v in &present {
                v.encode(&mut enc);
            }
        }
    }
    enc.into_bytes()
}

/// Picks the run encoding: delta varints for all-integer runs, a
/// dictionary for low-cardinality text, a bitmap for booleans, raw tagged
/// cells otherwise (mixed runs, sets, high-cardinality text).
fn choose_encoding(present: &[&CqlValue]) -> u8 {
    if present.is_empty() {
        return ENC_RAW;
    }
    if present.iter().all(|v| matches!(v, CqlValue::Int(_))) {
        return ENC_INT_DELTA;
    }
    if present.iter().all(|v| matches!(v, CqlValue::Boolean(_))) {
        return ENC_BOOL_BITMAP;
    }
    if present.iter().all(|v| matches!(v, CqlValue::Text(_))) {
        let mut dict = DictBuilder::new();
        for v in present {
            if let CqlValue::Text(s) = v {
                dict.push(s.as_bytes());
            }
        }
        // The dictionary pays off once values repeat; cap the distinct
        // count so a unique-text column does not build a dictionary the
        // size of the raw run plus codes.
        if dict.distinct() <= 16 || dict.distinct() * 2 <= present.len() {
            return ENC_TEXT_DICT;
        }
    }
    ENC_RAW
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

/// Which of a run's non-null cells a walk builds; the rest it validates in
/// place.
#[derive(Debug, Clone, Copy)]
enum Take {
    All,
    Only(usize),
    Nothing,
}

impl Take {
    fn wants(self, i: usize) -> bool {
        match self {
            Take::All => true,
            Take::Only(j) => i == j,
            Take::Nothing => false,
        }
    }
}

/// The one walk over a column run, behind both the block and the row
/// decoder: hands `emit` the non-null cells `take` asks for, in run order,
/// and checks every cell of the run — varint framing, dictionary codes in
/// range, UTF-8, raw value tags — exactly `present` cells and nothing
/// after them.
fn walk_run(
    file: &str,
    chunk: Chunk<'_>,
    take: Take,
    mut emit: impl FnMut(CqlValue),
) -> Result<()> {
    let Chunk {
        tag,
        present,
        mut run,
        ..
    } = chunk;
    match tag {
        ENC_INT_DELTA => for_each_i64_delta(&mut run, present, |i, v| {
            if take.wants(i) {
                emit(CqlValue::Int(v));
            }
        })?,
        ENC_TEXT_DICT => {
            let text =
                |v| std::str::from_utf8(v).map_err(|_| corrupt(file, "non-UTF-8 dictionary text"));
            // Every distinct value is checked once. A full decode keeps
            // them to hand out per row; a one-cell walk finds its value
            // again by code once the codes are checked.
            let mut values = run.clone();
            let mut table: Vec<&str> = Vec::new();
            let distinct = for_each_dict_value(&mut run, |v| {
                let s = text(v)?;
                if matches!(take, Take::All) {
                    table.push(s);
                }
                Ok::<_, NosqlError>(())
            })?;
            let mut picked = None;
            for_each_dict_code(&mut run, present, distinct, |i, code| match take {
                Take::All => emit(CqlValue::Text(table[code].to_owned())),
                _ if take.wants(i) => picked = Some(code),
                _ => {}
            })?;
            if let Some(code) = picked {
                let mut i = 0;
                for_each_dict_value(&mut values, |v| {
                    if i == code {
                        emit(CqlValue::Text(text(v)?.to_owned()));
                    }
                    i += 1;
                    Ok::<_, NosqlError>(())
                })?;
            }
        }
        ENC_BOOL_BITMAP => {
            let bits = BitmapRef::decode(&mut run, present)?;
            for i in (0..present).filter(|&i| take.wants(i)) {
                emit(CqlValue::Boolean(bits.get(i)));
            }
        }
        // ENC_RAW: `Chunk::open` admits no other tag.
        _ => {
            for i in 0..present {
                if take.wants(i) {
                    emit(CqlValue::decode(&mut run)?);
                } else {
                    CqlValue::skip(&mut run)?;
                }
            }
        }
    }
    if !run.is_exhausted() {
        return Err(corrupt(file, "trailing bytes after column chunk"));
    }
    Ok(())
}

/// Finds `key`'s record in a block without building any other: the key
/// run is compared in place and each column chunk yields only this row's
/// cell, while every run is still checked as [`decode_block_rows`] checks
/// it. `None` once the key run shows the key absent.
pub(crate) fn find_row(file: &str, bytes: &[u8], key: &[u8]) -> Result<Option<SstEntry>> {
    let (mut d, count) = open_block(file, bytes)?;
    let mut found = None;
    for i in 0..count {
        let k = d.get_bytes()?;
        if found.is_none() && k == key {
            found = Some(i);
        }
    }
    let Some(row) = found else {
        return Ok(None);
    };
    let mut timestamp = 0;
    for_each_i64_delta(&mut d, count, |i, seq| {
        if i == row {
            timestamp = seq as u64;
        }
    })?;
    let Liveness {
        live,
        live_count,
        ncols,
    } = open_liveness(file, &mut d, count)?;
    // The row's position among the live rows, unless it is a tombstone.
    let live_at = live.get(row).then(|| live.rank(row));
    let mut values = Vec::with_capacity(if live_at.is_some() { ncols } else { 0 });
    for _ in 0..ncols {
        let chunk = Chunk::open(file, d.get_bytes()?, live_count)?;
        let take = match live_at {
            Some(li) if chunk.nulls.get(li) => Take::Only(chunk.nulls.rank(li)),
            _ => Take::Nothing,
        };
        let mut cell = CqlValue::Null;
        walk_run(file, chunk, take, |v| cell = v)?;
        if live_at.is_some() {
            values.push(cell);
        }
    }
    if !d.is_exhausted() {
        return Err(corrupt(file, "trailing bytes after columnar block"));
    }
    Ok(Some(SstEntry {
        key: key.to_vec(),
        row: live_at.map(|_| Row::new(values)),
        timestamp,
    }))
}

/// Decodes a block, parsing only the column chunks `proj` asks for
/// (`None` = all). Pruned columns come back as [`CqlValue::Null`].
pub(crate) fn decode_block_rows(
    file: &str,
    bytes: &[u8],
    proj: Option<&[usize]>,
) -> Result<DecodedBlock> {
    let (mut d, count) = open_block(file, bytes)?;
    let mut keys = Vec::with_capacity(count);
    for _ in 0..count {
        keys.push(d.get_bytes()?.to_vec());
    }
    let mut seqs = Vec::with_capacity(count);
    for_each_i64_delta(&mut d, count, |_, seq| seqs.push(seq))?;
    let Liveness {
        live,
        live_count,
        ncols,
    } = open_liveness(file, &mut d, count)?;
    let mut out = DecodedBlock {
        entries: Vec::with_capacity(count),
        cols_read: 0,
        cols_skipped: 0,
    };
    let mut cols: Vec<Option<Vec<CqlValue>>> = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let chunk = d.get_bytes()?;
        if proj.is_none_or(|p| p.contains(&c)) {
            cols.push(Some(decode_column(file, chunk, live_count)?));
            out.cols_read += 1;
        } else {
            cols.push(None);
            out.cols_skipped += 1;
        }
    }
    if !d.is_exhausted() {
        return Err(corrupt(file, "trailing bytes after columnar block"));
    }
    let mut li = 0usize;
    for i in 0..count {
        let row = if live.get(i) {
            if li >= live_count {
                return Err(corrupt(file, "live bitmap disagrees with itself"));
            }
            let mut values = vec![CqlValue::Null; ncols];
            for (c, run) in cols.iter_mut().enumerate() {
                if let Some(run) = run {
                    values[c] = std::mem::replace(&mut run[li], CqlValue::Null);
                }
            }
            li += 1;
            Some(Row::new(values))
        } else {
            None
        };
        out.entries.push(SstEntry {
            key: std::mem::take(&mut keys[i]),
            row,
            timestamp: seqs[i] as u64,
        });
    }
    Ok(out)
}

/// Decodes one column chunk into `live_count` cells (nulls included).
fn decode_column(file: &str, chunk: &[u8], live_count: usize) -> Result<Vec<CqlValue>> {
    let chunk = Chunk::open(file, chunk, live_count)?;
    let nulls = chunk.nulls;
    let mut cells = Vec::with_capacity(chunk.present.min(chunk.run.remaining()));
    walk_run(file, chunk, Take::All, |v| cells.push(v))?;
    if nulls.rank(live_count) == live_count {
        // No nulls: the run is the column. Set padding bits of the bitmap's
        // last byte only add cells past the live rows.
        cells.truncate(live_count);
        return Ok(cells);
    }
    // Weave nulls back into live-row positions.
    let mut cells = cells.into_iter();
    Ok((0..live_count)
        .map(|i| match nulls.get(i) {
            true => cells.next().unwrap_or(CqlValue::Null),
            false => CqlValue::Null,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn decode(bytes: &[u8], proj: Option<&[usize]>) -> Result<DecodedBlock> {
        decode_block_rows("t", bytes, proj)
    }

    #[test]
    fn round_trip_is_exact() {
        let es = typed_entries();
        let bytes = encode_block("t", &es).unwrap();
        assert_eq!(decode(&bytes, None).unwrap().entries, es);
    }

    #[test]
    fn projection_skips_chunks_and_nulls_pruned_columns() {
        let es = typed_entries();
        let bytes = encode_block("t", &es).unwrap();
        let all = decode(&bytes, None).unwrap();
        assert_eq!(all.cols_read, 4);
        assert_eq!(all.cols_skipped, 0);

        let pruned = decode(&bytes, Some(&[0, 2])).unwrap();
        assert_eq!(pruned.cols_read, 2);
        assert_eq!(pruned.cols_skipped, 2);
        assert_eq!(pruned.entries.len(), es.len());
        for (p, e) in pruned.entries.iter().zip(&es) {
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
                // Either a typed error or a successful decode; a successful
                // decode of the *full* block that changed the data would be
                // caught by the table-level tests (here we only require no
                // panic and bounded work).
                let full = decode(&mutant, None);
                let _ = decode(&mutant, Some(&[1]));
                // The point decode runs the same checks: it agrees with the
                // full decode on every key that decode accepts, and never
                // answers a row out of a block that decode rejects.
                let absent: &[u8] = b"k\xff";
                for key in es.iter().map(|e| e.key.as_slice()).chain([absent]) {
                    let found = find_row("t", &mutant, key);
                    match &full {
                        Ok(block) => assert_eq!(
                            found.unwrap(),
                            block.entries.iter().find(|e| e.key == key).cloned(),
                            "byte {pos}, key {key:?}"
                        ),
                        Err(_) => assert!(
                            !matches!(found, Ok(Some(_))),
                            "byte {pos}, key {key:?}: a row out of a rejected block"
                        ),
                    }
                }
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
        assert_eq!(decode(&bytes, Some(&[0])).unwrap().entries, tombs);
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

    /// The encoding tag of each column chunk of a block.
    fn chunk_tags(bytes: &[u8]) -> Vec<u8> {
        let (mut d, count) = open_block("t", bytes).unwrap();
        for _ in 0..count {
            d.get_bytes().unwrap();
        }
        for_each_i64_delta(&mut d, count, |_, _| {}).unwrap();
        let liveness = open_liveness("t", &mut d, count).unwrap();
        (0..liveness.ncols)
            .map(|_| {
                let chunk = d.get_bytes().unwrap();
                Chunk::open("t", chunk, liveness.live_count).unwrap().tag
            })
            .collect()
    }

    #[test]
    fn find_row_agrees_with_the_block_decode() {
        let mut rng = sc_encoding::Rng::new(0xF1ED);
        let mut tags_seen = Vec::new();
        for rows in [1, 1, 2, 3, 9, 17, 40, 64, 120, 120] {
            let es = seeded_entries(&mut rng, rows);
            let bytes = encode_block("t", &es).unwrap();
            let block = decode(&bytes, None).unwrap().entries;
            assert_eq!(block, es);
            tags_seen.extend(chunk_tags(&bytes));
            for e in &block {
                assert_eq!(
                    find_row("t", &bytes, &e.key).unwrap().as_ref(),
                    Some(e),
                    "{rows}-row block, key {:?}",
                    String::from_utf8_lossy(&e.key)
                );
            }
            // Before, between and after the block's keys.
            let between = (0..=rows).map(|i| format!("k{:05}", 2 * i).into_bytes());
            let outside = [&b""[..], b"a", b"k", b"k00001\0", b"z"].map(<[u8]>::to_vec);
            for key in between.chain(outside) {
                assert_eq!(find_row("t", &bytes, &key).unwrap(), None, "key {key:?}");
            }
        }
        for tag in [ENC_RAW, ENC_INT_DELTA, ENC_TEXT_DICT, ENC_BOOL_BITMAP] {
            assert!(tags_seen.contains(&tag), "no block used encoding {tag}");
        }
        // The unique readings outgrow the dictionary cap in the large blocks.
        let large = encode_block("t", &seeded_entries(&mut rng, 120)).unwrap();
        assert_eq!(chunk_tags(&large)[3], ENC_RAW);
    }
}
