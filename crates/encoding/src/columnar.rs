//! Column-run primitives for SSTable data blocks.
//!
//! A block stores its records column-major: one contiguous run per
//! column, each run independently encoded. This module owns the three
//! generic building blocks those runs are made of — packed bitmaps (null
//! and liveness masks, boolean columns), zig-zag delta varint runs
//! (integer columns and sequence numbers), and byte-string dictionaries
//! (low-cardinality text columns). The value-aware mapping from typed
//! cells onto these primitives lives in the table format (`sc-nosql`);
//! everything here is plain bytes.
//!
//! All decoders are hardened against corrupt input: lengths are validated
//! against the remaining buffer before any allocation, so a flipped size
//! byte surfaces as a [`DecodeError`], never as an unbounded allocation.
//! Each run also reads in place — [`BitmapRef`], [`for_each_i64_delta`],
//! [`for_each_dict_value`] / [`for_each_dict_code`] — with the same checks
//! and no allocation, so a reader that wants one cell of a run still
//! validates the whole run without building it.

use crate::codec::{DecodeError, Decoder, Encoder};

/// A packed little-endian bitmap over `len` positions, read in place.
///
/// Bit `i` lives in byte `i / 8` at bit `i % 8`. The encoded form is the
/// raw packed bytes; the caller supplies `len` on decode (it is implied by
/// the surrounding run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitmapRef<'a> {
    bits: &'a [u8],
    len: usize,
}

impl<'a> BitmapRef<'a> {
    /// Borrows the packed bytes of a bitmap over `len` positions.
    pub fn decode(dec: &mut Decoder<'a>, len: usize) -> Result<BitmapRef<'a>, DecodeError> {
        let bits = dec.get_raw(len.div_ceil(8))?;
        Ok(BitmapRef { bits, len })
    }

    /// Reads bit `i` (panics past the end — caller bug, not data).
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of {}", self.len);
        self.bits[i / 8] & (1 << (i % 8)) != 0
    }

    /// Count of set bits in the packed bytes — the padding bits of the last
    /// byte included, so a run sized by this count agrees with the bytes.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Count of set bits at positions below `i` (`i <= len`).
    pub fn rank(&self, i: usize) -> usize {
        assert!(i <= self.len, "bitmap rank {i} out of {}", self.len);
        let whole: usize = self.bits[..i / 8]
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum();
        let part = match i % 8 {
            0 => 0,
            r => (self.bits[i / 8] & ((1u8 << r) - 1)).count_ones() as usize,
        };
        whole + part
    }
}

/// Encodes `values` as a zig-zag delta run: the first value raw, every
/// later value as the signed difference from its predecessor. Sorted or
/// clustered runs (sequence numbers, sensor ids) shrink to one or two
/// bytes per value.
pub fn encode_i64_deltas(enc: &mut Encoder, values: &[i64]) {
    let mut prev = 0i64;
    for &v in values {
        enc.put_i64(v.wrapping_sub(prev));
        prev = v;
    }
}

/// Walks a run of `count` zig-zag delta values in place, handing
/// `(index, value)` to `each` in order — [`decode_i64_deltas`] without the
/// allocation.
pub fn for_each_i64_delta(
    dec: &mut Decoder<'_>,
    count: usize,
    mut each: impl FnMut(usize, i64),
) -> Result<(), DecodeError> {
    // A delta is at least one byte, so `count` beyond the remaining buffer
    // is corrupt — reject before walking (and before a caller allocates).
    if count > dec.remaining() {
        return Err(DecodeError::UnexpectedEof {
            wanted: "delta run",
        });
    }
    let mut prev = 0i64;
    for i in 0..count {
        prev = prev.wrapping_add(dec.get_i64()?);
        each(i, prev);
    }
    Ok(())
}

/// Decodes `count` zig-zag delta values (inverse of [`encode_i64_deltas`]).
pub fn decode_i64_deltas(dec: &mut Decoder<'_>, count: usize) -> Result<Vec<i64>, DecodeError> {
    let mut out = Vec::with_capacity(count.min(dec.remaining()));
    for_each_i64_delta(dec, count, |_, v| out.push(v))?;
    Ok(out)
}

/// A byte-string dictionary: distinct values in first-seen order plus one
/// code per row. Worth it when a column repeats a few station names or
/// categories thousands of times per block.
#[derive(Debug, Default)]
pub struct DictBuilder {
    values: Vec<Vec<u8>>,
    codes: Vec<u64>,
}

impl DictBuilder {
    /// An empty dictionary.
    pub fn new() -> DictBuilder {
        DictBuilder::default()
    }

    /// Appends one cell, interning its bytes.
    pub fn push(&mut self, value: &[u8]) {
        let code = match self.values.iter().position(|v| v == value) {
            Some(i) => i as u64,
            None => {
                self.values.push(value.to_vec());
                (self.values.len() - 1) as u64
            }
        };
        self.codes.push(code);
    }

    /// Distinct values interned so far.
    pub fn distinct(&self) -> usize {
        self.values.len()
    }

    /// Cells pushed so far.
    pub fn rows(&self) -> usize {
        self.codes.len()
    }

    /// Writes the run: distinct count, the distinct values (length
    /// prefixed), then one varint code per row.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.values.len() as u64);
        for v in &self.values {
            enc.put_bytes(v);
        }
        for &c in &self.codes {
            enc.put_u64(c);
        }
    }
}

/// Reads a dictionary run's distinct values in place, handing each to
/// `each` in code order. Leaves `dec` at the first code and returns the
/// distinct count for [`for_each_dict_code`].
pub fn for_each_dict_value<'a, E: From<DecodeError>>(
    dec: &mut Decoder<'a>,
    mut each: impl FnMut(&'a [u8]) -> Result<(), E>,
) -> Result<usize, E> {
    let distinct = dec.get_u64()? as usize;
    // Each distinct value costs at least its one-byte length prefix.
    if distinct > dec.remaining() {
        return Err(DecodeError::UnexpectedEof {
            wanted: "dictionary values",
        }
        .into());
    }
    for _ in 0..distinct {
        each(dec.get_bytes()?)?;
    }
    Ok(distinct)
}

/// Reads the `rows` codes that follow a dictionary's values, each checked
/// below `distinct`, handing `(row, code)` to `each` in order.
pub fn for_each_dict_code(
    dec: &mut Decoder<'_>,
    rows: usize,
    distinct: usize,
    mut each: impl FnMut(usize, usize),
) -> Result<(), DecodeError> {
    if rows > dec.remaining() {
        return Err(DecodeError::UnexpectedEof {
            wanted: "dictionary codes",
        });
    }
    for row in 0..rows {
        let code = dec.get_u64()?;
        if code >= distinct as u64 {
            return Err(DecodeError::BadTag {
                tag: code.min(u64::from(u8::MAX)) as u8,
                context: "dictionary code out of range",
            });
        }
        each(row, code as usize);
    }
    Ok(())
}

/// Decodes a dictionary run of `rows` cells back into per-row byte strings.
pub fn decode_dict(dec: &mut Decoder<'_>, rows: usize) -> Result<Vec<Vec<u8>>, DecodeError> {
    let mut values = Vec::new();
    let distinct = for_each_dict_value(dec, |v| {
        values.push(v);
        Ok::<_, DecodeError>(())
    })?;
    let mut out = Vec::with_capacity(rows.min(dec.remaining()));
    for_each_dict_code(dec, rows, distinct, |_, code| {
        out.push(values[code].to_vec())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_reads_packed_bytes() {
        // Bits 0, 3, 8 and 12 of 13: byte 0 = 0b0000_1001, byte 1 =
        // 0b0001_0001.
        let mut dec = Decoder::new(&[0x09, 0x11, 0xAA]);
        let bits = BitmapRef::decode(&mut dec, 13).unwrap();
        assert_eq!(dec.remaining(), 1, "13 bits take 2 bytes");
        assert_eq!(bits.count_ones(), 4);
        let set: Vec<usize> = (0..13).filter(|&i| bits.get(i)).collect();
        assert_eq!(set, [0, 3, 8, 12]);
        // Rank counts the set bits strictly below the position.
        let ranks: Vec<usize> = [0, 1, 3, 4, 8, 9, 12, 13]
            .iter()
            .map(|&i| bits.rank(i))
            .collect();
        assert_eq!(ranks, [0, 1, 1, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn bitmap_decode_rejects_truncation() {
        let mut dec = Decoder::new(&[0xFF]);
        assert!(BitmapRef::decode(&mut dec, 64).is_err());
    }

    #[test]
    fn delta_round_trip_and_compression() {
        let values: Vec<i64> = (0..200).map(|i| 1_000_000 + i * 3).collect();
        let mut enc = Encoder::new();
        encode_i64_deltas(&mut enc, &values);
        // First value is several bytes, the rest one byte each.
        assert!(enc.len() < 220, "delta run too large: {}", enc.len());
        let mut dec = Decoder::new(enc.bytes());
        assert_eq!(decode_i64_deltas(&mut dec, 200).unwrap(), values);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn delta_handles_negatives_and_extremes() {
        let values = vec![i64::MIN, i64::MAX, -1, 0, 42];
        let mut enc = Encoder::new();
        encode_i64_deltas(&mut enc, &values);
        let mut dec = Decoder::new(enc.bytes());
        assert_eq!(decode_i64_deltas(&mut dec, 5).unwrap(), values);
    }

    #[test]
    fn delta_rejects_oversized_count() {
        let mut dec = Decoder::new(&[0x02, 0x04]);
        assert!(decode_i64_deltas(&mut dec, 1 << 40).is_err());
    }

    #[test]
    fn dict_round_trip() {
        let mut d = DictBuilder::new();
        for name in ["north", "south", "north", "north", "east", "south"] {
            d.push(name.as_bytes());
        }
        assert_eq!(d.distinct(), 3);
        assert_eq!(d.rows(), 6);
        let mut enc = Encoder::new();
        d.encode(&mut enc);
        let mut dec = Decoder::new(enc.bytes());
        let back = decode_dict(&mut dec, 6).unwrap();
        let want: Vec<Vec<u8>> = ["north", "south", "north", "north", "east", "south"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect();
        assert_eq!(back, want);
    }

    #[test]
    fn dict_rejects_out_of_range_code_and_bad_counts() {
        let mut enc = Encoder::new();
        enc.put_u64(1);
        enc.put_bytes(b"only");
        enc.put_u64(7); // code past the dictionary
        let mut dec = Decoder::new(enc.bytes());
        assert!(decode_dict(&mut dec, 1).is_err());

        // Distinct count far beyond the buffer must not allocate.
        let mut enc = Encoder::new();
        enc.put_u64(u32::MAX as u64);
        let mut dec = Decoder::new(enc.bytes());
        assert!(decode_dict(&mut dec, 1).is_err());
    }
}
