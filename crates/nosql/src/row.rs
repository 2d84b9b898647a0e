//! Row representation and its on-disk encoding.

use crate::error::Result;
use crate::types::CqlValue;
use sc_encoding::{varint, Decoder, Encoder};

/// A row: one value per table column, in column order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Values aligned with [`crate::TableDef::columns`].
    pub values: Vec<CqlValue>,
}

impl Row {
    /// Creates a row.
    pub fn new(values: Vec<CqlValue>) -> Row {
        Row { values }
    }

    /// Encodes the row body with Cassandra-style per-row metadata: a row
    /// header (flags + liveness timestamp) and a per-cell write timestamp.
    pub fn encode(&self, enc: &mut Encoder, timestamp: u64) {
        // Row header: flags byte + liveness timestamp.
        enc.put_u8(0x01);
        enc.put_u64_fixed(timestamp);
        enc.put_u64(self.values.len() as u64);
        for v in &self.values {
            // Per-cell metadata: write timestamp (8 bytes, like Cassandra's
            // per-cell timestamps) before the tagged value.
            enc.put_u64_fixed(timestamp);
            v.encode(enc);
        }
    }

    /// Decodes a row written by [`Row::encode`]; returns the row and the
    /// stored timestamp.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<(Row, u64)> {
        let _flags = dec.get_u8()?;
        let timestamp = dec.get_u64_fixed()?;
        let n = dec.get_u64()? as usize;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let _cell_ts = dec.get_u64_fixed()?;
            values.push(CqlValue::decode(dec)?);
        }
        Ok((Row::new(values), timestamp))
    }

    /// Bytes [`Row::encode`] writes, computed without writing them (what
    /// the memtable accounts against its flush threshold, and the length
    /// prefix a commit-log frame writes ahead of the body).
    pub fn encoded_len(&self) -> usize {
        let cells: usize = self.values.iter().map(|v| 8 + v.encoded_len()).sum();
        1 + 8 + varint::len_u64(self.values.len() as u64) + cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let row = Row::new(vec![
            CqlValue::Int(-3),
            CqlValue::Null,
            CqlValue::int_set([5]),
        ]);
        let mut enc = Encoder::new();
        row.encode(&mut enc, 42);
        let bytes = enc.into_bytes();
        assert_eq!(row.encoded_len(), bytes.len());
        let mut dec = Decoder::new(&bytes);
        let (back, ts) = Row::decode(&mut dec).unwrap();
        assert_eq!(back, row);
        assert_eq!(ts, 42);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn encoded_size_counts_metadata() {
        let small = Row::new(vec![CqlValue::Int(1)]);
        // header flags(1) + liveness ts(8) + count(1) + cell ts(8) +
        // tag(1) + zigzag(1) = 20.
        assert_eq!(small.encoded_len(), 20);
    }
}
