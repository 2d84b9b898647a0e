//! CQL value types.
//!
//! The paper's Table 1 schema needs exactly: `int`, `text`, `boolean` and
//! `set<int>`. Values encode to the byte formats the memtable/SSTable layer
//! stores; the encodings carry real per-cell metadata (type tag, and for
//! sets a per-element header) so measured sizes reflect Cassandra-style
//! overheads structurally.

use sc_encoding::{varint, DecodeError, Decoder, Encoder};
use std::fmt;

/// A column's declared type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CqlType {
    /// 64-bit signed integer (covers the paper's `int`).
    Int,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Boolean,
    /// A set of integers — the collection type that stores node→cell id
    /// sets in one cell.
    IntSet,
}

impl CqlType {
    /// Parses a CQL type name.
    pub fn parse(s: &str) -> Option<CqlType> {
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "int" | "bigint" => Some(CqlType::Int),
            "text" | "varchar" => Some(CqlType::Text),
            "boolean" | "bool" => Some(CqlType::Boolean),
            _ if lower.replace(' ', "") == "set<int>" => Some(CqlType::IntSet),
            _ => None,
        }
    }

    /// CQL name of the type.
    pub fn name(self) -> &'static str {
        match self {
            CqlType::Int => "int",
            CqlType::Text => "text",
            CqlType::Boolean => "boolean",
            CqlType::IntSet => "set<int>",
        }
    }
}

impl fmt::Display for CqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CqlValue {
    /// Absent / deleted value.
    Null,
    /// Integer.
    Int(i64),
    /// String.
    Text(String),
    /// Boolean.
    Boolean(bool),
    /// Integer set: its elements in ascending order, each once, as
    /// [`CqlValue::int_set`] builds it and the encoding writes it.
    IntSet(Vec<i64>),
}

impl CqlValue {
    /// The set of `ids`, in any order and with repeats.
    pub fn int_set(ids: impl IntoIterator<Item = i64>) -> CqlValue {
        let mut set: Vec<i64> = ids.into_iter().collect();
        set.sort_unstable();
        set.dedup();
        CqlValue::IntSet(set)
    }

    /// Whether the value's runtime type matches `ty` (`Null` matches all).
    pub fn matches(&self, ty: CqlType) -> bool {
        ValueRef::from(self).ty().is_none_or(|t| t == ty)
    }

    /// Name of the value's runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        ValueRef::from(self).ty().map_or("null", CqlType::name)
    }

    /// The integer, if this is an [`CqlValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            CqlValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is a [`CqlValue::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            CqlValue::Text(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean, if this is a [`CqlValue::Boolean`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            CqlValue::Boolean(v) => Some(*v),
            _ => None,
        }
    }

    /// The set, if this is an [`CqlValue::IntSet`].
    pub fn as_int_set(&self) -> Option<&[i64]> {
        match self {
            CqlValue::IntSet(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this is [`CqlValue::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, CqlValue::Null)
    }

    /// Encodes the value (tagged).
    pub fn encode(&self, enc: &mut Encoder) {
        ValueRef::from(self).encode(enc);
    }

    /// Bytes [`CqlValue::encode`] writes, computed without writing them.
    pub fn encoded_len(&self) -> usize {
        ValueRef::from(self).encoded_len()
    }

    /// Decodes a value written by [`CqlValue::encode`].
    pub fn decode(dec: &mut Decoder<'_>) -> Result<CqlValue, DecodeError> {
        Ok(match CqlValue::decode_in_place(dec)? {
            InPlace::Text(bytes) => {
                let text = std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)?;
                CqlValue::Text(text.to_string())
            }
            InPlace::Value(v) => v,
        })
    }

    /// [`CqlValue::decode`] with a text value's bytes left in the input and
    /// not yet checked as UTF-8, so a scan copies a run's text where it
    /// wants and checks it once instead of allocating and checking a
    /// string per cell.
    pub(crate) fn decode_in_place<'a>(dec: &mut Decoder<'a>) -> Result<InPlace<'a>, DecodeError> {
        let value = match dec.get_u8()? {
            0 => CqlValue::Null,
            1 => CqlValue::Int(dec.get_i64()?),
            2 => return Ok(InPlace::Text(dec.get_bytes()?)),
            3 => CqlValue::Boolean(dec.get_bool()?),
            4 => {
                let n = dec.get_u64()? as usize;
                // Three bytes at least per element: a corrupt count must
                // not drive the reservation.
                let mut set = Vec::with_capacity(n.min(dec.remaining() / 3));
                for _ in 0..n {
                    let _flags = dec.get_u8()?;
                    let _live = dec.get_u8()?;
                    set.push(dec.get_i64()?);
                }
                CqlValue::int_set(set)
            }
            tag => {
                return Err(DecodeError::BadTag {
                    tag,
                    context: "CqlValue",
                })
            }
        };
        Ok(InPlace::Value(value))
    }

    /// Steps over a value written by [`CqlValue::encode`] without building
    /// it, failing exactly where [`CqlValue::decode`] would.
    pub(crate) fn skip(dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        match dec.get_u8()? {
            0 => {}
            1 => {
                dec.get_i64()?;
            }
            2 => {
                dec.get_str()?;
            }
            3 => {
                dec.get_bool()?;
            }
            4 => {
                for _ in 0..dec.get_u64()? {
                    dec.get_raw(2)?;
                    dec.get_i64()?;
                }
            }
            tag => {
                return Err(DecodeError::BadTag {
                    tag,
                    context: "CqlValue",
                })
            }
        }
        Ok(())
    }

    /// Order-preserving key encoding (used for partition keys so the
    /// memtable/SSTable sort order equals value order).
    pub fn encode_key(&self) -> Vec<u8> {
        let mut key = Vec::new();
        ValueRef::from(self).put_key(&mut key);
        key
    }

    /// Total order across all values, used by `ORDER BY` and for
    /// deterministic `GROUP BY` output: `null` sorts first, then values of
    /// the same type compare naturally, then mixed types compare by a
    /// fixed type rank (int < text < boolean < set). Same-typed columns —
    /// the only thing the schema layer admits — never hit the rank case.
    pub fn cmp_sort(&self, other: &CqlValue) -> std::cmp::Ordering {
        ValueRef::from(self).cmp_sort(ValueRef::from(other))
    }

    /// CQL literal form (used when rendering statements, e.g. Figure 3).
    pub fn to_cql_literal(&self) -> String {
        match self {
            CqlValue::Null => "null".to_string(),
            CqlValue::Int(v) => v.to_string(),
            CqlValue::Text(s) => format!("'{}'", s.replace('\'', "''")),
            CqlValue::Boolean(b) => b.to_string(),
            CqlValue::IntSet(set) => {
                let items: Vec<String> = set.iter().map(i64::to_string).collect();
                format!("{{{}}}", items.join(", "))
            }
        }
    }
}

/// A borrowed view of one value: what a column batch holds per row
/// ([`crate::Db::ingest_columns`]) and what a scan hands out per cell,
/// with no [`CqlValue`] built. Equality, hashing and
/// [`ValueRef::cmp_sort`] agree with the owned value's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueRef<'a> {
    /// Absent value.
    Null,
    /// Integer.
    Int(i64),
    /// String.
    Text(&'a str),
    /// Boolean.
    Boolean(bool),
    /// Integer set: its elements, strictly ascending.
    IntSet(&'a [i64]),
}

impl<'a> From<&'a CqlValue> for ValueRef<'a> {
    fn from(v: &'a CqlValue) -> ValueRef<'a> {
        match v {
            CqlValue::Null => ValueRef::Null,
            CqlValue::Int(i) => ValueRef::Int(*i),
            CqlValue::Text(s) => ValueRef::Text(s),
            CqlValue::Boolean(b) => ValueRef::Boolean(*b),
            CqlValue::IntSet(set) => ValueRef::IntSet(set),
        }
    }
}

impl ValueRef<'_> {
    /// Whether this is [`ValueRef::Null`].
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// The value's type; `None` for [`ValueRef::Null`].
    pub fn ty(self) -> Option<CqlType> {
        match self {
            ValueRef::Null => None,
            ValueRef::Int(_) => Some(CqlType::Int),
            ValueRef::Text(_) => Some(CqlType::Text),
            ValueRef::Boolean(_) => Some(CqlType::Boolean),
            ValueRef::IntSet(_) => Some(CqlType::IntSet),
        }
    }

    /// The owned value.
    pub fn to_value(self) -> CqlValue {
        match self {
            ValueRef::Null => CqlValue::Null,
            ValueRef::Int(v) => CqlValue::Int(v),
            ValueRef::Text(v) => CqlValue::Text(v.to_owned()),
            ValueRef::Boolean(v) => CqlValue::Boolean(v),
            ValueRef::IntSet(v) => CqlValue::IntSet(v.to_vec()),
        }
    }

    /// [`CqlValue::cmp_sort`]'s order.
    pub fn cmp_sort(self, other: ValueRef<'_>) -> std::cmp::Ordering {
        fn rank(v: ValueRef<'_>) -> u8 {
            match v {
                ValueRef::Null => 0,
                ValueRef::Int(_) => 1,
                ValueRef::Text(_) => 2,
                ValueRef::Boolean(_) => 3,
                ValueRef::IntSet(_) => 4,
            }
        }
        match (self, other) {
            (ValueRef::Int(a), ValueRef::Int(b)) => a.cmp(&b),
            (ValueRef::Text(a), ValueRef::Text(b)) => a.cmp(b),
            (ValueRef::Boolean(a), ValueRef::Boolean(b)) => a.cmp(&b),
            (ValueRef::IntSet(a), ValueRef::IntSet(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// The tagged encoding ([`CqlValue::encode`]).
    pub(crate) fn encode(self, enc: &mut Encoder) {
        match self {
            ValueRef::Null => enc.put_u8(0),
            ValueRef::Int(v) => enc.put_u8(1).put_i64(v),
            ValueRef::Text(v) => enc.put_u8(2).put_str(v),
            ValueRef::Boolean(v) => enc.put_u8(3).put_bool(v),
            ValueRef::IntSet(set) => {
                enc.put_u8(4).put_u64(set.len() as u64);
                for &v in set {
                    // Per-element header (2 bytes: flags + liveness marker)
                    // mirrors Cassandra's per-element collection cells.
                    enc.put_u8(0).put_u8(1).put_i64(v);
                }
                enc
            }
        };
    }

    /// Bytes [`ValueRef::encode`] writes, computed without writing them.
    pub(crate) fn encoded_len(self) -> usize {
        let int_len = |v: i64| varint::len_u64(varint::zigzag(v));
        match self {
            ValueRef::Null => 1,
            ValueRef::Int(v) => 1 + int_len(v),
            ValueRef::Text(v) => 1 + varint::len_u64(v.len() as u64) + v.len(),
            ValueRef::Boolean(_) => 2,
            ValueRef::IntSet(set) => {
                let elements: usize = set.iter().map(|&v| 2 + int_len(v)).sum();
                1 + varint::len_u64(set.len() as u64) + elements
            }
        }
    }

    /// Appends the order-preserving key encoding ([`CqlValue::encode_key`]).
    pub(crate) fn put_key(self, out: &mut Vec<u8>) {
        match self {
            // Flip the sign bit so byte order == numeric order.
            ValueRef::Int(v) => out.extend_from_slice(&((v as u64) ^ (1u64 << 63)).to_be_bytes()),
            ValueRef::Text(s) => out.extend_from_slice(s.as_bytes()),
            ValueRef::Boolean(b) => out.push(u8::from(b)),
            ValueRef::Null => {}
            // Sets cannot be keys: a statement's bind step
            // (`TableDef::encode_key`) answers a typed error before a
            // literal ever gets here.
            ValueRef::IntSet(_) => unreachable!("set<int> cannot be a partition key"),
        }
    }
}

/// A value [`CqlValue::decode_in_place`] read: a text value's bytes,
/// borrowed from the input and unchecked, or any other value built.
pub(crate) enum InPlace<'a> {
    Text(&'a [u8]),
    Value(CqlValue),
}

impl fmt::Display for CqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_cql_literal())
    }
}

/// A failed typed extraction from a [`CqlValue`] (the `TryFrom` impls
/// below). [`crate::QueryRow`] attaches the column name and converts this
/// into [`crate::NosqlError::TypeMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CqlTypeError {
    /// The Rust-side type that was requested.
    pub expected: &'static str,
    /// The CQL type actually held.
    pub found: &'static str,
}

impl fmt::Display for CqlTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {}, found {}", self.expected, self.found)
    }
}

impl std::error::Error for CqlTypeError {}

impl CqlTypeError {
    fn new(expected: &'static str, found: &CqlValue) -> CqlTypeError {
        CqlTypeError {
            expected,
            found: found.type_name(),
        }
    }
}

impl TryFrom<&CqlValue> for i64 {
    type Error = CqlTypeError;

    fn try_from(v: &CqlValue) -> Result<i64, CqlTypeError> {
        v.as_int().ok_or_else(|| CqlTypeError::new("int", v))
    }
}

/// `Null` maps to `None`; any non-null, non-int value is an error (this is
/// the nullable-int extraction, not a lenient one).
impl TryFrom<&CqlValue> for Option<i64> {
    type Error = CqlTypeError;

    fn try_from(v: &CqlValue) -> Result<Option<i64>, CqlTypeError> {
        match v {
            CqlValue::Null => Ok(None),
            other => i64::try_from(other).map(Some),
        }
    }
}

impl<'a> TryFrom<&'a CqlValue> for &'a str {
    type Error = CqlTypeError;

    fn try_from(v: &'a CqlValue) -> Result<&'a str, CqlTypeError> {
        v.as_text().ok_or_else(|| CqlTypeError::new("text", v))
    }
}

impl TryFrom<&CqlValue> for String {
    type Error = CqlTypeError;

    fn try_from(v: &CqlValue) -> Result<String, CqlTypeError> {
        <&str>::try_from(v).map(str::to_string)
    }
}

impl TryFrom<&CqlValue> for bool {
    type Error = CqlTypeError;

    fn try_from(v: &CqlValue) -> Result<bool, CqlTypeError> {
        v.as_bool().ok_or_else(|| CqlTypeError::new("boolean", v))
    }
}

impl<'a> TryFrom<&'a CqlValue> for &'a [i64] {
    type Error = CqlTypeError;

    fn try_from(v: &'a CqlValue) -> Result<&'a [i64], CqlTypeError> {
        v.as_int_set()
            .ok_or_else(|| CqlTypeError::new("set<int>", v))
    }
}

impl TryFrom<&CqlValue> for Vec<i64> {
    type Error = CqlTypeError;

    fn try_from(v: &CqlValue) -> Result<Vec<i64>, CqlTypeError> {
        <&[i64]>::try_from(v).map(<[i64]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_encoding::Rng;

    #[test]
    fn type_parsing() {
        assert_eq!(CqlType::parse("int"), Some(CqlType::Int));
        assert_eq!(CqlType::parse("TEXT"), Some(CqlType::Text));
        assert_eq!(CqlType::parse("boolean"), Some(CqlType::Boolean));
        assert_eq!(CqlType::parse("set<int>"), Some(CqlType::IntSet));
        assert_eq!(CqlType::parse("set< int >"), Some(CqlType::IntSet));
        assert_eq!(CqlType::parse("blob"), None);
    }

    #[test]
    fn value_type_matching() {
        assert!(CqlValue::Int(1).matches(CqlType::Int));
        assert!(!CqlValue::Int(1).matches(CqlType::Text));
        assert!(CqlValue::Null.matches(CqlType::IntSet));
        assert!(CqlValue::int_set([1, 2]).matches(CqlType::IntSet));
    }

    #[test]
    fn literal_rendering() {
        assert_eq!(CqlValue::Int(-5).to_cql_literal(), "-5");
        assert_eq!(
            CqlValue::Text("Fenian St".into()).to_cql_literal(),
            "'Fenian St'"
        );
        assert_eq!(
            CqlValue::Text("O'Connell".into()).to_cql_literal(),
            "'O''Connell'"
        );
        assert_eq!(CqlValue::int_set([3, 1, 2]).to_cql_literal(), "{1, 2, 3}");
        assert_eq!(CqlValue::Null.to_cql_literal(), "null");
        assert_eq!(CqlValue::Boolean(true).to_cql_literal(), "true");
    }

    #[test]
    fn key_encoding_orders_ints_numerically() {
        let vals = [-100i64, -1, 0, 1, 99, i64::MIN, i64::MAX];
        let mut sorted = vals.to_vec();
        sorted.sort_unstable();
        let mut keys: Vec<(Vec<u8>, i64)> = vals
            .iter()
            .map(|&v| (CqlValue::Int(v).encode_key(), v))
            .collect();
        keys.sort();
        let by_key: Vec<i64> = keys.into_iter().map(|(_, v)| v).collect();
        assert_eq!(by_key, sorted);
    }

    // Deterministic randomized sweeps (seeded xorshift, no proptest — the
    // build is offline).

    fn random_value(rng: &mut Rng) -> CqlValue {
        match rng.gen_range(5) {
            0 => CqlValue::Null,
            1 => CqlValue::Int(rng.gen_i64()),
            2 => CqlValue::Text(rng.gen_ascii(24)),
            3 => CqlValue::Boolean(rng.gen_range(2) == 1),
            _ => CqlValue::int_set((0..rng.gen_range(16)).map(|_| rng.gen_i64())),
        }
    }

    #[test]
    fn encode_roundtrip_random() {
        let mut rng = Rng::new(0xCAFE);
        for _ in 0..1024 {
            let v = random_value(&mut rng);
            let mut enc = Encoder::new();
            v.encode(&mut enc);
            let bytes = enc.into_bytes();
            assert_eq!(v.encoded_len(), bytes.len(), "{v:?}");
            let mut dec = Decoder::new(&bytes);
            assert_eq!(CqlValue::decode(&mut dec).unwrap(), v);
            assert!(dec.is_exhausted());
            // Skipping accepts exactly what decoding does: the whole value,
            // and no strict prefix of it.
            let mut dec = Decoder::new(&bytes);
            CqlValue::skip(&mut dec).unwrap();
            assert!(dec.is_exhausted());
            for cut in 0..bytes.len() {
                let prefix = &bytes[..cut];
                let decoded = CqlValue::decode(&mut Decoder::new(prefix)).is_ok();
                let skipped = CqlValue::skip(&mut Decoder::new(prefix)).is_ok();
                assert_eq!(skipped, decoded, "{v:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn int_key_order_is_numeric() {
        let mut rng = Rng::new(0xCAFF);
        for _ in 0..2048 {
            let (a, b) = (rng.gen_i64(), rng.gen_i64());
            let ka = CqlValue::Int(a).encode_key();
            let kb = CqlValue::Int(b).encode_key();
            assert_eq!(a.cmp(&b), ka.cmp(&kb));
        }
    }
}
