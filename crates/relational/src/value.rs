//! SQL value types.

use sc_encoding::{DecodeError, Decoder, Encoder};
use std::fmt;

/// A column's declared type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    /// 64-bit signed integer (`INT` / `BIGINT`).
    Int,
    /// UTF-8 string (`TEXT` / `VARCHAR`).
    Text,
    /// Boolean (`BOOL` / `BOOLEAN`).
    Bool,
}

impl SqlType {
    /// Parses a SQL type name (length arguments like `VARCHAR(255)` are
    /// handled by the parser, which strips them).
    pub fn parse(s: &str) -> Option<SqlType> {
        match s.to_ascii_lowercase().as_str() {
            "int" | "integer" | "bigint" | "smallint" | "tinyint" => Some(SqlType::Int),
            "text" | "varchar" | "char" => Some(SqlType::Text),
            "bool" | "boolean" => Some(SqlType::Bool),
            _ => None,
        }
    }

    /// SQL name.
    pub fn name(self) -> &'static str {
        match self {
            SqlType::Int => "INT",
            SqlType::Text => "TEXT",
            SqlType::Bool => "BOOL",
        }
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SqlValue {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// String.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl SqlValue {
    /// Whether the runtime type matches `ty` (NULL matches all).
    pub fn matches(&self, ty: SqlType) -> bool {
        matches!(
            (self, ty),
            (SqlValue::Null, _)
                | (SqlValue::Int(_), SqlType::Int)
                | (SqlValue::Text(_), SqlType::Text)
                | (SqlValue::Bool(_), SqlType::Bool)
        )
    }

    /// Runtime type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            SqlValue::Null => "NULL",
            SqlValue::Int(_) => "INT",
            SqlValue::Text(_) => "TEXT",
            SqlValue::Bool(_) => "BOOL",
        }
    }

    /// The integer, if this is an [`SqlValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            SqlValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is a [`SqlValue::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            SqlValue::Text(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean, if this is a [`SqlValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            SqlValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, SqlValue::Null)
    }

    /// Order-preserving key encoding (index keys).
    pub fn encode_key(&self) -> Vec<u8> {
        match self {
            SqlValue::Null => vec![0x00],
            SqlValue::Int(v) => {
                let mut out = vec![0x01];
                out.extend_from_slice(&(((*v as u64) ^ (1u64 << 63)).to_be_bytes()));
                out
            }
            SqlValue::Text(s) => {
                let mut out = vec![0x02];
                out.extend_from_slice(s.as_bytes());
                out
            }
            SqlValue::Bool(b) => vec![0x03, *b as u8],
        }
    }

    /// Tagged value encoding (row bodies).
    pub fn encode(&self, enc: &mut Encoder) {
        match self {
            SqlValue::Null => {
                enc.put_u8(0);
            }
            SqlValue::Int(v) => {
                enc.put_u8(1).put_i64(*v);
            }
            SqlValue::Text(s) => {
                enc.put_u8(2).put_str(s);
            }
            SqlValue::Bool(b) => {
                enc.put_u8(3).put_bool(*b);
            }
        }
    }

    /// Decodes a value written by [`SqlValue::encode`].
    pub fn decode(dec: &mut Decoder<'_>) -> Result<SqlValue, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(SqlValue::Null),
            1 => Ok(SqlValue::Int(dec.get_i64()?)),
            2 => Ok(SqlValue::Text(dec.get_str()?.to_string())),
            3 => Ok(SqlValue::Bool(dec.get_bool()?)),
            tag => Err(DecodeError::BadTag {
                tag,
                context: "SqlValue",
            }),
        }
    }

    /// SQL literal form.
    pub fn to_sql_literal(&self) -> String {
        match self {
            SqlValue::Null => "NULL".to_string(),
            SqlValue::Int(v) => v.to_string(),
            SqlValue::Text(s) => format!("'{}'", s.replace('\'', "''")),
            SqlValue::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        }
    }
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sql_literal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_encoding::Rng;

    #[test]
    fn type_parse() {
        assert_eq!(SqlType::parse("INT"), Some(SqlType::Int));
        assert_eq!(SqlType::parse("varchar"), Some(SqlType::Text));
        assert_eq!(SqlType::parse("BOOLEAN"), Some(SqlType::Bool));
        assert_eq!(SqlType::parse("blob"), None);
    }

    #[test]
    fn literals() {
        assert_eq!(SqlValue::Int(-1).to_sql_literal(), "-1");
        assert_eq!(
            SqlValue::Text("O'Brien".into()).to_sql_literal(),
            "'O''Brien'"
        );
        assert_eq!(SqlValue::Bool(false).to_sql_literal(), "FALSE");
        assert_eq!(SqlValue::Null.to_sql_literal(), "NULL");
    }

    #[test]
    fn key_encoding_sorts_types_then_values() {
        // NULL < ints < texts < bools by tag; ints numeric, texts lexicographic.
        let null = SqlValue::Null.encode_key();
        let int_small = SqlValue::Int(-5).encode_key();
        let int_big = SqlValue::Int(100).encode_key();
        let text_a = SqlValue::Text("a".into()).encode_key();
        let text_b = SqlValue::Text("b".into()).encode_key();
        assert!(null < int_small);
        assert!(int_small < int_big);
        assert!(int_big < text_a);
        assert!(text_a < text_b);
    }

    // Deterministic randomized sweeps (seeded xorshift, no proptest — the
    // build is offline).

    fn random_value(rng: &mut Rng) -> SqlValue {
        match rng.gen_range(4) {
            0 => SqlValue::Null,
            1 => SqlValue::Int(rng.gen_i64()),
            2 => SqlValue::Text(rng.gen_ascii(20)),
            _ => SqlValue::Bool(rng.gen_range(2) == 1),
        }
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = Rng::new(0x5A11);
        for _ in 0..1024 {
            let v = random_value(&mut rng);
            let mut enc = Encoder::new();
            v.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(SqlValue::decode(&mut dec).unwrap(), v);
        }
    }

    #[test]
    fn int_keys_order_numerically() {
        let mut rng = Rng::new(0x5A12);
        for _ in 0..2048 {
            let (a, b) = (rng.gen_i64(), rng.gen_i64());
            let ka = SqlValue::Int(a).encode_key();
            let kb = SqlValue::Int(b).encode_key();
            assert_eq!(a.cmp(&b), ka.cmp(&kb));
        }
    }
}
