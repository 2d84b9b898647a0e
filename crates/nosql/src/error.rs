//! Engine errors.

use sc_encoding::lex::ParseError;
use sc_encoding::DecodeError;
use sc_storage::StorageError;
use std::fmt;

/// Anything that can go wrong executing against the NoSQL engine.
#[derive(Debug)]
pub enum NosqlError {
    /// CQL text did not parse; the message includes position context.
    Parse(String),
    /// A named keyspace does not exist.
    UnknownKeyspace(String),
    /// A named table does not exist.
    UnknownTable(String),
    /// A named column does not exist on the table.
    UnknownColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// A value's type does not match the column's declared type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Declared type.
        expected: String,
        /// What was supplied.
        found: String,
    },
    /// A write (INSERT, UPDATE, DELETE) left the primary key column unbound
    /// or bound it to `null`.
    MissingPrimaryKey(String),
    /// Creating something that already exists.
    AlreadyExists(String),
    /// A WHERE clause the engine cannot serve (no index, not the key).
    Unsupported(String),
    /// A `SUM`/`AVG` running total left the 64-bit integer range. The
    /// statement fails rather than wrapping silently (the old behavior
    /// returned an arbitrary wrapped total).
    AggregateOverflow {
        /// The aggregate that overflowed (`"SUM"` or `"AVG"`).
        func: &'static str,
    },
    /// Underlying storage failure.
    Storage(StorageError),
    /// Corrupt on-disk data.
    Corrupt(String),
}

impl fmt::Display for NosqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NosqlError::Parse(m) => write!(f, "CQL parse error: {m}"),
            NosqlError::UnknownKeyspace(k) => write!(f, "unknown keyspace {k:?}"),
            NosqlError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            NosqlError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column:?} on table {table:?}")
            }
            NosqlError::TypeMismatch {
                column,
                expected,
                found,
            } => write!(
                f,
                "type mismatch on column {column:?}: expected {expected}, found {found}"
            ),
            NosqlError::MissingPrimaryKey(c) => {
                write!(f, "a write must bind primary key column {c:?} to a value")
            }
            NosqlError::AlreadyExists(what) => write!(f, "{what} already exists"),
            NosqlError::AggregateOverflow { func } => {
                write!(f, "{func} aggregate overflowed the 64-bit integer range")
            }
            NosqlError::Unsupported(m) => write!(f, "unsupported query: {m}"),
            NosqlError::Storage(e) => write!(f, "storage error: {e}"),
            NosqlError::Corrupt(m) => write!(f, "corrupt data: {m}"),
        }
    }
}

impl std::error::Error for NosqlError {}

impl From<StorageError> for NosqlError {
    fn from(e: StorageError) -> Self {
        NosqlError::Storage(e)
    }
}

impl From<ParseError> for NosqlError {
    fn from(e: ParseError) -> Self {
        NosqlError::Parse(e.0)
    }
}

impl From<DecodeError> for NosqlError {
    fn from(e: DecodeError) -> Self {
        NosqlError::Corrupt(e.to_string())
    }
}

impl From<crate::types::CqlTypeError> for NosqlError {
    fn from(e: crate::types::CqlTypeError) -> Self {
        NosqlError::TypeMismatch {
            column: "<value>".into(),
            expected: e.expected.into(),
            found: e.found.into(),
        }
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, NosqlError>;
