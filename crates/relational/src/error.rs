//! Relational engine errors.

use sc_encoding::lex::ParseError;
use sc_encoding::DecodeError;
use sc_storage::StorageError;
use std::fmt;

/// Anything that can go wrong executing against the relational engine.
#[derive(Debug)]
pub enum SqlError {
    /// SQL text did not parse.
    Parse(String),
    /// A named database does not exist.
    UnknownDatabase(String),
    /// A named table does not exist.
    UnknownTable(String),
    /// A named column does not exist.
    UnknownColumn {
        /// Table name (or alias context).
        table: String,
        /// Column name.
        column: String,
    },
    /// A value's type does not match the column.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Declared type.
        expected: String,
        /// What was supplied.
        found: String,
    },
    /// Duplicate primary key on insert.
    DuplicateKey(String),
    /// A foreign-key constraint failed.
    ForeignKeyViolation {
        /// Constraint description.
        constraint: String,
    },
    /// NOT NULL / primary-key null violations.
    NullViolation(String),
    /// Creating something that already exists.
    AlreadyExists(String),
    /// A query shape the engine does not support.
    Unsupported(String),
    /// Underlying storage failure.
    Storage(StorageError),
    /// Corrupt on-disk data.
    Corrupt(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(m) => write!(f, "SQL parse error: {m}"),
            SqlError::UnknownDatabase(d) => write!(f, "unknown database {d:?}"),
            SqlError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            SqlError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column:?} on {table:?}")
            }
            SqlError::TypeMismatch {
                column,
                expected,
                found,
            } => write!(
                f,
                "type mismatch on {column:?}: expected {expected}, found {found}"
            ),
            SqlError::DuplicateKey(k) => write!(f, "duplicate primary key {k}"),
            SqlError::ForeignKeyViolation { constraint } => {
                write!(f, "foreign key violation: {constraint}")
            }
            SqlError::NullViolation(c) => write!(f, "column {c:?} may not be null"),
            SqlError::AlreadyExists(what) => write!(f, "{what} already exists"),
            SqlError::Unsupported(m) => write!(f, "unsupported query: {m}"),
            SqlError::Storage(e) => write!(f, "storage error: {e}"),
            SqlError::Corrupt(m) => write!(f, "corrupt data: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<StorageError> for SqlError {
    fn from(e: StorageError) -> Self {
        SqlError::Storage(e)
    }
}

impl From<ParseError> for SqlError {
    fn from(e: ParseError) -> Self {
        SqlError::Parse(e.0)
    }
}

impl From<DecodeError> for SqlError {
    fn from(e: DecodeError) -> Self {
        SqlError::Corrupt(e.to_string())
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, SqlError>;
