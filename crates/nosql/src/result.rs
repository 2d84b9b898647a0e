//! Typed query results.
//!
//! [`QueryResult`] used to be a bare `(columns, Vec<Vec<CqlValue>>)` pair,
//! which pushed positional `row[0].as_int()` matching into every caller.
//! Rows are now [`QueryRow`]s that know their column names: callers ask for
//! `row.get_int("measure")` and get a real [`NosqlError`] — naming the
//! column — when the name or type is wrong.
//!
//! Each row shares the column-name list via `Arc`, so the per-row overhead
//! over the old representation is one pointer.

use crate::error::{NosqlError, Result};
use crate::types::{CqlTypeError, CqlValue};

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// The outcome of a `SELECT` (or any statement; mutations return
/// [`QueryResult::empty`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    columns: Arc<[String]>,
    rows: Vec<QueryRow>,
}

/// One result row, with named-column access.
#[derive(Debug, Clone)]
pub struct QueryRow {
    columns: Arc<[String]>,
    values: Vec<CqlValue>,
}

impl QueryResult {
    /// Builds a result from column names and positional rows (the engine's
    /// internal representation).
    pub fn new(columns: impl Into<Arc<[String]>>, rows: Vec<Vec<CqlValue>>) -> QueryResult {
        let columns: Arc<[String]> = columns.into();
        let rows = rows
            .into_iter()
            .map(|values| QueryRow {
                columns: Arc::clone(&columns),
                values,
            })
            .collect();
        QueryResult { columns, rows }
    }

    /// A result with no columns and no rows.
    pub fn empty() -> QueryResult {
        QueryResult {
            columns: Arc::from(Vec::new()),
            rows: Vec::new(),
        }
    }

    /// The selected column names, in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The result rows.
    pub fn rows(&self) -> &[QueryRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The first row, if any.
    pub fn first(&self) -> Option<&QueryRow> {
        self.rows.first()
    }

    /// Iterates the rows.
    pub fn iter(&self) -> std::slice::Iter<'_, QueryRow> {
        self.rows.iter()
    }

    /// Consumes the result into its rows.
    pub fn into_rows(self) -> Vec<QueryRow> {
        self.rows
    }
}

impl<'a> IntoIterator for &'a QueryResult {
    type Item = &'a QueryRow;
    type IntoIter = std::slice::Iter<'a, QueryRow>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

impl IntoIterator for QueryResult {
    type Item = QueryRow;
    type IntoIter = std::vec::IntoIter<QueryRow>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.into_iter()
    }
}

impl QueryRow {
    /// The value in the named column; `UnknownColumn` if the name is not in
    /// the result.
    pub fn get(&self, column: &str) -> Result<&CqlValue> {
        Ok(&self.values[self.position(column)?])
    }

    fn position(&self, column: &str) -> Result<usize> {
        (self.columns.iter().position(|c| c == column)).ok_or_else(|| NosqlError::UnknownColumn {
            table: "<result>".into(),
            column: column.into(),
        })
    }

    /// Typed extraction via the [`TryFrom<&CqlValue>`] impls; a mismatch
    /// becomes `TypeMismatch` naming `column`.
    pub fn try_get<'a, T>(&'a self, column: &str) -> Result<T>
    where
        T: TryFrom<&'a CqlValue, Error = CqlTypeError>,
    {
        let value = self.get(column)?;
        T::try_from(value).map_err(|e| NosqlError::TypeMismatch {
            column: column.into(),
            expected: e.expected.into(),
            found: e.found.into(),
        })
    }

    /// The named column as `int`.
    pub fn get_int(&self, column: &str) -> Result<i64> {
        self.try_get(column)
    }

    /// The named column as `int`, with `Null` mapping to `None`.
    pub fn get_opt_int(&self, column: &str) -> Result<Option<i64>> {
        self.try_get(column)
    }

    /// The named column as `text`.
    pub fn get_text(&self, column: &str) -> Result<&str> {
        self.try_get(column)
    }

    /// The named column as `text`, moved out of the row, which keeps an
    /// empty string in its place.
    pub fn take_text(&mut self, column: &str) -> Result<String> {
        let at = self.position(column)?;
        if let CqlValue::Text(text) = &mut self.values[at] {
            return Ok(std::mem::take(text));
        }
        // Not text: the typed error `get_text` names.
        self.get_text(column).map(str::to_owned)
    }

    /// The named column as `boolean`.
    pub fn get_bool(&self, column: &str) -> Result<bool> {
        self.try_get(column)
    }

    /// The named column as `set<int>`.
    pub fn get_int_set(&self, column: &str) -> Result<&[i64]> {
        self.try_get(column)
    }

    /// The column names this row was selected with.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The positional values (escape hatch for generic code).
    pub fn values(&self) -> &[CqlValue] {
        &self.values
    }

    /// Consumes the row into its positional values.
    pub fn into_values(self) -> Vec<CqlValue> {
        self.values
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Index<usize> for QueryRow {
    type Output = CqlValue;

    fn index(&self, idx: usize) -> &CqlValue {
        &self.values[idx]
    }
}

/// Rows compare by value only — two rows with the same values are equal even
/// if selected under different column lists.
impl PartialEq for QueryRow {
    fn eq(&self, other: &QueryRow) -> bool {
        self.values == other.values
    }
}

impl PartialEq<Vec<CqlValue>> for QueryRow {
    fn eq(&self, other: &Vec<CqlValue>) -> bool {
        self.values == *other
    }
}

impl PartialEq<QueryRow> for Vec<CqlValue> {
    fn eq(&self, other: &QueryRow) -> bool {
        *self == other.values
    }
}

impl PartialEq<[CqlValue]> for QueryRow {
    fn eq(&self, other: &[CqlValue]) -> bool {
        self.values.as_slice() == other
    }
}

impl fmt::Display for QueryRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, (c, v)) in self.columns.iter().zip(&self.values).enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}={v}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> QueryResult {
        QueryResult::new(
            vec!["id".into(), "key".into(), "ptr".into()],
            vec![vec![
                CqlValue::Int(7),
                CqlValue::Text("Fenian St".into()),
                CqlValue::Null,
            ]],
        )
    }

    #[test]
    fn named_access() {
        let r = result();
        let row = r.first().unwrap();
        assert_eq!(row.get_int("id").unwrap(), 7);
        assert_eq!(row.get_text("key").unwrap(), "Fenian St");
        assert_eq!(row.get_opt_int("ptr").unwrap(), None);
    }

    #[test]
    fn unknown_column_and_type_mismatch_name_the_column() {
        let r = result();
        let row = r.first().unwrap();
        match row.get_int("nope").unwrap_err() {
            NosqlError::UnknownColumn { column, .. } => assert_eq!(column, "nope"),
            e => panic!("unexpected error {e}"),
        }
        match row.get_text("id").unwrap_err() {
            NosqlError::TypeMismatch {
                column,
                expected,
                found,
            } => {
                assert_eq!(column, "id");
                assert_eq!(expected, "text");
                assert_eq!(found, "int");
            }
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn positional_escape_hatch_and_vec_equality() {
        let r = result();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], CqlValue::Int(7));
        assert_eq!(
            r.rows(),
            vec![vec![
                CqlValue::Int(7),
                CqlValue::Text("Fenian St".into()),
                CqlValue::Null,
            ]]
        );
    }

    #[test]
    fn empty_result() {
        let r = QueryResult::empty();
        assert!(r.is_empty());
        assert!(r.columns().is_empty());
        assert!(r.first().is_none());
    }

    #[test]
    fn iteration() {
        let r = QueryResult::new(
            vec!["n".into()],
            vec![vec![CqlValue::Int(1)], vec![CqlValue::Int(2)]],
        );
        let sum: i64 = r.iter().map(|row| row.get_int("n").unwrap()).sum();
        assert_eq!(sum, 3);
        let owned: Vec<QueryRow> = r.into_rows();
        assert_eq!(owned.len(), 2);
    }
}
