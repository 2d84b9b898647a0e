//! Secondary indexes: everything that knows how a posting is stored.
//!
//! An index on column `c` of table `t` is the hidden column family
//! `t__idx_c` holding one row per posting — Cassandra's
//! one-cell-per-posting physical layout expressed as rows. A posting's key
//! is `len-prefixed(value key) ++ base-row key`: the value-key prefix
//! groups a per-value partition, the base-key suffix makes each posting
//! its own row. Like Cassandra's index entries the indexed value is stored
//! once, in the key; the row body carries only the base row's id.
//!
//! The write path asks [`Index::diff`] for the posting writes that take a
//! row from its old to its new state (`CREATE INDEX`'s backfill is the
//! same diff from "no row"); the read path asks [`Index::base_keys`] for
//! the base-table keys posted under a set of values. Nothing outside this
//! module spells a posting key or the hidden table's name and shape.

use crate::error::{NosqlError, Result};
use crate::plan::KeyList;
use crate::row::Row;
use crate::schema::{ColumnDef, TableDef};
use crate::table::{PendingWrite, TableCore};
use crate::types::{CqlType, CqlValue, ValueRef};
use std::sync::Arc;

/// Name of the hidden posting table for `column` of table `base` (`base`
/// bare or qualified alike).
pub(crate) fn hidden_name(base: &str, column: &str) -> String {
    format!("{base}__idx_{column}")
}

/// Validates `CREATE INDEX ON base (column)` and returns the column's
/// position in the base row plus the hidden posting table's definition.
pub(crate) fn hidden_def(base: &TableDef, column: &str) -> Result<(usize, TableDef)> {
    let position = base.column(column)?;
    if base.is_indexed(column) {
        return Err(NosqlError::AlreadyExists(format!("index on {column:?}")));
    }
    if base.columns[position].ty == CqlType::IntSet {
        return Err(NosqlError::Unsupported(
            "secondary indexes on set<int> columns".into(),
        ));
    }
    if base.pk_column().ty != CqlType::Int {
        return Err(NosqlError::Unsupported(
            "secondary indexes require an int primary key (posting sets hold ints)".into(),
        ));
    }
    let column_def = |name: &str, ty| ColumnDef {
        name: name.into(),
        ty,
    };
    let def = TableDef::new(
        &base.keyspace,
        &hidden_name(&base.name, column),
        vec![
            column_def("k", CqlType::Text),
            column_def("id", CqlType::Int),
        ],
        "k",
    )?;
    Ok((position, def))
}

/// One secondary index of a base table, over its hidden posting table.
#[derive(Debug, Clone)]
pub(crate) struct Index {
    /// The indexed column's position in the base row layout.
    column: usize,
    /// The base table's primary-key position (an int column, by
    /// [`hidden_def`]): a posting's body carries that value as the row id.
    pk: usize,
    postings: Arc<TableCore>,
}

impl Index {
    pub fn new(column: usize, pk: usize, postings: Arc<TableCore>) -> Index {
        Index {
            column,
            pk,
            postings,
        }
    }

    /// The indexed column's position in the base row layout.
    pub fn column(&self) -> usize {
        self.column
    }

    fn prefix(value_key: &[u8]) -> sc_encoding::Encoder {
        let mut enc = sc_encoding::Encoder::new();
        enc.put_bytes(value_key);
        enc
    }

    /// The indexed value of a row, if it has one (nulls are not indexed).
    /// Stored rows passed the bind step, and `hidden_def` refuses set
    /// columns, so what comes back is a scalar.
    fn value<'a>(&self, row: Option<&'a Row>) -> Option<&'a CqlValue> {
        row.map(|r| &r.values[self.column]).filter(|v| !v.is_null())
    }

    /// A posting of `value` for the base row stored under `base_key`: the
    /// row to write it, `None` to tombstone it.
    fn posting(&self, value: &CqlValue, base_key: &[u8], row: Option<Row>) -> PendingWrite {
        let mut key = Index::prefix(&value.encode_key());
        key.put_raw(base_key);
        PendingWrite::new(Arc::clone(&self.postings), key.into_bytes(), row)
    }

    /// Appends the posting writes that take the base row stored under
    /// `base_key` from `old` to `new`, either of which may be absent: the
    /// old value's posting is tombstoned, then the new value's is written.
    pub fn diff(
        &self,
        base_key: &[u8],
        old: Option<&Row>,
        new: Option<&Row>,
        out: &mut Vec<PendingWrite>,
    ) {
        let (old_value, new_value) = (self.value(old), self.value(new));
        if old_value == new_value {
            return;
        }
        out.extend(old_value.map(|v| self.posting(v, base_key, None)));
        if let (Some(value), Some(row)) = (new_value, new) {
            let body = Row::new(vec![CqlValue::Null, row.values[self.pk].clone()]);
            out.push(self.posting(value, base_key, Some(body)));
        }
    }

    /// Base-table keys posted under any of `value_keys` (encoded literals
    /// of the indexed column) at MVCC bound `bound`: statement order of
    /// values, key order within a value. A key posted under two of the
    /// values (a stale posting) comes twice; the scan keeps the first.
    /// Postings may trail an overwrite racing the index update, so the
    /// caller re-checks each base row against the values.
    pub fn base_keys(&self, value_keys: &KeyList, bound: u64) -> Result<KeyList> {
        let (mut keys, mut key, mut run) = (KeyList::default(), Vec::new(), Vec::new());
        for value_key in value_keys.iter() {
            let prefix = Index::prefix(value_key).into_bytes();
            let mut postings = self.postings.cursor(bound, Some(&prefix), Some(&[1]));
            while let Some((_, block)) = postings.next_run(&mut run, usize::MAX)? {
                for &row in &run {
                    if let id @ ValueRef::Int(_) = block.cell(1, row as usize) {
                        key.clear();
                        id.put_key(&mut key);
                        keys.push(&key);
                    }
                }
            }
        }
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(pk: &str) -> TableDef {
        let column = |name: &str, ty| ColumnDef {
            name: name.into(),
            ty,
        };
        TableDef::new(
            "ks",
            "cells",
            vec![
                column("id", CqlType::Int),
                column("key", CqlType::Text),
                column("kids", CqlType::IntSet),
            ],
            pk,
        )
        .unwrap()
    }

    #[test]
    fn hidden_table_shape_and_refusals() {
        assert_eq!(hidden_name("cells", "key"), "cells__idx_key");
        assert_eq!(hidden_name("ks.cells", "key"), "ks.cells__idx_key");
        let (position, def) = hidden_def(&base("id"), "key").unwrap();
        assert_eq!(position, 1);
        assert_eq!(def.qualified_name(), "ks.cells__idx_key");
        assert_eq!(def.pk_column().name, "k");
        assert!(matches!(
            hidden_def(&base("id"), "nope"),
            Err(NosqlError::UnknownColumn { .. })
        ));
        assert!(matches!(
            hidden_def(&base("id"), "kids"),
            Err(NosqlError::Unsupported(_))
        ));
        assert!(matches!(
            hidden_def(&base("key"), "id"),
            Err(NosqlError::Unsupported(_))
        ));
        let mut indexed = base("id");
        indexed.indexed_columns.push("key".into());
        assert!(matches!(
            hidden_def(&indexed, "key"),
            Err(NosqlError::AlreadyExists(_))
        ));
    }
}
